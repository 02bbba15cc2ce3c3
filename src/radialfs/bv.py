"""Weighted BV on the half-line, the BV trace equivalence, and the decay bound.

The supported profile class is piecewise-C^1 with finitely many jumps
(staircases, smooth bumps, and their sums); the derivative is a signed Radon
measure with atoms at the jump radii plus an absolutely continuous density.
The d-dimensional BV norm of the radial extension of a piecewise-smooth
profile is computed by the exact reduction (jump spheres contribute surface
area times jump height; smooth parts reduce to weighted 1-D integrals), not
by grid differencing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad

from .core import sphere_area
from .errors import DivergenceError, InvalidParameterError

__all__ = ["RadonMeasure1D", "BVProfile", "staircase", "smooth_bump_bv",
           "bv_weighted_norm", "bv_dim_norm", "bv_equivalence_check",
           "bv_decay_check", "pairing_identity_residuals",
           "BVEquivalenceReport", "BVDecayReport"]


@dataclass(frozen=True)
class RadonMeasure1D:
    """Atoms (location > 0, signed mass) plus an absolutely continuous density."""

    atoms: Tuple[Tuple[float, float], ...] = ()
    density: Optional[Callable[[np.ndarray], np.ndarray]] = None
    density_support: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        locs = [loc for loc, _ in self.atoms]
        if any(loc <= 0 for loc in locs):
            raise InvalidParameterError("atom locations must be strictly positive")
        if locs != sorted(locs):
            raise InvalidParameterError("atom locations must be sorted")

    def weighted_total_variation(self, d: int) -> float:
        """integral_0^inf r^{d-1} d|nu|(r); atoms contribute exactly."""
        total = sum(loc ** (d - 1) * abs(mass) for loc, mass in self.atoms)
        if self.density is not None:
            a, b = self.density_support
            val, _ = quad(lambda r: abs(self.density(np.array([r]))[0]) * r ** (d - 1),
                          a, b, limit=200)
            total += val
        return total

    def weighted_tail(self, r: float, d: int) -> float:
        """integral_r^inf t^{d-1} d|nu|(t)."""
        total = sum(loc ** (d - 1) * abs(mass)
                    for loc, mass in self.atoms if loc >= r)
        if self.density is not None:
            a, b = self.density_support
            if b > r:
                val, _ = quad(lambda t: abs(self.density(np.array([t]))[0]) * t ** (d - 1),
                              max(a, r), b, limit=200)
                total += val
        return total

    def total_variation(self) -> float:
        return self.weighted_total_variation(1)


@dataclass(frozen=True)
class BVProfile:
    """A piecewise-C^1 function on R^+ with its derivative measure.

    ``breaks`` are the jump radii; ``pieces`` maps t in [break_i, break_{i+1})
    to values via the callable for that piece (vectorized).  The profile is
    zero beyond the last break unless a tail piece is given.
    """

    breaks: Tuple[float, ...]
    pieces: Tuple[Callable[[np.ndarray], np.ndarray], ...]
    derivative: RadonMeasure1D
    d: int = 2

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        edges = (0.0,) + self.breaks + (math.inf,)
        for i, piece in enumerate(self.pieces):
            mask = (r >= edges[i]) & (r < edges[i + 1])
            if np.any(mask):
                out[mask] = piece(r[mask])
        return out

    def value_left(self, r: float) -> float:
        """Left limit at r (the value governing the decay bound at a jump)."""
        edges = (0.0,) + self.breaks + (math.inf,)
        for i, piece in enumerate(self.pieces):
            if edges[i] < r <= edges[i + 1]:
                return float(piece(np.array([r]))[0])
        return 0.0

    def dilated(self, lam: float) -> "BVProfile":
        """g(./lam) with the derivative measure transported accordingly."""
        atoms = tuple((loc * lam, mass) for loc, mass in self.derivative.atoms)
        if self.derivative.density is None:
            dens, supp = None, (0.0, 0.0)
        else:
            base = self.derivative.density
            dens = lambda r: base(np.asarray(r) / lam) / lam
            supp = (self.derivative.density_support[0] * lam,
                    self.derivative.density_support[1] * lam)
        pieces = tuple((lambda p: (lambda r: p(np.asarray(r) / lam)))(p)
                       for p in self.pieces)
        return BVProfile(tuple(b * lam for b in self.breaks), pieces,
                         RadonMeasure1D(atoms, dens, supp), self.d)


def staircase(steps: Sequence[Tuple[float, float]], d: int = 2) -> BVProfile:
    """Right-continuous staircase from "(r1, a1), (r2, a2), ..." style steps.

    The value is a_i on [r_{i-1}, r_i) (r_0 = 0) and 0 beyond the last
    radius; the derivative measure has an atom at each r_i of mass
    a_{i+1} - a_i (with a_{n+1} = 0).
    """
    if not steps:
        raise InvalidParameterError("need at least one step")
    radii = [r for r, _ in steps]
    if radii != sorted(radii) or radii[0] <= 0:
        raise InvalidParameterError("step radii must be positive and increasing")
    values = [a for _, a in steps]
    atoms = []
    for i, r in enumerate(radii):
        nxt = values[i + 1] if i + 1 < len(values) else 0.0
        jump = nxt - values[i]
        if jump != 0.0:
            atoms.append((r, jump))
    pieces = tuple((lambda a: (lambda r: np.full_like(np.asarray(r, float), a)))(a)
                   for a in values) + ((lambda r: np.zeros_like(np.asarray(r, float))),)
    return BVProfile(tuple(radii), pieces, RadonMeasure1D(tuple(atoms)), d)


def parse_staircase(desc: str, d: int = 2) -> BVProfile:
    """Parse the descriptor format "steps:(r1,a1),(r2,a2),..."."""
    body = desc.strip()
    if body.startswith("steps:"):
        body = body[len("steps:"):]
    import re
    pairs = re.findall(r"\(([^,()]+),([^,()]+)\)", body)
    if not pairs:
        raise InvalidParameterError(f"cannot parse staircase descriptor {desc!r}")
    return staircase([(float(r), float(a)) for r, a in pairs], d=d)


def smooth_bump_bv(center: float, width: float, height: float = 1.0,
                   d: int = 2) -> BVProfile:
    """A C^1 bump profile as a BVProfile (no jumps; density derivative)."""
    if center - width <= 0:
        raise InvalidParameterError("bump must stay inside R^+")

    def val(r):
        u = (np.asarray(r, float) - center) / width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out

    def dens(r):
        r = np.asarray(r, float)
        u = (r - center) / width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = (height * np.exp(1.0 - 1.0 / (1.0 - ui ** 2))
                       * (-2.0 * ui / (1.0 - ui ** 2) ** 2) / width)
        return out

    support = (center - width, center + width)
    return BVProfile((center + width,), (val, lambda r: np.zeros_like(np.asarray(r, float))),
                     RadonMeasure1D((), dens, support), d)


def bv_weighted_norm(g: BVProfile, d: Optional[int] = None) -> float:
    """||g | L_1(R^+, t^{d-1})|| + integral_0^inf r^{d-1} d|nu|(r)."""
    d = d if d is not None else g.d
    edges = (0.0,) + g.breaks
    l1 = 0.0
    for i, piece in enumerate(g.pieces):
        a = edges[i]
        b = g.breaks[i] if i < len(g.breaks) else math.inf
        if math.isinf(b):
            probe = piece(np.array([a + 1.0, a + 10.0, a + 100.0]))
            if np.any(np.abs(probe) > 0):
                raise DivergenceError("profile does not vanish near infinity")
            break
        val, _ = quad(lambda r: abs(piece(np.array([r]))[0]) * r ** (d - 1),
                      a, b, limit=200)
        l1 += val
    return l1 + g.derivative.weighted_total_variation(d)


def bv_dim_norm(g: BVProfile, d: Optional[int] = None) -> float:
    """The BV(R^d) norm of ext g by the exact radial reduction.

    L_1 part: omega_{d-1} * integral |g| t^{d-1} dt.  Variation part
    (isotropic total variation of the gradient measure): a jump of height J
    at radius r contributes the sphere surface area omega_{d-1} r^{d-1} |J|;
    smooth parts contribute omega_{d-1} integral |g'| t^{d-1} dt (for an
    indicator this is exactly the perimeter).
    """
    d = d if d is not None else g.d
    edges = (0.0,) + g.breaks
    l1 = 0.0
    for i, piece in enumerate(g.pieces):
        a = edges[i]
        b = g.breaks[i] if i < len(g.breaks) else math.inf
        if math.isinf(b):
            break
        val, _ = quad(lambda r: abs(piece(np.array([r]))[0]) * r ** (d - 1),
                      a, b, limit=200)
        l1 += val
    variation = g.derivative.weighted_total_variation(d)
    return sphere_area(d) * (l1 + variation)


@dataclass(frozen=True)
class BVEquivalenceReport:
    dim_norm: float
    weighted_norm: float

    @property
    def ratio(self) -> float:
        if self.dim_norm == 0.0 and self.weighted_norm == 0.0:
            return 1.0
        return self.dim_norm / self.weighted_norm


def bv_equivalence_check(g: BVProfile, d: Optional[int] = None) -> BVEquivalenceReport:
    """Ratio of the d-dimensional BV norm of ext g to the weighted 1-D norm.

    The two are equivalent norms; the ratio must stay within a fixed bracket
    and is exactly dilation invariant (both sides scale identically).
    """
    d = d if d is not None else g.d
    if d not in (2, 3):
        raise InvalidParameterError("BV equivalence implemented for d in {2, 3}")
    return BVEquivalenceReport(bv_dim_norm(g, d), bv_weighted_norm(g, d))


@dataclass(frozen=True)
class BVDecayReport:
    radii: np.ndarray
    lhs: np.ndarray              # r^{d-1} |g(r)| at the requested radii
    tail_bound: np.ndarray       # integral_r^inf t^{d-1} d|nu|
    norm: float

    @property
    def holds_with_tail(self) -> bool:
        return bool(np.all(self.lhs <= self.tail_bound * (1.0 + 1e-12)))

    @property
    def max_ratio_to_norm(self) -> float:
        return float(np.max(self.lhs) / self.norm) if self.norm > 0 else 0.0


def bv_decay_check(g: BVProfile, radii: Sequence[float],
                   d: Optional[int] = None) -> BVDecayReport:
    """Check r^{d-1} |g(r)| <= integral_r^inf t^{d-1} d|nu| at the given radii.

    Values at jump radii use the left limit (the Lebesgue-point
    representative just inside the jump), which is the extremal case.
    """
    d = d if d is not None else g.d
    radii = np.asarray(sorted(radii), dtype=float)
    lhs = np.array([r ** (d - 1) * abs(g.value_left(r)) for r in radii])
    tails = np.array([g.derivative.weighted_tail(r, d) for r in radii])
    return BVDecayReport(radii, lhs, tails, bv_weighted_norm(g, d))


def _test_functions_c1c() -> List[Tuple[Callable, Callable, float]]:
    """Twelve C^1_c([0, inf)) test functions phi with phi(0) = 0, and phi'.

    Each is t * (polynomial) * smooth window; returned as (phi, phi', outer
    support radius).
    """
    from .bump import smoothstep

    out = []
    for m in range(1, 5):
        for b in (1.0, 2.0, 4.0):
            def phi(t, m=m, b=b):
                t = np.asarray(t, float)
                win = smoothstep((b - t) / (0.5 * b))
                return t ** m * win

            def dphi(t, phi=phi, eps=1e-6):
                t = np.asarray(t, float)
                return (phi(t + eps) - phi(np.maximum(t - eps, 0.0))) / (2 * eps)

            out.append((phi, dphi, b))
    return out


def pairing_identity_residuals(g: BVProfile, d: Optional[int] = None) -> np.ndarray:
    """Residuals of int g(t) [phi(s) s^{d-1}]'(t) dt = -int phi t^{d-1} dnu.

    Evaluated against the fixed family of 12 C^1_c test functions; for a
    valid (profile, measure) pair all residuals are below 1e-6 relative.
    """
    d = d if d is not None else g.d
    res = []
    atol = 1e-3 * (1.0 + bv_weighted_norm(g, d))
    for phi, dphi, b in _test_functions_c1c():
        def integrand(t):
            tt = np.array([t])
            return float(g(tt)[0] * (dphi(tt)[0] * t ** (d - 1)
                                     + phi(tt)[0] * (d - 1) * t ** (d - 2)))

        lhs, _ = quad(integrand, 0.0, b, limit=400,
                      points=[br for br in g.breaks if br < b])
        rhs = -sum(phi(np.array([loc]))[0] * loc ** (d - 1) * mass
                   for loc, mass in g.derivative.atoms)
        if g.derivative.density is not None:
            a0, b0 = g.derivative.density_support
            val, _ = quad(lambda t: phi(np.array([t]))[0] * t ** (d - 1)
                          * g.derivative.density(np.array([t]))[0],
                          a0, min(b0, b), limit=400)
            rhs -= val
        scale = max(abs(lhs), abs(rhs), atol)
        res.append((lhs - rhs) / scale)
    return np.array(res)
