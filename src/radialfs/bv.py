"""Weighted BV on the half-line, the BV trace equivalence, and the decay bound.

The supported profile class is piecewise-C^1 with finitely many jumps
(staircases, smooth bumps, and their sums); the derivative is a signed Radon
measure with atoms at the jump radii plus an absolutely continuous density.
The d-dimensional BV norm of the radial extension of a piecewise-smooth
profile is computed by the exact reduction (jump spheres contribute surface
area times jump height; smooth parts reduce to weighted 1-D integrals), not
by grid differencing.

Every integral is composite Gauss-Legendre (``quad``): panels start at the
piece breakpoints, each panel is integrated by an n- and a 2n-point rule
whose difference is its error estimate, and panels that miss their share of
the tolerance are halved until all pass (Davis & Rabinowitz, *Methods of
Numerical Integration*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import _gauss_legendre, sphere_area
from .errors import DivergenceError, InvalidParameterError, QuadratureError

__all__ = ["RadonMeasure1D", "BVProfile", "staircase", "smooth_bump_bv",
           "bv_weighted_norm", "bv_dim_norm", "bv_equivalence_check",
           "bv_decay_check", "pairing_identity_residuals",
           "BVEquivalenceReport", "BVDecayReport", "quad"]

QUAD_RTOL = 1e-10     # relative tolerance on the sum of |panel integrals|
_QUAD_N = 48          # coarse rule; the fine rule has 2 * _QUAD_N points
_QUAD_LEVELS = 40     # halvings before a panel is declared unconverged
_QUAD_MAX_PANELS = 4096  # open panels; bounds memory on an integrand that never converges


def quad(f: Callable[[np.ndarray], np.ndarray],
         edges: Sequence[float]) -> Tuple[float, float]:
    """Integral of the vectorised ``f`` over [edges[0], edges[-1]], and its estimate.

    One panel per pair of consecutive ``edges`` (put the integrand's jumps
    and kinks there).  Each panel keeps its 2n-point Gauss-Legendre value;
    |2n-point - n-point| is its error estimate, and it passes when that is at
    most QUAD_RTOL * (sum of |panel values|) * width / length, so the
    estimates of all panels add up to at most QUAD_RTOL times that sum.
    Failing panels are halved, all in one batch.  Raises QuadratureError when
    a panel still fails after ``_QUAD_LEVELS`` halvings (a jump or
    singularity inside a panel).  Panels of zero or negative width are dropped.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    lo, hi = lo[hi > lo], hi[hi > lo]
    length = float(hi.sum() - lo.sum())
    (u1, w1), (u2, w2) = _gauss_legendre(_QUAD_N), _gauss_legendre(2 * _QUAD_N)
    u = np.concatenate([u1, u2])
    value = error = size = 0.0
    level, left = 0, math.inf
    while lo.size:
        if level == _QUAD_LEVELS or lo.size > _QUAD_MAX_PANELS:
            raise QuadratureError(
                f"composite Gauss-Legendre on [{edges[0]:g}, {edges[-1]:g}]: "
                f"estimate {left:.3g} on {lo.size} panels still above rtol "
                f"{QUAD_RTOL:g} after {level} halvings")
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = np.asarray(f((mid[:, None] + half[:, None] * u).ravel()), dtype=float)
        fx = fx.reshape(lo.size, u.size)
        fine = half * (fx[:, _QUAD_N:] @ w2)
        err = np.abs(fine - half * (fx[:, :_QUAD_N] @ w1))
        ok = err <= QUAD_RTOL * (size + np.abs(fine).sum()) * (2.0 * half) / length
        value += float(fine[ok].sum())
        error += float(err[ok].sum())
        size += float(np.abs(fine[ok]).sum())
        left = float(err[~ok].sum())
        lo, mid, hi = lo[~ok], mid[~ok], hi[~ok]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        level += 1
    return value, error


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
        return self._tail(0.0, d)[0]

    def _tail(self, r: float, d: int) -> Tuple[float, float]:
        """integral_r^inf t^{d-1} d|nu|(t) and the quadrature estimate of its density part."""
        total = sum(loc ** (d - 1) * abs(mass)
                    for loc, mass in self.atoms if loc >= r)
        a, b = self.density_support
        if self.density is None or b <= r:
            return total, 0.0
        val, err = quad(lambda t: np.abs(self.density(t)) * t ** (d - 1), (max(a, r), b))
        return total + val, err


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

    def __call__(self, r) -> np.ndarray:
        return self._evaluate(r, left=False)

    def value_left(self, r) -> np.ndarray:
        """Left limit at r (the value governing the decay bound at a jump)."""
        return self._evaluate(r, left=True)

    def _evaluate(self, r, left: bool) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        edges = (0.0,) + self.breaks + (math.inf,)
        for i, piece in enumerate(self.pieces):
            lo, hi = edges[i], edges[i + 1]
            mask = (r > lo) & (r <= hi) if left else (r >= lo) & (r < hi)
            if np.any(mask):
                out[mask] = piece(r[mask])
        return out

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
                         RadonMeasure1D(atoms, dens, supp))


def staircase(steps: Sequence[Tuple[float, float]]) -> BVProfile:
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
    return BVProfile(tuple(radii), pieces, RadonMeasure1D(tuple(atoms)))


def smooth_bump_bv(center: float, width: float, height: float = 1.0) -> BVProfile:
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
                     RadonMeasure1D((), dens, support))


def _weighted_parts(g: BVProfile, d: int) -> Tuple[float, float, float]:
    """||g | L_1(R^+, t^{d-1})||, integral r^{d-1} d|nu|, and the larger estimate."""
    if len(g.pieces) > len(g.breaks):
        tail, last = g.pieces[len(g.breaks)], (g.breaks[-1] if g.breaks else 0.0)
        if np.any(np.abs(tail(last + np.array([1.0, 10.0, 100.0]))) > 0):
            raise DivergenceError("profile does not vanish near infinity")
    l1, l1_err = quad(lambda r: np.abs(g(r)) * r ** (d - 1), (0.0,) + g.breaks)
    variation, variation_err = g.derivative._tail(0.0, d)
    return l1, variation, max(l1_err, variation_err)


def bv_weighted_norm(g: BVProfile, d: int) -> float:
    """||g | L_1(R^+, t^{d-1})|| + integral_0^inf r^{d-1} d|nu|(r)."""
    l1, variation, _ = _weighted_parts(g, d)
    return l1 + variation


def bv_dim_norm(g: BVProfile, d: int) -> float:
    """The BV(R^d) norm of ext g by the exact radial reduction.

    L_1 part: omega_{d-1} * integral |g| t^{d-1} dt.  Variation part
    (isotropic total variation of the gradient measure): a jump of height J
    at radius r contributes the sphere surface area omega_{d-1} r^{d-1} |J|;
    smooth parts contribute omega_{d-1} integral |g'| t^{d-1} dt (for an
    indicator this is exactly the perimeter).
    """
    l1, variation, _ = _weighted_parts(g, d)
    return sphere_area(d) * (l1 + variation)


@dataclass(frozen=True)
class BVEquivalenceReport:
    dim_norm: float
    weighted_norm: float
    quad_error: float            # largest quadrature estimate among the integrals

    @property
    def ratio(self) -> float:
        if self.dim_norm == 0.0 and self.weighted_norm == 0.0:
            return 1.0
        return self.dim_norm / self.weighted_norm


def bv_equivalence_check(g: BVProfile, d: int) -> BVEquivalenceReport:
    """Ratio of the d-dimensional BV norm of ext g to the weighted 1-D norm.

    The two are equivalent norms; the ratio must stay within a fixed bracket
    and is exactly dilation invariant (both sides scale identically).
    """
    if d not in (2, 3):
        raise InvalidParameterError("BV equivalence implemented for d in {2, 3}")
    l1, variation, err = _weighted_parts(g, d)
    return BVEquivalenceReport(sphere_area(d) * (l1 + variation), l1 + variation, err)


@dataclass(frozen=True)
class BVDecayReport:
    radii: np.ndarray
    lhs: np.ndarray              # r^{d-1} |g(r)| at the requested radii
    tail_bound: np.ndarray       # integral_r^inf t^{d-1} d|nu|
    norm: float
    quad_error: float            # largest quadrature estimate among the integrals

    @property
    def holds_with_tail(self) -> bool:
        return bool(np.all(self.lhs <= self.tail_bound * (1.0 + 1e-12)))


def bv_decay_check(g: BVProfile, radii: Sequence[float], d: int) -> BVDecayReport:
    """Check r^{d-1} |g(r)| <= integral_r^inf t^{d-1} d|nu| at the given radii.

    Values at jump radii use the left limit (the Lebesgue-point
    representative just inside the jump), which is the extremal case.
    """
    radii = np.asarray(sorted(radii), dtype=float)
    lhs = radii ** (d - 1) * np.abs(g.value_left(radii))
    tails, tail_errs = np.array([g.derivative._tail(r, d) for r in radii]).reshape(-1, 2).T
    l1, variation, err = _weighted_parts(g, d)
    return BVDecayReport(radii, lhs, tails, l1 + variation,
                         max(err, float(tail_errs.max(initial=0.0))))


def _smoothstep_prime(u: np.ndarray) -> np.ndarray:
    """smoothstep'(u) = a c (u^-2 + (1-u)^-2) / (a + c)^2, a = e^{-1/u},
    c = e^{-1/(1-u)}; 0 off (0, 1).  a / u / u stays finite as u -> 0+."""
    out = np.zeros_like(u)
    inner = (u > 0.0) & (u < 1.0)
    ui = u[inner]
    a, c = np.exp(-1.0 / ui), np.exp(-1.0 / (1.0 - ui))
    out[inner] = (c * (a / ui / ui) + a * (c / (1.0 - ui) / (1.0 - ui))) / (a + c) ** 2
    return out


def _test_functions_c1c() -> List[Tuple[Callable, Callable, float]]:
    """Twelve C^1_c([0, inf)) test functions phi with phi(0) = 0, and phi'.

    Each is t^m * smoothstep((b - t) / (b/2)), m = 1..4, b in {1, 2, 4};
    returned as (phi, phi', outer support radius b), phi' in closed form.
    """
    from .bump import smoothstep

    out = []
    for m in range(1, 5):
        for b in (1.0, 2.0, 4.0):
            def phi(t, m=m, b=b):
                t = np.asarray(t, float)
                return t ** m * smoothstep((b - t) / (0.5 * b))

            def dphi(t, m=m, b=b):
                t = np.asarray(t, float)
                u = (b - t) / (0.5 * b)
                return (m * t ** (m - 1) * smoothstep(u)
                        - t ** m * _smoothstep_prime(u) * (2.0 / b))

            out.append((phi, dphi, b))
    return out


def pairing_identity_residuals(g: BVProfile, d: int) -> np.ndarray:
    """Residuals of int g(t) [phi(s) s^{d-1}]'(t) dt = -int phi t^{d-1} dnu.

    Evaluated against the fixed family of 12 C^1_c test functions, with
    their derivatives in closed form; for a valid (profile, measure) pair the
    residuals are quadrature error, below 1e-12 relative on the staircases
    and smooth bumps of the tests.
    """
    res = []
    atol = 1e-3 * (1.0 + bv_weighted_norm(g, d))
    locs, masses = np.array(g.derivative.atoms, dtype=float).reshape(-1, 2).T
    for phi, dphi, b in _test_functions_c1c():
        lhs, _ = quad(lambda t: g(t) * (dphi(t) * t ** (d - 1)
                                        + phi(t) * (d - 1) * t ** (d - 2)),
                      (0.0, *(br for br in g.breaks if br < b), b))
        rhs = -float(np.sum(phi(locs) * locs ** (d - 1) * masses))
        if g.derivative.density is not None:
            a0, b0 = g.derivative.density_support
            val, _ = quad(lambda t: phi(t) * t ** (d - 1) * g.derivative.density(t),
                          (a0, min(b0, b)))
            rhs -= val
        scale = max(abs(lhs), abs(rhs), atol)
        res.append((lhs - rhs) / scale)
    return np.array(res)
