"""Weighted BV on the half-line, the d-dimensional BV norm, and the decay bound.

The supported profile class is piecewise-C^1 with finitely many jumps
(staircases, and smooth pieces); the derivative is a signed Radon measure
with atoms at the jump radii plus an absolutely continuous density.
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
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .core import _gauss_legendre, sphere_area
from .errors import DivergenceError, InvalidParameterError, QuadratureError
from .spaces import _check_dim

__all__ = ["RadonMeasure1D", "BVProfile", "staircase", "bv_weighted_norm",
           "bv_dim_norm", "bv_decay_check", "BVDecayReport", "quad"]

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
    """Atoms (finite location > 0, finite signed mass; locations strictly
    increasing) plus an absolutely continuous density on the finite
    ``density_support`` [a, b], a <= b."""

    atoms: Tuple[Tuple[float, float], ...] = ()
    density: Optional[Callable[[np.ndarray], np.ndarray]] = None
    density_support: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        # a NaN passes every comparison below as False
        if not all(math.isfinite(loc) and math.isfinite(mass)
                   for loc, mass in self.atoms):
            raise InvalidParameterError("atom locations and masses must be finite")
        if self.density is not None:
            a, b = self.density_support
            if not (math.isfinite(a) and math.isfinite(b) and a <= b):
                raise InvalidParameterError(
                    f"the density needs a finite support a <= b, got "
                    f"{self.density_support}")
        locs = [loc for loc, _ in self.atoms]
        if any(loc <= 0 for loc in locs):
            raise InvalidParameterError("atom locations must be strictly positive")
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise InvalidParameterError("atom locations must be strictly increasing")

    def _tail(self, r: float, d: int) -> float:
        """integral_r^inf t^{d-1} d|nu|(t); atoms contribute exactly."""
        total = sum(loc ** (d - 1) * abs(mass)
                    for loc, mass in self.atoms if loc >= r)
        a, b = self.density_support
        if self.density is None or b <= r:
            return total
        return total + quad(lambda t: np.abs(self.density(t)) * t ** (d - 1),
                            (max(a, r), b))[0]


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


def staircase(steps: Sequence[Tuple[float, float]]) -> BVProfile:
    """Right-continuous staircase from "(r1, a1), (r2, a2), ..." style steps.

    The radii must be positive and strictly increasing.  The value is a_i
    on [r_{i-1}, r_i) (r_0 = 0) and 0 beyond the last radius; the
    derivative measure has an atom at each r_i of mass
    a_{i+1} - a_i (with a_{n+1} = 0).
    """
    if not steps:
        raise InvalidParameterError("need at least one step")
    if not all(math.isfinite(r) and math.isfinite(a) for r, a in steps):
        raise InvalidParameterError("step radii and values must be finite")
    radii = [r for r, _ in steps]
    if radii[0] <= 0 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise InvalidParameterError(
            "step radii must be positive and strictly increasing")
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


def _check_vanishes(g: BVProfile) -> None:
    """Raise DivergenceError when g's tail piece is nonzero far out."""
    if len(g.pieces) > len(g.breaks):
        tail, last = g.pieces[len(g.breaks)], (g.breaks[-1] if g.breaks else 0.0)
        if np.any(np.abs(tail(last + np.array([1.0, 10.0, 100.0]))) > 0):
            raise DivergenceError("profile does not vanish near infinity")


def _weighted_parts(g: BVProfile, d: int) -> Tuple[float, float]:
    """||g | L_1(R^+, t^{d-1})|| and integral r^{d-1} d|nu|."""
    _check_dim(d)
    _check_vanishes(g)
    l1, _ = quad(lambda r: np.abs(g(r)) * r ** (d - 1), (0.0,) + g.breaks)
    return l1, g.derivative._tail(0.0, d)


def bv_weighted_norm(g: BVProfile, d: int) -> float:
    """||g | L_1(R^+, t^{d-1})|| + integral_0^inf r^{d-1} d|nu|(r)."""
    return sum(_weighted_parts(g, d))


def bv_dim_norm(g: BVProfile, d: int) -> float:
    """The BV(R^d) norm of ext g by the exact radial reduction.

    L_1 part: omega_{d-1} * integral |g| t^{d-1} dt.  Variation part
    (isotropic total variation of the gradient measure): a jump of height J
    at radius r contributes the sphere surface area omega_{d-1} r^{d-1} |J|;
    smooth parts contribute omega_{d-1} integral |g'| t^{d-1} dt (for an
    indicator this is exactly the perimeter).
    """
    return sphere_area(d) * sum(_weighted_parts(g, d))


@dataclass(frozen=True)
class BVDecayReport:
    radii: np.ndarray
    lhs: np.ndarray              # r^{d-1} |g(r)| at the requested radii
    tail_bound: np.ndarray       # integral_r^inf t^{d-1} d|nu|


def bv_decay_check(g: BVProfile, radii: Sequence[float], d: int) -> BVDecayReport:
    """Check r^{d-1} |g(r)| <= integral_r^inf t^{d-1} d|nu| at the given radii.

    Values at jump radii use the left limit (the Lebesgue-point
    representative just inside the jump), which is the extremal case.
    """
    _check_dim(d)
    radii = np.asarray(sorted(radii), dtype=float)
    lhs = radii ** (d - 1) * np.abs(g.value_left(radii))
    _check_vanishes(g)
    tails = np.array([g.derivative._tail(r, d) for r in radii])
    return BVDecayReport(radii, lhs, tails)

