"""Annular ball coverings of R^d, subordinate partitions of unity, and atoms.

The covering at level j consists of balls of diameter 12 * 2^{-j} centered on
the spheres |x| = 2^{-j}(k + 1/2) (a single ball at the origin for k = 0),
with C(d, k) <= (2k+1)^{d-1} centers per annulus and exact dyadic
self-similarity across levels.  The construction places centers by
equal-angle spacing (d = 2) or a Fibonacci spherical point set (d = 3) and
verifies coverage by seeded Monte-Carlo sampling; d >= 4 is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bump import bump
from .core import RadialProfile
from .errors import CoverageError, InvalidParameterError

__all__ = ["AnnularCovering", "PartitionOfUnity", "AtomSpec",
           "build_covering", "build_partition",
           "validate_even_atom", "validate_spL_atom",
           "AtomReport"]

BALL_DIAMETER_FACTOR = 12.0  # diam Omega_{j,k,l} = 12 * 2^{-j}
COVERAGE_MARGIN = 0.9        # require sampled points within 90% of the radius
COVERAGE_SAMPLES = 2000
COVERAGE_SEED = 20260810


def _circle_points(n: int, radius: float) -> np.ndarray:
    theta = 2.0 * math.pi * np.arange(n) / n
    return radius * np.column_stack([np.cos(theta), np.sin(theta)])


def _fibonacci_sphere(n: int, radius: float) -> np.ndarray:
    i = np.arange(n) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return radius * np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def _sample_annulus(rng, d: int, lo: float, hi: float, n: int) -> np.ndarray:
    """Uniform-in-radius samples of {lo <= |x| < hi} (adequate for coverage tests)."""
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = rng.uniform(lo, hi, size=n)
    return x * r[:, None]


@lru_cache(maxsize=None)
def _centers_level0(d: int, k: int) -> Tuple[np.ndarray, int]:
    """Level-0 centers for annulus k: smallest count passing coverage with margin."""
    if k == 0:
        return np.zeros((1, d)), 1
    radius_ball = BALL_DIAMETER_FACTOR / 2.0
    cap = (2 * k + 1) ** (d - 1)
    rng = np.random.default_rng(COVERAGE_SEED + 1009 * k + d)
    pts = _sample_annulus(rng, d, float(k), float(k + 1), COVERAGE_SAMPLES)
    rho = k + 0.5
    n = max(1, int(2.0 * math.pi * rho / radius_ball) if d == 2
            else int(2.0 * rho * rho / radius_ball))
    while n <= cap:
        centers = (_circle_points(n, rho) if d == 2 else _fibonacci_sphere(n, rho))
        dmin = np.min(np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2),
                      axis=1)
        if float(dmin.max()) <= COVERAGE_MARGIN * radius_ball:
            return centers, n
        n += 1
    raise CoverageError(f"no admissible center count for d={d}, k={k} (cap {cap})")


@dataclass(frozen=True)
class AnnularCovering:
    """The covering Omega_{j,k,l}; all levels are exact rescalings of level 0."""

    d: int
    J: int
    Kmax: int
    centers0: Dict[int, np.ndarray]   # level-0 centers per annulus k
    counts: Dict[int, int]            # C(d, k)
    K_axis: int                       # property (f) overlap constant

    def radius(self, j: int) -> float:
        return BALL_DIAMETER_FACTOR / 2.0 * 2.0 ** (-j)

    def diameter(self, j: int) -> float:
        return BALL_DIAMETER_FACTOR * 2.0 ** (-j)

    def centers(self, j: int, k: int) -> np.ndarray:
        """Centers x_{j,k,l}; property (e): level-0 centers scaled by 2^{-j}."""
        return self.centers0[k] * 2.0 ** (-j)

    def count(self, k: int) -> int:
        return self.counts[k]

    def balls(self, j: int):
        for k in range(self.Kmax + 1):
            for ell, c in enumerate(self.centers(j, k), start=1):
                yield k, ell, c

    def axis_first_order(self, j: int, k: int) -> np.ndarray:
        """Centers in the property-(f) enumeration (the stored order)."""
        return self.centers(j, k)

    def overlap_bound(self, j: int = 0, n_samples: int = 4000,
                      rng=None) -> int:
        """Max number of balls containing a sampled point (property (d))."""
        rng = np.random.default_rng(COVERAGE_SEED if rng is None else rng)
        T = (self.Kmax + 1) * 2.0 ** (-j)
        pts = rng.uniform(-T, T, size=(n_samples, self.d))
        worst = 0
        all_centers = np.concatenate([self.centers(j, k)
                                      for k in range(self.Kmax + 1)])
        r = self.radius(j)
        for i in range(0, n_samples, 512):
            blk = pts[i:i + 512]
            inside = (np.linalg.norm(blk[:, None, :] - all_centers[None, :, :],
                                     axis=2) < r)
            worst = max(worst, int(inside.sum(axis=1).max()))
        return worst

    def to_csv(self, path, level: Optional[int] = None) -> None:
        levels = range(self.J + 1) if level is None else [level]
        with open(path, "w") as fh:
            cols = ",".join(f"x{i+1}" for i in range(self.d))
            fh.write(f"j,k,ell,{cols},radius\n")
            for j in levels:
                for k, ell, c in self.balls(j):
                    coord = ",".join(f"{v!r}" for v in c)
                    fh.write(f"{j},{k},{ell},{coord},{self.radius(j)!r}\n")


def build_covering(d: int, J: int = 4, Kmax: int = 12) -> AnnularCovering:
    """Construct the covering; raises CoverageError if verification fails.

    The stored enumeration is the property-(f) one: within each annulus the
    balls whose inflated copies meet the x1-axis come first, so indices
    ell > K_axis never touch the axis tube, at every level.
    """
    if d not in (2, 3):
        raise InvalidParameterError("coverings implemented for d in {2, 3}")
    if J < 0 or Kmax < 1:
        raise InvalidParameterError("need J >= 0 and Kmax >= 1")
    centers0, counts = {}, {}
    K_axis = 0
    for k in range(Kmax + 1):
        c, n = _centers_level0(d, k)
        dist_axis = np.linalg.norm(c[:, 1:], axis=1)
        meets = dist_axis < 2.0 * BALL_DIAMETER_FACTOR
        order = np.argsort(~meets, kind="stable")
        centers0[k] = c[order]
        counts[k] = n
        K_axis = max(K_axis, int(meets.sum()))
    return AnnularCovering(d, J, Kmax, centers0, counts, K_axis)


@dataclass(frozen=True)
class PartitionOfUnity:
    """Shepard-normalized smooth bumps subordinate to a covering level.

    psi_{j,k,l} = w_{j,k,l} / sum w, with w a fixed C^inf template scaled to
    the ball; the sum of all psi is 1 wherever the covering covers.
    """

    covering: AnnularCovering
    L: int
    shrink: float = 1.0   # effective support radius = shrink * ball radius

    def _weights(self, j: int, x: np.ndarray) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        radius = self.covering.radius(j) * self.shrink
        ws, idx = [], []
        for k in range(self.covering.Kmax + 1):
            centers = self.covering.centers(j, k)
            dist = np.linalg.norm(x[:, None, :] - centers[None, :, :], axis=2)
            w = bump(dist / radius)
            for ell in range(centers.shape[0]):
                ws.append(w[:, ell])
                idx.append((k, ell + 1))
        return np.array(ws), idx

    def evaluate(self, j: int, x: np.ndarray) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
        """All psi_{j,k,l} at points x (batch API); rows align with the index list."""
        ws, idx = self._weights(j, x)
        total = ws.sum(axis=0)
        if np.any(total < 1e-8):
            raise CoverageError("partition sum below 1e-8 (coverage hole)")
        return ws / total, idx

    def sum_at(self, j: int, x: np.ndarray) -> np.ndarray:
        vals, _ = self.evaluate(j, x)
        return vals.sum(axis=0)

    def single(self, j: int, k: int, ell: int, x: np.ndarray) -> np.ndarray:
        vals, idx = self.evaluate(j, x)
        return vals[idx.index((k, ell))]

    def derivative_constant(self, order: int = 1, k: int = 2,
                            ell: int = 1) -> float:
        """The constant C_L with sampled |D^alpha psi| <= C_L 2^{j|alpha|}.

        Measured once at level 0 (any level gives the same value by exact
        self-similarity); only first-order sampling is implemented.
        """
        if order != 1:
            raise InvalidParameterError("sampled bound implemented for order 1")
        return self.gradient_sup(0, k, ell)

    def gradient_sup(self, j: int, k: int, ell: int, n_samples: int = 600,
                     step: float = None, rng=None) -> float:
        """Sampled max |grad psi_{j,k,l}| (finite differences)."""
        rng = np.random.default_rng(41 if rng is None else rng)
        c = self.covering.centers(j, k)[ell - 1]
        r = self.covering.radius(j)
        pts = c + rng.uniform(-r, r, size=(n_samples, self.covering.d))
        if step is None:
            step = 1e-5 * 2.0 ** (-j)
        worst = 0.0
        for axis in range(self.covering.d):
            e = np.zeros(self.covering.d)
            e[axis] = step
            dv = (self.single(j, k, ell, pts + e) - self.single(j, k, ell, pts - e)) \
                / (2 * step)
            worst = max(worst, float(np.abs(dv).max()))
        return worst


def build_partition(cov: AnnularCovering, L: int = 2) -> PartitionOfUnity:
    return PartitionOfUnity(cov, L)


def _admissible_orders(s: float, sigma: float) -> Tuple[int, int]:
    """Least admissible (L, M) at smoothness s and threshold sigma."""
    return max(0, math.floor(s) + 1), max(math.floor(sigma - s), -1)


@dataclass(frozen=True)
class AtomSpec:
    """Regularity/moment orders (L, M) with the space parameters they serve."""

    L: int
    M: int
    s: float
    p: float
    flavor: str = "even-1D"   # {"even-1D", "oneL", "spLM"}

    def __post_init__(self):
        if self.L < 0 or self.M < -1:
            raise InvalidParameterError("need L >= 0 and M >= -1")

    @staticmethod
    def b_admissible(s: float, p: float, d: int, q: float = None) -> "AtomSpec":
        from .spaces import sigma_p
        return AtomSpec(*_admissible_orders(s, sigma_p(p, d)), s, p, flavor="even-1D")

    @staticmethod
    def f_admissible(s: float, p: float, q: float, d: int) -> "AtomSpec":
        from .spaces import sigma_pq
        return AtomSpec(*_admissible_orders(s, sigma_pq(p, q, d)), s, p, flavor="even-1D")

    def require_admissible(self, s: float, p: float, sigma: float) -> None:
        """Raise unless (L, M) meet the orders at s and threshold sigma.

        sigma is sigma_p(p, d) on the B scale and sigma_pq(p, q, d) on the F scale.
        """
        L, M = _admissible_orders(s, sigma)
        if self.L < L:
            raise InvalidParameterError(
                f"L = {self.L} below the required [s]+1 = {math.floor(s) + 1}")
        if self.M < M:
            raise InvalidParameterError(
                f"M = {self.M} below the required moment order at s={s}, p={p}")


@dataclass(frozen=True)
class AtomReport:
    ok: bool
    max_violation: float
    detail: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def _profile_derivatives(g: RadialProfile, L: int) -> List[np.ndarray]:
    t = g.grid.nodes
    derivs = [g.values]
    cur = g.values
    for _ in range(L):
        cur = np.gradient(cur, t)
        derivs.append(cur)
    return derivs


def validate_even_atom(g: RadialProfile, interval, L: int,
                       tol_factor: float = 1.0) -> AtomReport:
    """Check the even L-atom conditions against interval descriptor ``interval``.

    ``interval`` is (a,) for [-a, a] or (a, b) for [-b,-a] u [a,b].  Verifies
    sup |g^{(n)}| <= tol_factor * |I|^{-n} for 0 <= n <= L (finite
    differences) and the 3/2-dilated support inclusion; returns a report with
    the worst ratio violation per order.
    """
    t = g.grid.nodes
    if len(interval) == 1:
        a = float(interval[0])
        length = 2.0 * a
        supp_ok = np.abs(t) <= 1.5 * a
    else:
        a, b = float(interval[0]), float(interval[1])
        if not 0 < a < b:
            raise InvalidParameterError("need 0 < a < b")
        length = 2.0 * (b - a)
        lo, hi = (3 * a - b) / 2.0, (3 * b - a) / 2.0
        supp_ok = (np.abs(t) >= lo) & (np.abs(t) <= hi)
    support_violation = float(np.max(np.abs(g.values[~supp_ok]), initial=0.0))
    derivs = _profile_derivatives(g, L)
    ratios = {}
    worst = support_violation / max(1e-300, tol_factor)
    for n, dv in enumerate(derivs):
        bound = length ** (-n)
        ratio = float(np.max(np.abs(dv))) / bound
        ratios[n] = ratio
        worst = max(worst, ratio / tol_factor - 1.0)
    ok = support_violation <= 1e-12 and all(
        r <= tol_factor * (1.0 + 1e-6) for r in ratios.values())
    return AtomReport(ok, worst, {"ratios": ratios,
                                  "support_violation": support_violation})


def validate_spL_atom(values: np.ndarray, axes: List[np.ndarray],
                      center: np.ndarray, ball_radius: float,
                      spec: AtomSpec, d_moment_tol: float = 1e-6) -> AtomReport:
    """Check the (s,p)_{L,M}-atom conditions for a tensor-grid sample.

    ``values`` is sampled on the tensor grid given by ``axes`` (one array per
    dimension); the atom is centered in the ball Q = B(center, ball_radius)
    of diameter r = 2 * ball_radius.  Checks support within the
    r/2-neighborhood of Q, derivative bounds r^{s-|alpha|-d/p} for |alpha| <=
    L along the axes, and vanishing moments up to order M (skipped for
    M = -1).
    """
    d = len(axes)
    r = 2.0 * ball_radius
    mesh = np.meshgrid(*axes, indexing="ij")
    dist = np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, center)))
    outside = dist > ball_radius + r / 2.0
    support_violation = float(np.max(np.abs(values[outside]), initial=0.0))

    detail = {"support_violation": support_violation}
    ok = support_violation <= 1e-12
    sup_bound0 = r ** (spec.s - d / spec.p)
    cur = {(): values}
    worst = support_violation
    for order in range(spec.L + 1):
        bound = r ** (spec.s - order - d / spec.p)
        sup = max(float(np.max(np.abs(v))) for v in cur.values())
        detail[f"sup_order_{order}"] = sup
        if sup > bound * (1 + 1e-6):
            ok = False
            worst = max(worst, sup / bound - 1.0)
        if order == spec.L:
            break
        nxt = {}
        for alpha, v in cur.items():
            for axis in range(d):
                nxt[alpha + (axis,)] = np.gradient(v, axes[axis], axis=axis)
        cur = nxt

    if spec.M >= 0:
        weights = [np.gradient(ax) for ax in axes]  # trapezoid-ish cell sizes
        wmesh = np.meshgrid(*weights, indexing="ij")
        cell = np.prod(np.stack(wmesh), axis=0)
        vol_q = (math.pi ** (d / 2) / math.gamma(d / 2 + 1)) * ball_radius ** d
        tol = d_moment_tol * sup_bound0 * vol_q
        from itertools import product
        for alpha in product(range(spec.M + 1), repeat=d):
            if sum(alpha) > spec.M:
                continue
            mono = np.ones_like(values)
            for axis, a in enumerate(alpha):
                if a:
                    mono = mono * mesh[axis] ** a
            mom = float(np.sum(values * mono * cell))
            detail[f"moment_{alpha}"] = mom
            if abs(mom) > tol:
                ok = False
                worst = max(worst, abs(mom) / tol)
    return AtomReport(ok, worst, detail)
