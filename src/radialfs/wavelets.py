"""Compactly supported orthonormal wavelets and the spherical-mean experiment.

The scaling function is built by cascade refinement from tabulated filter
coefficients down to resolution 2^{-10}; tensor products give the 2^d - 1
generators used in d dimensions.  The experiment computes the coefficients
of the unit-sphere surface measure against all wavelets meeting the sphere,
by circle quadrature (d = 2) or a Gauss-Legendre x trapezoid product rule
(d = 3), and returns the scaled per-level sums whose boundedness encodes the
membership of the spherical mean in B^{1/p - 1}_{p, infinity}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .errors import InvalidParameterError, QuadratureError

__all__ = ["daubechies_filter", "WaveletTable", "wavelet_table",
           "SphericalMeanResult", "spherical_mean_wavelet_coeffs"]

# Daubechies lowpass filters, normalized so sum h = sqrt(2).
_DB_FILTERS: Dict[str, List[float]] = {
    "db2": [0.48296291314469025, 0.836516303737469,
            0.22414386804185735, -0.12940952255092145],
    "db4": [0.23037781330885523, 0.7148465705525415, 0.6308807679295904,
            -0.02798376941698385, -0.18703481171888114, 0.030841381835986965,
            0.032883011666982945, -0.010597401784997278],
    "db6": [0.11154074335008017, 0.4946238903983854, 0.7511339080215775,
            0.3152503517092432, -0.22626469396516913, -0.12976686756709563,
            0.09750160558707936, 0.02752286553001629, -0.031582039318031156,
            0.0005538422009938016, 0.004777257511010651,
            -0.001077301085308479],
}


def daubechies_filter(name: str) -> np.ndarray:
    if name not in _DB_FILTERS:
        raise InvalidParameterError(
            f"unknown wavelet {name!r}; have {sorted(_DB_FILTERS)}")
    return np.asarray(_DB_FILTERS[name])


@dataclass(frozen=True)
class WaveletTable:
    """phi and psi sampled on a dyadic grid over the common support [0, n-1]."""

    name: str
    step: float
    grid: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    def eval_phi(self, x) -> np.ndarray:
        return np.interp(x, self.grid, self.phi, left=0.0, right=0.0)

    def eval_psi(self, x) -> np.ndarray:
        return np.interp(x, self.grid, self.psi, left=0.0, right=0.0)

    @property
    def support(self) -> Tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])


@lru_cache(maxsize=None)
def wavelet_table(name: str = "db6", levels: int = 10) -> WaveletTable:
    """Cascade refinement of the two-scale relation to resolution 2^{-levels}.

    phi at the integers is the eigenvector (eigenvalue 1) of the filter
    matrix; each cascade pass evaluates phi(x) = sqrt(2) sum_k h_k phi(2x-k)
    on the half-step grid, where 2x - k lands exactly on existing nodes.
    """
    h = daubechies_filter(name)
    n = h.size
    nn = n - 2
    m = np.zeros((nn, nn))
    for i in range(nn):
        for j in range(nn):
            k = 2 * (i + 1) - (j + 1)
            if 0 <= k < n:
                m[i, j] = math.sqrt(2.0) * h[k]
    w, v = np.linalg.eig(m)
    phi_int = np.real(v[:, int(np.argmin(np.abs(w - 1.0)))])
    phi_int /= phi_int.sum()

    grid = np.arange(n, dtype=float)
    phi = np.zeros(n)
    phi[1:n - 1] = phi_int
    for _ in range(levels):
        step = (grid[1] - grid[0]) / 2.0
        grid_new = np.arange(grid.size * 2 - 1, dtype=float) * step
        phi_new = np.zeros_like(grid_new)
        for k in range(n):
            phi_new += math.sqrt(2.0) * h[k] * np.interp(
                2.0 * grid_new - k, grid, phi, left=0.0, right=0.0)
        grid, phi = grid_new, phi_new

    g = np.array([(-1) ** k * h[n - 1 - k] for k in range(n)])
    psi = np.zeros_like(grid)
    for k in range(n):
        psi += math.sqrt(2.0) * g[k] * np.interp(
            2.0 * grid - k, grid, phi, left=0.0, right=0.0)
    return WaveletTable(name, float(grid[1] - grid[0]), grid, phi, psi)


def _generators(d: int) -> List[Tuple[bool, ...]]:
    """Per-axis psi flags for the 2^d - 1 tensor generators (all-phi excluded)."""
    out = []
    for i in range(1, 2 ** d):
        out.append(tuple(bool((i >> axis) & 1) for axis in range(d)))
    return out


@lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per n."""
    u, wu = np.polynomial.legendre.leggauss(n)
    u.flags.writeable = False
    wu.flags.writeable = False
    return u, wu


def _sphere_nodes(d: int, n: int):
    """Quadrature nodes and weights for the unit-sphere surface measure."""
    if d == 2:
        theta = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        w = np.full(n, 2.0 * math.pi / n)
        return pts, w
    if d == 3:
        n_u = max(8, int(math.sqrt(n / 2.0)))
        n_t = 2 * n_u
        u, wu = _gauss_legendre(n_u)
        theta = 2.0 * math.pi * (np.arange(n_t) + 0.5) / n_t
        ct, st = np.cos(theta), np.sin(theta)
        su = np.sqrt(1.0 - u ** 2)
        pts = np.empty((n_u * n_t, 3))
        w = np.empty(n_u * n_t)
        for i in range(n_u):
            sl = slice(i * n_t, (i + 1) * n_t)
            pts[sl, 0] = su[i] * ct
            pts[sl, 1] = su[i] * st
            pts[sl, 2] = u[i]
            w[sl] = wu[i] * (2.0 * math.pi / n_t)
        return pts, w
    raise InvalidParameterError("sphere quadrature implemented for d in {2, 3}")


def _level_coeffs(table: WaveletTable, d: int, j: int, n_nodes: int) -> np.ndarray:
    """All <surface measure, Psi_{i,j,k}> for one level, flattened over (i, k).

    The output is generator-major (the order of ``_generators``); each block
    is C-ordered over the k-box [k_min[0], k_max[0]] x ... x [k_min[d-1],
    k_max[d-1]] that holds the support window of every node.

    Nodes go in chunks of 20000.  Nothing a chunk shares among the 2^d - 1
    generators is computed per generator:

    * per axis, the ``width`` shifts kk of each node and the offsets
      x = 2^j u - kk, so phi(x) and psi(x) are tabulated once per axis
      (2d interpolations per chunk, not d (2^d - 1));
    * one C-order flat index into the k-box, built from the per-axis
      offsets kk - k_min.

    Each generator multiplies its factors into one reused buffer in a fixed
    order (axis 0, ..., axis d-1, node weight, 2^{jd/2}) and scatters the
    buffer into its own block with a 1-D ``np.add.at``.  That call is
    unbuffered and adds the values in array order, as a d-tuple index over
    the same box does, so every coefficient receives the same terms in the
    same order and the sums are bit-for-bit those of a d-dimensional
    scatter per generator.
    """
    pts, w = _sphere_nodes(d, n_nodes)
    u = pts * 2.0 ** j
    lo, hi = table.support
    width = int(math.ceil(hi - lo)) + 1
    norm_fac = 2.0 ** (j * d / 2.0)
    offs = np.arange(width)
    gens = _generators(d)
    k_min = [int(math.floor(u[:, ax].min() - hi)) for ax in range(d)]
    k_max = [int(math.ceil(u[:, ax].max() - lo)) for ax in range(d)]
    shape = tuple(k_max[ax] - k_min[ax] + 1 for ax in range(d))
    acc = np.zeros((len(gens), math.prod(shape)))
    # index placing a (nodes, width) table along axis ax of (nodes, width^d)
    views = [(slice(None),) + tuple(slice(None) if a == ax else None
                                    for a in range(d)) for ax in range(d)]
    chunk = 20000
    for start in range(0, u.shape[0], chunk):
        ub = u[start:start + chunk]
        wb = w[start:start + chunk]
        m = ub.shape[0]
        tabs, flat = [], None
        for ax in range(d):
            base = np.ceil(ub[:, ax] - hi).astype(int)
            kk = base[:, None] + offs[None, :]
            xx = (ub[:, ax, None] - kk).ravel()
            tabs.append((table.eval_phi(xx).reshape(m, width),
                         table.eval_psi(xx).reshape(m, width)))
            idx = np.clip(kk - k_min[ax], 0, shape[ax] - 1)[views[ax]]
            flat = idx if flat is None else flat * shape[ax] + idx
        flat = flat.ravel()
        wb = wb[(slice(None),) + (None,) * d]
        buf = np.empty((m,) + (width,) * d)
        for g, flags in enumerate(gens):
            f = [tabs[ax][int(flags[ax])][views[ax]] for ax in range(d)]
            # the leading d-1 factors span only width^(d-1) entries per node
            lead = f[0]
            for ax in range(1, d - 1):
                lead = lead * f[ax]
            np.multiply(lead, f[-1], out=buf)
            buf *= wb
            buf *= norm_fac
            np.add.at(acc[g], flat, buf.ravel())
    return acc.ravel()


def _support_count(table: WaveletTable, d: int, j: int) -> int:
    """Number of (i, k) whose support box meets the unit sphere."""
    lo, hi = table.support
    scale = 2.0 ** (-j)
    kmin = int(math.floor(-1.0 / scale - hi)) - 1
    kmax = int(math.ceil(1.0 / scale - lo)) + 1
    ranges = [np.arange(kmin, kmax + 1)] * d
    grids = np.meshgrid(*ranges, indexing="ij")
    min_sq = np.zeros_like(grids[0], dtype=float)
    max_sq = np.zeros_like(grids[0], dtype=float)
    for ax in range(d):
        a = (grids[ax] + lo) * scale
        b = (grids[ax] + hi) * scale
        min_ax = np.where((a <= 0) & (b >= 0), 0.0,
                          np.minimum(np.abs(a), np.abs(b)))
        min_sq += min_ax ** 2
        max_sq += np.maximum(np.abs(a), np.abs(b)) ** 2
    meets = int(((min_sq <= 1.0) & (max_sq >= 1.0)).sum())
    return meets * (2 ** d - 1)


@dataclass(frozen=True)
class SphericalMeanResult:
    p: float
    d: int
    levels: np.ndarray
    scaled_sums: np.ndarray       # 2^{j(1/p-1+d(1/2-1/p))} (sum |<f,Psi>|^p)^{1/p}
    counts: np.ndarray            # wavelets whose support meets the sphere
    max_coeff: np.ndarray
    quad_error: np.ndarray        # Richardson estimates per level

    def boundedness_ratio(self) -> float:
        return float(self.scaled_sums.max() / self.scaled_sums[0])

    def count_growth_band(self) -> float:
        """max/min of counts normalized by 2^{j(d-1)}."""
        norm = self.counts / 2.0 ** (self.levels * (self.d - 1))
        return float(norm.max() / norm.min())


def spherical_mean_wavelet_coeffs(d: int = 2, p: float = 1.0, Jmax: int = 6,
                                  wavelet: str = "db6",
                                  nodes_per_unit: int = 3000,
                                  richardson_tol: float = 1e-6) -> SphericalMeanResult:
    """Scaled ell_p sums of sphere-measure wavelet coefficients per level.

    The scaling exponent is j(1/p - 1 + d(1/2 - 1/p)); uniform boundedness
    over j is the numerical content of the spherical mean lying in
    B^{1/p-1}_{p,inf}.  Raises QuadratureError when the Richardson estimate
    between the two node counts exceeds ``richardson_tol`` relatively.
    """
    if d not in (2, 3):
        raise InvalidParameterError("d must be 2 or 3")
    table = wavelet_table(wavelet)
    exponent = 1.0 / p - 1.0 + d * (0.5 - 1.0 / p)
    levels = np.arange(Jmax + 1)
    sums = np.empty(Jmax + 1)
    counts = np.empty(Jmax + 1, dtype=int)
    maxc = np.empty(Jmax + 1)
    qerr = np.empty(Jmax + 1)
    for j in levels:
        n = int(nodes_per_unit * 2 ** j) if d == 2 else int(nodes_per_unit * 4 ** j)
        c_fine = _level_coeffs(table, d, j, n)
        c_coarse = _level_coeffs(table, d, j, max(64, n // 2))
        lp_fine = float(np.sum(np.abs(c_fine) ** p) ** (1.0 / p))
        lp_coarse = float(np.sum(np.abs(c_coarse) ** p) ** (1.0 / p))
        rel = abs(lp_fine - lp_coarse) / max(lp_fine, 1e-300)
        if rel > richardson_tol:
            raise QuadratureError(
                f"sphere quadrature not converged at level {j}: {rel:g}")
        sums[j] = 2.0 ** (j * exponent) * lp_fine
        counts[j] = _support_count(table, d, j)
        maxc[j] = float(np.max(np.abs(c_fine)))
        qerr[j] = rel
    return SphericalMeanResult(p, d, levels, sums, counts, maxc, qerr)
