"""Compactly supported orthonormal wavelets and the spherical-mean experiment.

The scaling function is built by cascade refinement from tabulated filter
coefficients down to resolution 2^{-10}; tensor products give the 2^d - 1
generators used in d dimensions.  Each table also holds a shift table, phi
and psi at the ``width`` integer shifts of every sub-step position, so the
values of one node along one axis are one row gather and one linear blend.

The experiment computes the coefficients of the unit-sphere surface measure
against all wavelets meeting the sphere, by circle quadrature (d = 2) or a
Gauss-Legendre x trapezoid product rule (d = 3).  The rule goes ring by ring
(the circle, or one latitude of constant z); its nodes are never stored.  A
ring's sums for every generator come from dense products of its x and y
phi/psi factor matrices, arc by arc.  The mirrored latitudes z and -z share
those sums, so at d = 3 they are computed once per pair and enter each ring
as an outer product with its z values.  The experiment returns the scaled
per-level sums whose boundedness encodes the membership of the spherical
mean in B^{1/p - 1}_{p, infinity}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .core import _gauss_legendre
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
    """phi and psi sampled on a dyadic grid over the common support [0, n-1].

    ``shifts[r, c, o]`` is phi (c = 0) or psi (c = 1) at hi - 1 + r step - o
    for r = 0 .. 1/step and o = 0 .. width - 1 (zero below 0): row r holds
    the ``width`` integer shifts of one sub-step position.
    """

    name: str
    step: float
    grid: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    shifts: np.ndarray

    def eval_phi(self, x) -> np.ndarray:
        return np.interp(x, self.grid, self.phi, left=0.0, right=0.0)

    def eval_psi(self, x) -> np.ndarray:
        return np.interp(x, self.grid, self.psi, left=0.0, right=0.0)

    @property
    def support(self) -> Tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])


@lru_cache(maxsize=None)
def wavelet_table(name: str = "db6") -> WaveletTable:
    """Cascade refinement of the two-scale relation to resolution 2^{-10}.

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
    for _ in range(10):
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

    # the support is [0, n - 1] with n - 1 = hi; padding one unit of zeros
    # below 0 puts hi - 1 + r step - o at padded index (hi - o) 2^10 + r
    steps = 2 ** 10
    padded = np.zeros((2, steps + grid.size))
    padded[0, steps:] = phi
    padded[1, steps:] = psi
    idx = (n - 1 - np.arange(n)) * steps + np.arange(steps + 1)[:, None]
    shifts = np.ascontiguousarray(padded[:, idx].transpose(1, 0, 2))
    shifts.flags.writeable = False
    return WaveletTable(name, float(grid[1] - grid[0]), grid, phi, psi, shifts)


def _generators(d: int) -> List[Tuple[bool, ...]]:
    """Per-axis psi flags for the 2^d - 1 tensor generators (all-phi excluded)."""
    out = []
    for i in range(1, 2 ** d):
        out.append(tuple(bool((i >> axis) & 1) for axis in range(d)))
    return out


def _ring_length(d: int, n: int) -> int:
    """Nodes per ring of the sphere rule for ``n`` nodes."""
    return n if d == 2 else 2 * max(8, int(math.sqrt(n / 2.0)))


def _sphere_rings(d: int, n: int):
    """The unit-sphere rule as rings (z, radius, weight) and the cos, sin of
    the trapezoid angles: ring i's nodes are (radius_i cos, radius_i sin, z_i).

    d = 2 has one ring, the circle (z None); d = 3 has the Gauss-Legendre
    latitudes in ascending z, so rings i and n_u - 1 - i are mirrors.
    """
    n_t = _ring_length(d, n)
    theta = 2.0 * math.pi * (np.arange(n_t) + 0.5) / n_t
    ct, st = np.cos(theta), np.sin(theta)
    if d == 2:
        return None, np.ones(1), np.full(1, 2.0 * math.pi / n), ct, st
    if d == 3:
        u, wu = _gauss_legendre(n_t // 2)
        return u, np.sqrt(1.0 - u ** 2), wu * (2.0 * math.pi / n_t), ct, st
    raise InvalidParameterError("sphere quadrature implemented for d in {2, 3}")


def _sphere_nodes(d: int, n: int):
    """``_sphere_rings`` as ring-major (nodes, d) points and their weights."""
    z, radius, weight, ct, st = _sphere_rings(d, n)
    pts = np.empty((radius.size, ct.size, d))
    pts[..., 0] = np.multiply.outer(radius, ct)
    pts[..., 1] = np.multiply.outer(radius, st)
    if d == 3:
        pts[..., 2] = z[:, None]
    return pts.reshape(-1, d), np.repeat(weight, ct.size)


def _window(v: np.ndarray, lo: float, hi: float) -> Tuple[int, int]:
    """First k and count of the shifts k with v - k in [lo, hi] for some v."""
    k0 = int(math.floor(v.min() - hi))
    return k0, int(math.ceil(v.max() - lo)) - k0 + 1


_BLOCK = 512   # nodes per arc in _level_coeffs


def _locate(v: np.ndarray, hi: float, steps: int):
    """(first, row, frac) of coordinates v for a shift table of ``steps``."""
    first = np.ceil(v - hi)
    pos = (v - first - (hi - 1.0)) * steps
    row = np.minimum(pos.astype(np.intp), steps - 1)
    return first.astype(np.intp), row, pos - row


def _factor_matrix(rows: np.ndarray, slope: np.ndarray, first: np.ndarray,
                   row: np.ndarray, frac: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense (m, 2 K) matrix [phi | psi] of m nodes on one axis over their own
    k window [k0, k0 + K), and k0.

    Node i's ``width`` values per flag, at the shifts first_i + o, are row
    ``row_i`` of the flattened shift table ``rows`` blended towards the next
    row by ``frac_i`` (``slope`` is the difference of consecutive rows).
    """
    width = rows.shape[1] // 2
    m = first.size
    k0 = int(first.min())
    n_k = int(first.max()) - k0 + width
    # flat position of node i, flag c, shift o: (2 i + c) K + first_i - k0 + o
    lane = np.arange(2 * width)                 # c * width + o
    at = first - k0 + np.arange(0, 2 * m * n_k, 2 * n_k)
    at = at[:, None] + (lane + (lane // width) * (n_k - width))
    vals = np.take(rows, row, axis=0)
    vals += frac[:, None] * np.take(slope, row, axis=0)
    dense = np.zeros((m, 2 * n_k))
    dense.reshape(-1)[at] = vals
    return dense, k0


def _level_coeffs(table: WaveletTable, d: int, j: int, n_nodes: int) -> np.ndarray:
    """All <surface measure, Psi_{i,j,k}> for one level, flattened over (i, k).

    The output is generator-major (the order of ``_generators``); each block
    is C-ordered over the k-box [k_min[0], k_max[0]] x ... x [k_min[d-1],
    k_max[d-1]] that holds the support window of every node.

    A node coordinate u meets the shifts k = first + o, o = 0 .. width - 1,
    with first = ceil(u - hi).  Since u - first lies in (hi - 1, hi], all
    ``width`` values sit at one sub-step position of ``table.shifts``: one
    row gather and one linear blend.

    The rule goes ring by ring (``_sphere_rings``); no node array is built.
    Mirrored latitudes z and -z share their x, y nodes and weight bit for
    bit, so the weighted xy sum is computed once per pair, on the ring with
    z <= 0, in arcs of ``_BLOCK`` consecutive nodes.  An arc fills dense
    (m, 2 K) factor matrices X = [phi | psi] and Y over its own x and y k
    windows, and the one product X^T Y holds all four xy blocks
    (F_x^a)^T F_y^b of the arc.  Every ring, in ascending z, then adds its
    pair's sum into the k-box, at d = 3 as an outer product with its z-row
    (phi and psi at its ``width`` z shifts).  The sums run over all 2^d flag
    tuples, indexed (flag of axis d-1, ..., flag of axis 0) so that tuple i
    is generator i; the all-phi tuple 0 is dropped at the end.
    """
    z, radius, weight, ct, st = _sphere_rings(d, n_nodes)
    lo, hi = table.support
    steps, width = table.shifts.shape[0] - 1, table.shifts.shape[2]
    rows = table.shifts.reshape(steps + 1, 2 * width)
    slope = rows[1:] - rows[:-1]
    norm = 2.0 ** (j * d / 2.0)
    pairs = []                  # (xy, x window, y window) of each ring with z <= 0
    for r, w in zip(radius[:(radius.size + 1) // 2], weight):
        x, y = r * ct * 2.0 ** j, r * st * 2.0 ** j
        (rx, nx), (ry, ny) = _window(x, lo, hi), _window(y, lo, hi)
        at_x, at_y = _locate(x, hi, steps), _locate(y, hi, steps)
        xy = np.zeros((2, 2, nx, ny))       # (flag y, flag x, kx - rx, ky - ry)
        for b0 in range(0, ct.size, _BLOCK):
            sl = slice(b0, b0 + _BLOCK)
            fx, kx = _factor_matrix(rows, slope, *(a[sl] for a in at_x))
            fy, ky = _factor_matrix(rows, slope, *(a[sl] for a in at_y))
            mx, my = fx.shape[1] // 2, fy.shape[1] // 2
            prod = (fx.T @ fy).reshape(2, mx, 2, my)
            xy[:, :, kx - rx:kx - rx + mx, ky - ry:ky - ry + my] += \
                prod.transpose(2, 0, 1, 3)
        xy *= w * norm
        pairs.append((xy, (rx, nx), (ry, ny)))
    # r ct 2^j is monotone in r, so the ring nearest z = 0 (the widest) has
    # the x and y windows that hold every other ring's
    box = [pairs[-1][1], pairs[-1][2]]
    if d == 3:
        z = z * 2.0 ** j
        box.append(_window(z, lo, hi))
        z_first, z_row, z_frac = _locate(z, hi, steps)
        z_rows = rows[z_row] + z_frac[:, None] * slope[z_row]
    acc = np.zeros((2,) * d + tuple(n for _, n in box))
    for i in range(radius.size):
        xy, (rx, nx), (ry, ny) = pairs[min(i, radius.size - 1 - i)]
        x0, y0 = rx - box[0][0], ry - box[1][0]
        if d == 2:
            acc[..., x0:x0 + nx, y0:y0 + ny] += xy
        else:
            z0 = z_first[i] - box[2][0]
            acc[..., x0:x0 + nx, y0:y0 + ny, z0:z0 + width] += (
                z_rows[i].reshape(2, 1, 1, 1, 1, width) * xy[None, ..., None])
    return acc.reshape(2 ** d, -1)[1:].ravel()


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
