"""Compactly supported orthonormal wavelets and the spherical-mean experiment.

The scaling function is built by cascade refinement from tabulated filter
coefficients down to resolution 2^{-10}; tensor products give the 2^d - 1
generators used in d dimensions.  Each table also holds a shift table, phi
and psi at the ``width`` integer shifts of every sub-step position, so the
values of one node along one axis are one row gather and one linear blend.

The experiment computes the coefficients of the unit-sphere surface measure
against all wavelets meeting the sphere, by circle quadrature (d = 2) or a
Gauss-Legendre x trapezoid product rule (d = 3).  The rule is a set of rings
(the circle, or the latitudes of constant z) whose nodes are never stored,
and it is folded over its octant mirrors.  The mirrored latitudes z and -z
share their x, y sums, so only the rings with z <= 0 are summed, in batches
of a bounded float count.  The trapezoid angles are mirrored in both axes,
so a quarter of each ring's nodes (a half for an odd node count) stands for
its images (+-x, +-y), each an exact negative; these nodes go in arcs, and
per arc and image sign, dense phi/psi factor tensors per axis, each over its
own k window, and one batched product per image give every ring's sums for
all xy generators.  One matmul with the rings' z-rows (phi and psi at their
z shifts, z and -z together) adds each product to every generator at once.
The experiment returns the scaled per-level sums whose boundedness encodes
the membership of the spherical mean in B^{1/p - 1}_{p, infinity}.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .core import _gauss_legendre
from .errors import InvalidParameterError, QuadratureError
from .spaces import _check_dim

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
    """phi and psi on the dyadic grid of step 2^-10 over their support [0, n-1].

    ``shifts[r, c, o]`` is phi (c = 0) or psi (c = 1) at hi - 1 + r 2^-10 - o
    for r = 0 .. 2^10 and o = 0 .. width - 1 (zero below 0): row r holds the
    ``width`` integer shifts of one sub-step position.
    """

    grid: np.ndarray
    shifts: np.ndarray

    @property
    def support(self) -> Tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])


def _cascade(name: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid, phi and psi by cascade refinement of the two-scale relation
    to resolution 2^{-10}.

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
    return grid, phi, psi


@lru_cache(maxsize=None)
def wavelet_table(name: str = "db6") -> WaveletTable:
    """The grid and shift table of ``_cascade(name)``."""
    grid, phi, psi = _cascade(name)
    n = daubechies_filter(name).size
    # the support is [0, n - 1] with n - 1 = hi; padding one unit of zeros
    # below 0 puts hi - 1 + r step - o at padded index (hi - o) 2^10 + r
    steps = 2 ** 10
    padded = np.zeros((2, steps + grid.size))
    padded[0, steps:] = phi
    padded[1, steps:] = psi
    idx = (n - 1 - np.arange(n)) * steps + np.arange(steps + 1)[:, None]
    shifts = np.ascontiguousarray(padded[:, idx].transpose(1, 0, 2))
    shifts.flags.writeable = False
    return WaveletTable(grid, shifts)


def _ring_length(d: int, n: int) -> int:
    """Nodes per ring of the sphere rule for ``n`` nodes."""
    return n if d == 2 else 2 * max(8, int(math.sqrt(n / 2.0)))


# the images (x signs, y signs) a node set stands for: its product of signs
_QUADRANT = ((1.0, -1.0), (1.0, -1.0))
_HALF = ((1.0,), (1.0, -1.0))
_SELF = ((1.0,), (1.0,))


def _sphere_rings(d: int, n: int):
    """The unit-sphere rule as rings (z, radius, weight) and node sets of the
    trapezoid angles theta_i = 2 pi (i + 1/2) / n_t, i = 0 .. n_t - 1.

    d = 2 has one ring, the circle (z None); d = 3 has the Gauss-Legendre
    latitudes in ascending z, so rings i and n_u - 1 - i are mirrors.  A
    node set is (cos, sin, (x signs, y signs)): a node at (r cos, r sin, z)
    stands for the images (s_x r cos, s_y r sin, z) for every pair of signs,
    each an exact negative, so the sets hold each ring's nodes once:

    - even n_t: the nodes with theta in (0, pi/2) stand for (+-x, +-y), and
      the node at pi/2 (when n_t = 2 mod 4) for (x, +-y);
    - odd n_t (d = 2 only): the nodes in (0, pi) stand for (x, +-y), and the
      node at pi for itself.
    """
    n_t = _ring_length(d, n)
    if n_t % 2:
        sets = ((n_t // 2, _HALF), (1, _SELF))
    else:
        sets = ((n_t // 4, _QUADRANT), (n_t % 4 // 2, _HALF))
    node_sets, i0 = [], 0
    for size, signs in sets:
        if size:
            theta = 2.0 * math.pi * (np.arange(i0, i0 + size) + 0.5) / n_t
            node_sets.append((np.cos(theta), np.sin(theta), signs))
        i0 += size
    if d == 2:
        return None, np.ones(1), np.full(1, 2.0 * math.pi / n), node_sets
    if d == 3:
        u, wu = _gauss_legendre(n_t // 2)
        return u, np.sqrt(1.0 - u ** 2), wu * (2.0 * math.pi / n_t), node_sets
    raise InvalidParameterError("sphere quadrature implemented for d in {2, 3}")


def _window(v: np.ndarray, lo: float, hi: float) -> Tuple[int, int]:
    """First k and count of the shifts k with v - k in [lo, hi] for some v."""
    k0 = int(math.floor(v.min() - hi))
    return k0, int(math.ceil(v.max() - lo)) - k0 + 1


_BLOCK = 512            # nodes per arc in _level_coeffs
_BATCH_FLOATS = 1 << 18  # dense factor and product floats per batch of rings


def _locate(v: np.ndarray, hi: float, steps: int):
    """(first, row, frac) of coordinates v for a shift table of ``steps``."""
    first = np.ceil(v - hi)
    pos = (v - first - (hi - 1.0)) * steps
    row = np.minimum(pos.astype(np.intp), steps - 1)
    return first.astype(np.intp), row, pos - row


def _factor_matrix(rows: np.ndarray, slope: np.ndarray, first: np.ndarray,
                   row: np.ndarray, frac: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense (m, 2 K) matrix [phi | psi] of m nodes on one axis over their
    common k window [k0, k0 + K), and k0.

    Node i's ``width`` values per flag, at the shifts first_i + o, are row
    ``row_i`` of the flattened shift table ``rows`` blended towards the next
    row by ``frac_i`` (``slope`` is the difference of consecutive rows).
    """
    width = rows.shape[1] // 2
    m = first.size
    k0 = int(first.min())
    n_k = int(first.max()) - k0 + width
    # flat position of node i, flag c, shift o: (2 i + c) K + first_i - k0 + o
    lane = np.arange(2 * width)
    lane[width:] += n_k - width                 # c K + o
    at = np.add.outer(first + np.arange(-k0, 2 * m * n_k - k0, 2 * n_k), lane)
    vals = rows.take(row, axis=0)
    blend = slope.take(row, axis=0)
    blend *= frac[:, None]
    vals += blend
    dense = np.zeros((m, 2 * n_k))
    dense.reshape(-1)[at] = vals
    return dense, k0


def _level_coeffs(table: WaveletTable, d: int, j: int, n_nodes: int) -> np.ndarray:
    """All <surface measure, Psi_{i,j,k}> for one level, flattened over (i, k).

    The output is generator-major: generator i = 1 .. 2^d - 1 has psi on
    axis a where bit a of i is set and phi elsewhere.  Each block is
    C-ordered over the k-box [k_min[0], k_max[0]] x ... x [k_min[d-1],
    k_max[d-1]] that holds the support window of every node.

    A node coordinate u meets the shifts k = first + o, o = 0 .. width - 1,
    with first = ceil(u - hi).  Since u - first lies in (hi - 1, hi], all
    ``width`` values sit at one sub-step position of ``table.shifts``: one
    row gather and one linear blend.

    The rule goes ring by ring and node set by node set (``_sphere_rings``);
    no node array is built.  The rule is folded over its octant mirrors:
    mirrored latitudes z and -z share their x, y nodes and weight bit for
    bit, so the xy sums are computed once per pair, on the rings with
    z <= 0, and each node of a set stands for its images (+-x, +-y), so a
    ring of n_t nodes locates about n_t factor rows, not 2 n_t.  The rings
    run in batches whose dense tensors hold at most about ``_BATCH_FLOATS``
    floats, and each node set goes in arcs of at most ``_BLOCK`` nodes.
    Per arc and image sign, one locate-and-blend per axis fills a
    (rings, m, 2 K) tensor X = [phi | psi] over that sign's own k window,
    and per image (s_x, s_y) one batched product X^T Y holds all four xy
    blocks (F_x^a)^T F_y^b of every ring.  One matmul then adds the product
    into its window of the k-box: the (2 n_z, rings) z-row matrix holds
    each pair's weight times phi and psi at its ``width`` z shifts, for z
    and -z in the same column.  d = 2 is the one-ring case (its z-row
    matrix is the circle's weight), so each of its arcs is a batch of its
    own.  The sums run over all 2^d flag tuples, indexed (flag of axis d-1,
    ..., flag of axis 0) so that tuple i is generator i; the all-phi tuple
    0 is dropped at the end.
    """
    z, radius, weight, node_sets = _sphere_rings(d, n_nodes)
    lo, hi = table.support
    steps, width = table.shifts.shape[0] - 1, table.shifts.shape[2]
    rows = table.shifts.reshape(steps + 1, 2 * width)
    slope = rows[1:] - rows[:-1]
    scale = 2.0 ** j
    n_pairs = (radius.size + 1) // 2
    w = weight[:n_pairs] * 2.0 ** (j * d / 2.0)
    # r cos 2^j is monotone in r, so the images of the ring nearest z = 0
    # (the widest) have the x and y windows that hold every other ring's
    widest = [[np.multiply.outer(radius[n_pairs - 1] * v * scale, signs)
               for v, signs in zip((c, s), axis_signs)]
              for c, s, axis_signs in node_sets]
    (bx, nx), (by, ny) = (_window(np.concatenate([images[a].ravel()
                                                  for images in widest]), lo, hi)
                          for a in (0, 1))
    if d == 2:
        zmat = w[None, :]
    else:
        z = z * scale
        bz, nz = _window(z, lo, hi)
        first, row, frac = _locate(z, hi, steps)
        z_rows = (rows[row] + frac[:, None] * slope[row]).reshape(-1, 2, width)
        # column c holds the z-rows of ring c and of its mirror, once for
        # the equator, which pairs with itself
        zmat = np.zeros((2, nz, n_pairs))
        pair = np.arange(n_pairs)
        for ring in (pair, radius.size - 1 - pair[:radius.size // 2]):
            c = pair[:ring.size]
            zmat[:, first[ring, None] - bz + np.arange(width), c[:, None]] += (
                w[c, None, None] * z_rows[ring]).transpose(1, 0, 2)
        zmat = zmat.reshape(2 * nz, n_pairs)
    # dense floats per ring of one arc: its factor matrices, each image on
    # its window on the widest ring, and their products
    per_ring = 0
    for (c, _, _), images in zip(node_sets, widest):
        kx, ky = (sum(_window(v, lo, hi)[1] for v in u.T) for u in images)
        per_ring = max(per_ring, 2 * min(c.size, _BLOCK) * (kx + ky) + 4 * kx * ky)
    acc = np.zeros((zmat.shape[0], 2, nx, 2, ny))   # z-row, flag x, kx, flag y, ky
    size = max(1, _BATCH_FLOATS // per_ring)
    for b0 in range(0, n_pairs, size):
        batch = slice(b0, min(b0 + size, n_pairs))
        rings, z_batch = batch.stop - b0, zmat[:, batch]
        for c, s, axis_signs in node_sets:
            for a0 in range(0, c.size, _BLOCK):
                arc = slice(a0, a0 + _BLOCK)
                u = (np.multiply.outer(radius[batch], v[arc]).ravel() * scale
                     for v in (c, s))
                fx, fy = ([_factor_matrix(rows, slope, *_locate(sign * ua, hi, steps))
                           for sign in signs] for ua, signs in zip(u, axis_signs))
                for (f_x, kx), (f_y, ky) in itertools.product(fx, fy):
                    mx, my = f_x.shape[1] // 2, f_y.shape[1] // 2
                    prod = np.matmul(f_x.reshape(rings, -1, 2 * mx).transpose(0, 2, 1),
                                     f_y.reshape(rings, -1, 2 * my))
                    acc[:, :, kx - bx:kx - bx + mx, :, ky - by:ky - by + my] += (
                        z_batch @ prod.reshape(rings, -1)).reshape(-1, 2, mx, 2, my)
    # to (flag z, flag y, flag x, kx, ky, kz)
    if d == 2:
        acc = acc.reshape(2, nx, 2, ny).transpose(2, 0, 1, 3)
    else:
        acc = acc.reshape(2, nz, 2, nx, 2, ny).transpose(0, 4, 2, 3, 5, 1)
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
    d: int
    levels: np.ndarray
    scaled_sums: np.ndarray       # 2^{j(1/p-1+d(1/2-1/p))} (sum |<f,Psi>|^p)^{1/p}
    counts: np.ndarray            # wavelets whose support meets the sphere
    max_coeff: np.ndarray
    quad_error: np.ndarray        # Richardson estimates per level

    def scaled_sum_slope(self) -> float:
        """Least-squares slope of log2(scaled sum) over j: 0 for sums that
        stay bounded and bounded below, as the membership predicts."""
        return float(np.polyfit(self.levels, np.log2(self.scaled_sums), 1)[0])

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
    Needs d in {2, 3}, 0 < p < inf, an integer Jmax >= 0 and a finite
    nodes_per_unit >= 1.
    """
    _check_dim(d)
    if d not in (2, 3):
        raise InvalidParameterError("d must be 2 or 3")
    if isinstance(Jmax, bool) or not isinstance(Jmax, numbers.Integral):
        raise InvalidParameterError(f"Jmax must be an integer, got {Jmax!r}")
    if not (0 < p < math.inf and Jmax >= 0 and 1 <= nodes_per_unit < math.inf):
        raise InvalidParameterError(
            f"need 0 < p < inf, Jmax >= 0 and 1 <= nodes_per_unit < inf, got "
            f"p={p}, Jmax={Jmax}, nodes_per_unit={nodes_per_unit}")
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
    return SphericalMeanResult(d, levels, sums, counts, maxc, qerr)
