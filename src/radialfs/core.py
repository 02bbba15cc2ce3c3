"""Grids, radial profiles, weighted quadrature and the gradient identity check.

Everything here works on even scalar functions sampled on a symmetric 1-D grid.
The half-line weight ``|t|**(d-1)`` is evaluated analytically at the nodes, so
no singular quadrature rule is needed (the weight is continuous for d >= 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import EvennessError, InvalidParameterError
from .spaces import _check_dim

__all__ = [
    "Grid1D",
    "RadialProfile",
    "sphere_area",
    "weighted_lp_norm",
    "radial_gradient_identity_check",
    "GradientIdentityReport",
]


# the most nodes the tensor gradient oracle evaluates in one pass, unless
# one block of whole x_1-slabs holds more
_RUN_NODES = 1 << 16


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d (omega_{d-1} = 2 pi^{d/2}/Gamma(d/2))."""
    _check_dim(d)
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _gradients(v: np.ndarray, x, n: int) -> List[np.ndarray]:
    """v and its first n derivatives by iterated ``np.gradient``; x holds the
    nodes or a scalar spacing."""
    out = [v]
    for _ in range(n):
        out.append(np.gradient(out[-1], x))
    return out


@lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    ``leggauss`` symmetrises its output, so u = -u[::-1] and wu = wu[::-1].
    """
    u, wu = np.polynomial.legendre.leggauss(n)
    u.flags.writeable = False
    wu.flags.writeable = False
    return u, wu


@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing 1-D node set, symmetric about 0."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise InvalidParameterError("grid needs at least 2 nodes")
        if not np.all(np.diff(nodes) > 0):
            raise InvalidParameterError("grid nodes must be strictly increasing")
        if not np.array_equal(nodes, -nodes[::-1]):
            raise EvennessError("grid must be closed under negation")

    @staticmethod
    def uniform(h: float, T: float) -> "Grid1D":
        """Uniform symmetric grid on [-T, T] with spacing h (node at 0)."""
        if h <= 0 or T <= 0:
            raise InvalidParameterError("need h > 0 and T > 0")
        n = int(round(T / h))
        half = np.arange(1, n + 1) * h
        nodes = np.concatenate([-half[::-1], [0.0], half])
        return Grid1D(nodes)

    @staticmethod
    def composite(J: int = 10, h: float = 0.01, T: float = 8.0) -> "Grid1D":
        """Dyadic refinement on (0, 1] (levels j = 0..J) plus a uniform tail on [1, T].

        Level j places 16 nodes on (2^{-j-1}, 2^{-j}], so the local
        spacing tracks the dyadic scale; the phenomena at the origin stay
        resolved while the tail keeps a fixed budget.
        """
        if J < 0 or h <= 0 or T < 1:
            raise InvalidParameterError("bad composite grid parameters")
        parts = [np.array([0.0, 2.0 ** (-J - 1)])]
        for j in range(J, -1, -1):
            lo, hi = 2.0 ** (-j - 1), 2.0 ** (-j)
            parts.append(np.linspace(lo, hi, 17)[1:])
        if T > 1:
            n_tail = int(round((T - 1) / h))
            parts.append(1.0 + np.arange(1, n_tail + 1) * h)
        half = np.unique(np.concatenate(parts))
        nodes = np.concatenate([-half[:0:-1], half])
        return Grid1D(nodes)


@dataclass(frozen=True)
class RadialProfile:
    """An even scalar function sampled on a symmetric grid.

    This is the object the trace and extension operators act on; it also
    carries the optional dimension context for the weight ``|t|**(d-1)``.
    """

    grid: Grid1D
    values: np.ndarray
    dim_context: Optional[int] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise InvalidParameterError("values must align with grid nodes")
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("profile values must be finite")
        if not np.array_equal(values, values[::-1]):
            raise EvennessError("profile values must be even across paired nodes")
        if self.dim_context is not None:
            _check_dim(self.dim_context)

    @staticmethod
    def from_callable(f: Callable[[np.ndarray], np.ndarray], grid: Grid1D,
                      d: Optional[int] = None) -> "RadialProfile":
        """Sample ``f`` on the half line and mirror it.

        ``f`` is called once, on ``np.abs(nodes[n // 2:])``: the nodes t >= 0
        (a -0.0 middle node reaches it as +0.0).  The grid is closed under
        negation, so the mirrored samples are those of ``f(np.abs(nodes))``,
        for an odd or an even node count, at half the evaluations.  ``f``
        must return one value per node it is given.
        """
        nodes = grid.nodes
        half = np.asarray(f(np.abs(nodes[nodes.size // 2:])), dtype=float)
        if half.shape != (nodes.size - nodes.size // 2,):
            raise InvalidParameterError("values must align with grid nodes")
        vals = np.concatenate([half[nodes.size % 2:][::-1], half])
        return RadialProfile(grid, vals, dim_context=d)

    def __call__(self, t):
        """Piecewise-linear evaluation at |t| (zero outside the grid)."""
        t = np.abs(np.asarray(t, dtype=float))
        return np.interp(t, self.grid.nodes, self.values, left=0.0, right=0.0)

    def scaled(self, c: float) -> "RadialProfile":
        return replace(self, values=c * self.values)

    def restrict_dim(self, d: int) -> "RadialProfile":
        return replace(self, dim_context=d)


def _resolve_dim(g: RadialProfile, d: Optional[int]) -> int:
    if d is None:
        d = g.dim_context
    if d is None:
        raise InvalidParameterError("dimension d required (profile has no dim_context)")
    _check_dim(d)
    return int(d)


def weighted_lp_norm(g: RadialProfile, p: float, d: Optional[int] = None) -> float:
    """(integral_R |g(t)|^p |t|^{d-1} dt)^{1/p} by composite trapezoid on the grid.

    p = inf returns max over nodes (the weight is ignored there); this is a
    lower bound of the true essential sup.
    """
    d = _resolve_dim(g, d)
    if not p > 0:
        raise InvalidParameterError(f"p must be > 0, got {p}")
    if math.isinf(p):
        return float(np.max(np.abs(g.values)))
    t = g.grid.nodes
    integrand = np.abs(g.values) ** p * np.abs(t) ** (d - 1)
    return float(np.trapezoid(integrand, t)) ** (1.0 / p)


def _permutations(idx: np.ndarray) -> np.ndarray:
    """Distinct permutations of each row of descending indices, d! / prod(r!).

    r runs over the lengths of the row's runs of equal entries; the running
    tie length at each position multiplies out to prod(r!).
    """
    n, d = idx.shape
    run = np.ones(n)
    out = np.full(n, float(math.factorial(d)))
    for k in range(1, d):
        run = np.where(idx[:, k] == idx[:, k - 1], run + 1.0, 1.0)
        out /= run
    return out


@dataclass(frozen=True)
class GradientIdentityReport:
    lhs_tensor: float
    rhs_radial: float

    @property
    def ratio(self) -> float:
        if self.lhs_tensor == 0.0 and self.rhs_radial == 0.0:
            return 1.0
        return self.lhs_tensor / self.rhs_radial


def radial_gradient_identity_check(g: RadialProfile, p: float, d: Optional[int] = None,
                                   evaluator: Optional[Callable] = None,
                                   n_grid: Optional[int] = None,
                                   fd_step: float = 1e-5) -> GradientIdentityReport:
    """Compare ||grad f||_{L_p(R^d)} computed two independent ways.

    lhs: tensor-grid quadrature of the finite-difference gradient of
    f = ext g (the d-dimensional route).  rhs: the exact radial reduction
    c_d * ||g'||_{L_p(|t|^{d-1})}.  For compactly supported smooth g the
    ratio must be 1 up to discretization error.

    When ``evaluator`` (a callable on radii) is supplied both routes
    differentiate it directly, which keeps the comparison at quadrature
    accuracy instead of interpolation accuracy.

    The tensor route is a Riemann sum over the cube [-T, T]^d with spacing
    h = 2T / (n_grid - 1), on the axis np.linspace(-T, T, n_grid), summed
    over the chamber x_1 >= x_2 >= ... >= x_d >= 0 only.  The chamber's axis
    is the nonnegative half of that axis (an exact 0.0 when ``n_grid`` is
    odd), and each chamber node stands for all of its images under
    coordinate permutations and reflections.  The fold is exact because the
    integrand sees f = feval(|x|) only through the norms
    sqrt((x_i +- fd_step)^2 + sum_{k != i} x_k^2): reflecting one
    coordinate swaps the two central-difference terms of that component, and
    permuting coordinates permutes the components, so |grad_h f|^p is the
    same at every image (up to the order of the float additions, which moves
    the sum by under 1e-13 relative).  This uses the evenness and the
    permutation symmetry of feval(|x|), not radiality; the tensor route
    still never evaluates the radial formula, so the two sides stay
    independent.

    A chamber node with axis indices i_1 >= ... >= i_d has weight
    d! / prod(r!) * 2^z: r runs over the lengths of its runs of equal
    indices (d! / prod(r!) distinct permutations) and z counts its nonzero
    coordinates (2^z mirror images).  There are C(m + d - 1, d) chamber
    nodes, m = ceil(n_grid / 2), against m^d in the orthant.

    ``n_grid`` keeps its meaning of nodes per full axis.  The (d - 1)-index
    chamber of x_2..x_d is built once, sorted by its leading index, so the
    nodes under x_1 = half[i] are its prefix with leading index <= i.

    Only the live chamber nodes are evaluated, 2d radii each.  On t >= 0
    let R_out be the node after g's last nonzero sample (infinite when that
    sample is at the last node) and R_in the node before its first nonzero
    sample (none when that sample is at t = 0, or at the first node of an
    even grid).  A node is live when
    (R_in - 2 fd_step)^2 < |x|^2 < (R_out + 2 fd_step)^2, the inner bound
    applying only when R_in - 2 fd_step > 0.  Every stencil radius of a dead
    node is >= |x| - fd_step >= R_out + fd_step or <= R_in - fd_step, where
    f is exactly 0, so each of its difference quotients is 0 and its term
    is +0.0; the fd_step to spare covers the rounding of |x|^2 and of the
    radii.  The shell trusts g's samples to place the zeros of
    ``evaluator`` just as T does, T being 1.05 times the largest |t| with
    |g(t)| > 1e-13 max|g|, plus 0.25; it reads exact zeros, so tails below
    that threshold are still evaluated.  ``evaluator`` must act elementwise,
    as it is called on the live radii only.

    The floats are those of evaluating every chamber node.  np.sum reduces
    blocks of whole x_1-slabs holding at most n_grid^(d-1) nodes, the size
    of one slab of the full cube, and each dead node's +0.0 keeps its place
    in its block, so each block sum is unchanged; blocks of slabs with
    x_1 >= R_out + 2 fd_step hold only dead nodes and are skipped.
    Consecutive blocks of at most 2^16 nodes in all (or one larger block)
    form a run, whose live nodes are found and evaluated in one pass.  The
    working set is a few arrays of one run (0.46 MB each at the d = 3
    default n_grid = 240, where a run is one block of at most 57600 nodes)
    and the whole chamber is never held at once.
    """
    return _gradient_identity_reports(g, (p,), d, evaluator, n_grid, fd_step)[0]


def _gradient_identity_reports(g: RadialProfile, ps: Tuple[float, ...],
                               d: Optional[int] = None,
                               evaluator: Optional[Callable] = None,
                               n_grid: Optional[int] = None,
                               fd_step: float = 1e-5) -> List[GradientIdentityReport]:
    """``radial_gradient_identity_check`` for every p in ``ps``, one report
    per p, each the same floats as its own call: the chamber's gradient
    blocks are built once and reduced once per p."""
    d = _resolve_dim(g, d)
    if any(p < 1 for p in ps):
        raise InvalidParameterError("p >= 1 required (Sobolev regime)")
    if d not in (2, 3):
        raise InvalidParameterError("tensor oracle implemented for d in {2, 3}")
    if n_grid is None:
        n_grid = 1000 if d == 2 else 240

    t = g.grid.nodes
    if evaluator is None:
        d1 = _gradients(g.values, t, 1)[1]
        gprime = 0.5 * (np.abs(d1) + np.abs(d1[::-1]))
    else:
        r = np.abs(t)
        gprime = np.abs(evaluator(r + fd_step) - evaluator(np.maximum(r - fd_step, 0.0))
                        ) / (2.0 * fd_step)
        gprime = 0.5 * (gprime + gprime[::-1])
    gp = RadialProfile(g.grid, gprime, dim_context=d)
    rhs = [(sphere_area(d) / 2.0) ** (1.0 / p) * weighted_lp_norm(gp, p, d)
           for p in ps]

    # T from the samples above 1e-13 of the largest.  A zero profile leaves
    # the tensor side 0, which agrees with the rhs only when that is 0 too.
    support = np.abs(t[np.abs(g.values) > 1e-13 * np.max(np.abs(g.values))])
    if support.size == 0:
        return [GradientIdentityReport(0.0, r) for r in rhs]
    feval = evaluator if evaluator is not None else g
    T = float(support.max()) * 1.05 + 0.25
    full = np.linspace(-T, T, n_grid)
    h = full[1] - full[0]
    half = full[n_grid // 2:].copy()
    if n_grid % 2:
        half[0] = 0.0
    sq_half = half ** 2

    # the live shell lo2 < |x|^2 < hi2 from the exact zeros of g on t >= 0
    vals, r_half = g.values[t.size // 2:], np.abs(t[t.size // 2:])
    nonzero = np.flatnonzero(vals)
    hi2 = math.inf
    if nonzero[-1] + 1 < vals.size:
        hi2 = (r_half[nonzero[-1] + 1] + 2.0 * fd_step) ** 2
    lo2 = -math.inf
    if nonzero[0] > 0 and r_half[nonzero[0] - 1] - 2.0 * fd_step > 0:
        lo2 = (r_half[nonzero[0] - 1] - 2.0 * fd_step) ** 2

    # The (d - 1)-coordinate chamber of x_2..x_d as axis indices, sorted by
    # leading index, and what its rows bring to every block: coordinates,
    # the sum of their squares, for component k the squares of the rest
    # other than x_k, and the node weight when x_1 ties with the row's
    # leading index (w_tie) or exceeds it (w_free).
    m = half.size
    rest = np.arange(m)[:, None] if d == 2 else np.column_stack(np.tril_indices(m))
    lead_rest = rest[:, 0]
    x_rest = half[rest]
    sq_rest = x_rest ** 2
    sum_rest = np.sum(sq_rest, axis=1)
    other_rest = np.zeros_like(sq_rest) if d == 2 else sq_rest[:, ::-1]
    mirror = np.where(half != 0.0, 2.0, 1.0)
    w_rest = np.prod(mirror[rest], axis=1)
    w_tie = w_rest * _permutations(np.column_stack([lead_rest, rest]))
    w_free = w_rest * _permutations(np.column_stack([np.full_like(lead_rest, m), rest]))
    counts = np.searchsorted(lead_rest, np.arange(m), side="right")
    # edge[i]: the chamber nodes before x_1-slab i
    edge = np.concatenate([[0], np.cumsum(counts)])
    # Blocks: whole x_1-slabs, at most cap nodes, at least one slab; each
    # block is one np.sum.  Every node of the slabs from m_live on has
    # |x|^2 >= x_1^2 >= hi2, so their blocks would add 0.0: none is built.
    cap = n_grid ** (d - 1)
    m_live = int(np.searchsorted(sq_half, hi2, side="left"))
    blocks = [0]
    while blocks[-1] < m_live:
        start = blocks[-1]
        blocks.append(max(start + 1, int(np.searchsorted(edge, edge[start] + cap,
                                                         side="right")) - 1))
    # Runs: consecutive blocks of at most _RUN_NODES nodes in all (or one
    # block), evaluated together; runs[j] indexes the block run j starts at.
    runs = [0]
    for i in range(1, len(blocks) - 1):
        if edge[blocks[i + 1]] - edge[blocks[runs[-1]]] > _RUN_NODES:
            runs.append(i)
    runs.append(len(blocks) - 1)
    totals = [0.0] * len(ps)
    for first_block, end_block in zip(runs, runs[1:]):
        start, stop = blocks[first_block], blocks[end_block]
        # x_1-slab and chamber row of each run node: slab i takes rows
        # 0..counts[i]-1
        slab = np.repeat(np.arange(start, stop), counts[start:stop])
        row = np.arange(slab.size) - (edge[slab] - edge[start])
        r2 = sq_half[slab] + sum_rest[row]
        live = np.flatnonzero((r2 > lo2) & (r2 < hi2))
        if live.size == 0:
            continue
        slab, row = slab[live], row[live]
        x1, sq1 = half[slab], sq_half[slab]
        grad_sq = 0.0
        for k in range(d):
            if k == 0:
                xk, other = x1, sum_rest[row]
            else:
                xk, other = x_rest[row, k - 1], sq1 + other_rest[row, k - 1]
            dk = (feval(np.sqrt((xk + fd_step) ** 2 + other))
                  - feval(np.sqrt((xk - fd_step) ** 2 + other))) / (2.0 * fd_step)
            grad_sq = grad_sq + dk ** 2
        weight = mirror[slab] * np.where(
            x1 == x_rest[row, 0], w_tie[row], w_free[row])
        grad = np.sqrt(grad_sq)
        # dead nodes keep the +0.0 term the whole chamber gives them, so each
        # block's np.sum adds the same floats in the same order
        terms = np.zeros(r2.size)
        cuts = edge[blocks[first_block:end_block + 1]] - edge[start]
        for i, p in enumerate(ps):
            terms[live] = weight * grad ** p
            for lo, hi in zip(cuts, cuts[1:]):
                totals[i] += float(np.sum(terms[lo:hi]))
    return [GradientIdentityReport(float((total * h ** d) ** (1.0 / p)), float(r))
            for p, total, r in zip(ps, totals, rhs)]
