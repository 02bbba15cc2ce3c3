"""The adapted sequence-space quasi-norms b^s_{p,q,d} and f^s_{p,q,d}.

Coefficients s_{j,k} carry level/annulus semantics: level j sets the dyadic
scale 2^{-j}, annulus k selects 2^{-j}k <= |t| <= 2^{-j}(k+1).  A
``CoefficientGrid`` keeps one array per level, dense in k from k = 0, where
a zero is an absent entry: the arrays ``decompose_profile`` builds, held
without a copy.  Every norm reduces a level's nonzero entries
(``np.flatnonzero``) in one numpy pass, so its Python work grows with the
number of levels, not of entries.

The b-norms are the displayed weighted ell-space formulas.  The f-norms are
realized with mass-normalized annulus indicators: the indicator of annulus
(j, k) is scaled so that its weighted measure is exactly 2^{-jd} (1+k)^{d-1}
(the b-space weight) instead of the geometric value (2/d) 2^{-jd}
((k+1)^d - k^d).  The two differ by factors bounded between 1/2 and d, so
this is an equivalent quasi-norm, and it makes the identity b_{p,p,d} =
f_{p,p,d} exact rather than merely up-to-constants.  Outer sums over levels
are accumulated in log-space, so large-J sweeps with big 2^{j(s-d/p)q}
factors cannot overflow.

The f-norms are evaluated exactly on the elementary intervals cut by all
annulus endpoints, where the inner function is constant.  Annuli of one level
have disjoint interiors, so each elementary interval meets at most one entry
per level: the log-weighted coefficients are laid out as an intervals x
levels array (one column per level present, -inf where a level has no entry),
each entry filling its run of intervals found by binary search on the
breakpoints.  The work grows with intervals x levels, not intervals x entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Tuple

import numpy as np

from .errors import InvalidParameterError
from .spaces import SpaceParams, _check_int

__all__ = ["CoefficientGrid", "seq_norm_bspqd", "seq_norm_fspqd"]

LN2 = math.log(2.0)


def _logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis``: scipy.special.logsumexp's real-input
    steps (max split off and counted, log1p of the shifted rest, direct
    log-sum where that is not finite), so the same floats, minus its per-call
    array-API dispatch."""
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max(axis=axis, keepdims=True)
        at_top = a == top
        m = at_top.sum(axis=axis, keepdims=True, dtype=float)
        s = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=axis,
                                                           keepdims=True)
        out = np.log1p(s / m) + np.log(m) + top
        if not np.isfinite(out).all():
            direct = np.log(np.exp(a).sum(axis=axis, keepdims=True))
            out = np.where(np.isfinite(out), out, direct)
    return np.squeeze(out, axis=axis)[()]


@dataclass
class CoefficientGrid:
    """Coefficients s_{j,k}, j >= 0, k >= 0, as one array per level:
    levels[j][k] = s_{j,k}, dense in k from k = 0; a zero entry is absent.
    Each key must be an integer j >= 0 and each level one-dimensional; a
    level is held as a float array, without a copy when it is one already.
    A NaN entry is refused; an infinite one gives an infinite norm."""

    levels: Dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        levels = {}
        for j, a in self.levels.items():
            _check_int("level", j, 0)
            try:
                a = np.asarray(a, dtype=float)
            except (TypeError, ValueError):
                raise InvalidParameterError(
                    f"level {j} must be a 1-D array of numbers") from None
            if a.ndim != 1:
                raise InvalidParameterError(
                    f"level {j} must be a 1-D array, got shape {a.shape}")
            if np.isnan(a).any():
                raise InvalidParameterError(f"level {j} holds a NaN coefficient")
            levels[j] = a
        self.levels = levels

    @staticmethod
    def random(rng, J: int, K: int, density: float = 0.3) -> "CoefficientGrid":
        mask = rng.random((J + 1, K + 1)) < density
        vals = rng.standard_normal((J + 1, K + 1))
        return CoefficientGrid(dict(enumerate(np.where(mask, vals, 0.0))))

    def items(self) -> Iterator[Tuple[Tuple[int, int], float]]:
        """((j, k), s_{j,k}) for the nonzero entries, in ascending (j, k)."""
        for j in sorted(self.levels):
            a = self.levels[j]
            for k in np.flatnonzero(a).tolist():
                yield (j, k), float(a[k])

    def __len__(self) -> int:
        return sum(np.count_nonzero(a) for a in self.levels.values())


def _check_pq(p: float, q: float, allow_p_inf: bool) -> None:
    if not (p > 0 and q > 0):
        raise InvalidParameterError("p and q must be > 0")
    if math.isinf(p) and not allow_p_inf:
        raise InvalidParameterError("p = inf not supported for this norm")


def _log_inner_lp(c: CoefficientGrid, p: float, d: int) -> Dict[int, float]:
    """Per-level log of (sum_k (1+k)^{d-1} |s_{j,k}|^p); p=inf gives log sup.
    Levels with no entry are left out."""
    out = {}
    for j in sorted(c.levels):
        k = np.flatnonzero(c.levels[j])
        if k.size == 0:
            continue
        a = np.abs(c.levels[j][k])
        if math.isinf(p):
            out[j] = math.log(a.max())
        else:
            out[j] = _logsumexp(p * np.log(a) + (d - 1) * np.log1p(k))
    return out


def _combine_levels(log_terms: Iterable[float], q: float) -> float:
    """(sum_j exp(q log_terms_j))^{1/q} in log space over the per-level logs;
    q=inf gives sup, and no finite log gives 0."""
    vals = [v for v in log_terms if v > -math.inf]
    if not vals:
        return 0.0
    if math.isinf(q):
        return math.exp(max(vals))
    return math.exp(_logsumexp([q * v for v in vals]) / q)


def seq_norm_bspqd(c: CoefficientGrid, params: SpaceParams) -> float:
    """(sum_j 2^{j(s-d/p)q} (sum_k (1+k)^{d-1} |s_{j,k}|^p)^{q/p})^{1/q}."""
    s, p, q, d = params.s, params.p, params.q, params.d
    _check_pq(p, q, allow_p_inf=True)
    ip = 0.0 if math.isinf(p) else 1.0 / p
    return _combine_levels((j * (s - d * ip) * LN2 + (v if math.isinf(p) else ip * v)
                            for j, v in _log_inner_lp(c, p, d).items()), q)


def _mass_ratio_log(k: np.ndarray, d: int) -> np.ndarray:
    """log of [2^{-jd}(1+k)^{d-1}] / [the geometric weighted annulus measure].

    Geometric measure of {2^{-j}k <= |t| <= 2^{-j}(k+1)} under |t|^{d-1} dt
    (both signs) is (2/d) 2^{-jd} ((k+1)^d - k^d).
    """
    k = k.astype(float)
    geo = (2.0 / d) * ((k + 1.0) ** d - k ** d)
    return (d - 1) * np.log1p(k) - np.log(geo)


def seq_norm_fspqd(c: CoefficientGrid, params: SpaceParams) -> float:
    """|| (sum_j 2^{jsq} sum_k s_{j,k}^q chi^#_{j,k})^{1/q} | L_p(R, |t|^{d-1}) ||.

    Evaluated exactly on the elementary-interval lattice of the annuli
    present, where the inner function is piecewise constant; chi^# is the
    mass-normalized indicator, so the integrand is
    (sum_{j,k} 2^{jsq} shat_{j,k}^q chi_{j,k})^{p/q} against the weighted
    measure, with shat the mass-normalized coefficients.
    """
    s, p, q, d = params.s, params.p, params.q, params.d
    _check_pq(p, q, allow_p_inf=False)
    los, his, log_coef, per_level = [], [], [], []
    for j in sorted(c.levels):
        k = np.flatnonzero(c.levels[j])
        if k.size == 0:
            continue
        los.append(2.0 ** (-j) * k)
        his.append(2.0 ** (-j) * (k + 1))
        # level weight times shat in log space: |s| (mass / geometric mass)^{1/p}
        log_coef.append(j * s * LN2 + (
            np.log(np.abs(c.levels[j][k])) + _mass_ratio_log(k, d) / p))
        per_level.append(k.size)
    if not per_level:
        return 0.0
    los, his, log_coef = map(np.concatenate, (los, his, log_coef))
    # column of each entry: one per level present, in ascending j
    col = np.repeat(np.arange(len(per_level)), per_level)

    bps = np.unique(np.concatenate([los, his]))
    # entry e covers the elementary intervals first[e] .. first[e] + run[e] - 1
    first = np.searchsorted(bps, los)
    run = np.searchsorted(bps, his) - first
    rows = np.arange(run.sum()) + np.repeat(first - (np.cumsum(run) - run), run)
    # one column per level: annuli of one level have disjoint interiors
    log_piece = np.full((bps.size - 1, len(per_level)), -np.inf)
    log_piece[rows, np.repeat(col, run)] = np.repeat(log_coef, run)
    # geometric weighted mass of each elementary interval: (2/d)(b^d - a^d)
    log_mass = np.log(2.0 / d) + np.log(bps[1:] ** d - bps[:-1] ** d)

    if math.isinf(q):
        log_inner = np.max(log_piece, axis=1)
    else:
        log_inner = _logsumexp(q * log_piece, axis=1) / q
    keep = log_inner > -np.inf
    if not np.any(keep):
        return 0.0
    log_total = _logsumexp(p * log_inner[keep] + log_mass[keep])
    return math.exp(log_total / p)

