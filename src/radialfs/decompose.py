"""Even-atom decompositions, trace-space norms, and reference norms.

Decomposition scheme: a quasi-interpolant by the centred cubic B-spline N
(support [-2, 2]) with cell-average functionals (de Boor-Fix dual
functionals; Strang-Fix for the reproduction of cubics).  At level j, a_k is
the exact mean of the piecewise-linear profile g over 2^{-j}[k - 1/2, k + 1/2]
(a_{-k} = a_k), lambda_{jk} = (-5 a_{k-1} + 34 a_k - 5 a_{k+1}) / 24, and
Q_j g = sum_k lambda_{jk} N(2^j t - k).  The coefficients are the level
differences d_{jk} = lambda_{jk} - (lambda_{j-1} refined by the mask
(1, 4, 6, 4, 1)/8)_k, which telescope to Q_J g; slot (j, k), k >= 0, carries
the even atom N(2^j t - k) + N(2^j t + k) (N(2^j t) at k = 0).  On a smooth
profile the residual falls like 2^{-4j} until it meets the O(h^2) error of
g's linear interpolation between the nodes.

N is C^2 but not C^3 (sup |N| = sup |N'| = 2/3, sup |N''| = 2) and has no
vanishing moments: up to a constant and a fixed dilation of their intervals,
the spline atoms are even L-atoms for L <= 2 and M = -1 only.  Cell means,
unlike point values, are bounded on L_p, so the coefficients also see
smoothness below 1/p.

A decomposition with a residual history keeps its levels and its half-line
set-up for the next call on the same profile object (``decompose_profile``):
a sweep over J computes each level once.

The trace-space norms report the sequence norm of the constructed
decomposition: an upper bound for the infimum in the definition, equivalent
up to constants.  All downstream assertions are therefore phrased as scaling
exponents or bounded ratios, never absolute values.  The Littlewood-Paley
norm ``lp_besov_norm_1d``, their cross-check, reduces every band one way
(``_band_norm``): half-line samples against one cached weight table.  Its
band norms depend on the profile, the grid, the weight and p but not on s
or q, so it keeps them for its last few calls: a sweep over s and q on one
profile transforms once.

Both memos (``_LiveMemo``) hold entries of live profile objects only, by
weak reference, check the samples they were computed from before every
reuse, and hand back exactly the floats a fresh call computes.
"""

from __future__ import annotations

import math
import mmap
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .bump import bump_derivative_sup, smoothstep
from .core import Grid1D, RadialProfile, _gradients, weighted_lp_norm
from .covering import AtomSpec
from .errors import DecompositionError, InvalidParameterError
from .seqspaces import (CoefficientGrid, _combine_levels, seq_norm_bspqd,
                        seq_norm_fspqd)
from .spaces import SpaceParams, _check_int, sigma_p, sigma_pq

__all__ = ["AtomicDecomposition", "atom_normalization", "decompose_profile",
           "tb_norm", "tf_norm", "lp_besov_norm_1d", "sobolev_radial_norm_1"]

LN2 = math.log(2.0)
# A stalled residual raises only above this share of the profile's norm.
STALL_RTOL = 1e-4


def atom_normalization(L: int) -> float:
    """max over n <= L of 4^n sup |bump^(n)|: the constant that makes the
    bump of radius 2^{-j-1} an even L-atom at level j."""
    return max(bump_derivative_sup(n) * 4.0 ** n for n in range(L + 1))


def _integral(u: np.ndarray, x: np.ndarray, y: np.ndarray,
              C: np.ndarray) -> np.ndarray:
    """int_0^u g, odd in u, for g linear between the half-line nodes x
    (x_0 = 0) with values y and zero past x[-1]; C holds it at the nodes."""
    a = np.minimum(np.abs(u), x[-1])
    i = np.minimum(np.searchsorted(x, a, "right") - 1, x.size - 2)
    s = a - x[i]
    slope = (y[i + 1] - y[i]) / (x[i + 1] - x[i])
    return np.sign(u) * (C[i] + s * (y[i] + 0.5 * s * slope))


def _cell_spline_coeffs(j: int, k_lo: int, k_hi: int, x: np.ndarray,
                        y: np.ndarray, C: np.ndarray) -> np.ndarray:
    """lambda_{jk} for k_lo <= k <= k_hi from the cell means a_{k-1..k+1}."""
    edges = (np.arange(k_lo - 1, k_hi + 3) - 0.5) * 2.0 ** -j
    a = np.diff(_integral(edges, x, y, C)) * 2.0 ** j
    return (34.0 * a[1:-1] - 5.0 * (a[:-2] + a[2:])) / 24.0


def _mirrored(c: np.ndarray, zeros: int) -> np.ndarray:
    """c_k at index k + 1 for k = -1 .. c.size - 1 (c_{-1} = c_1), then
    ``zeros`` (>= 2) zeros."""
    out = np.zeros(c.size + 1 + zeros)
    out[1:c.size + 1] = c
    out[0] = out[2]
    return out


def _refine(c: np.ndarray) -> np.ndarray:
    """Slots 0 .. 2 c.size at level j of sum_k c_k N(2^{j-1} t - k), k over Z
    with c_{-k} = c_k: the mask (1, 4, 6, 4, 1)/8."""
    m, e = c.size, _mirrored(c, 2)
    out = np.empty(2 * m + 1)
    out[0::2] = (e[:m + 1] + 6.0 * e[1:m + 2] + e[2:]) / 8.0
    out[1::2] = (e[1:m + 1] + e[2:m + 2]) / 2.0
    return out


def _spline_values(lam: np.ndarray, t: np.ndarray, j: int) -> np.ndarray:
    """sum_k lam_k N(2^j t - k) at points t >= 0, k over Z with lam_{-k} =
    lam_k and zero past lam's end.  On the cell m <= 2^j t < m + 1 it is a
    cubic in f = 2^j t - m whose coefficients come from lam_{m-1 .. m+2}."""
    c = _mirrored(lam, 5)
    c0, c1, c2, c3 = c[:-3], c[1:-2], c[2:-1], c[3:]
    cubic = np.array([c0 + 4.0 * c1 + c2, 3.0 * (c2 - c0),
                      3.0 * (c0 + c2) - 6.0 * c1, c3 - c0 + 3.0 * (c1 - c2)]) / 6.0
    u = np.minimum(t * 2.0 ** j, lam.size + 2.0)   # 0 past the last atom
    m = u.astype(np.intp)
    f = u - m
    a0, a1, a2, a3 = cubic[:, m]
    return a0 + f * (a1 + f * (a2 + f * a3))


@dataclass
class AtomicDecomposition:
    """Coefficients with their atom orders and grid; ``residual_history``
    holds the reconstruction residual after each level when one was asked
    for, else it is empty."""

    coefficients: CoefficientGrid
    spec: AtomSpec
    grid: Grid1D
    residual_history: List[float]
    values: Optional[np.ndarray] = None     # the decomposed profile's samples


class _LiveMemo:
    """At most ``size`` entries, oldest first, each computed for one live
    profile object: a NamedTuple whose ``ref`` is a weak reference to that
    profile and whose ``key`` names what else the entry depends on.  An
    entry goes when its profile dies, so the memo keeps no profile alive,
    and a new profile at an old one's address cannot read its entries."""

    def __init__(self, size: int):
        self.size = size
        self.entries: List[NamedTuple] = []

    def ref(self, g: RadialProfile) -> weakref.ref:
        """A weak reference to g for a new entry, which drops the entry when
        g dies."""
        return weakref.ref(g, self._forget)

    def _forget(self, ref: weakref.ref) -> None:
        self.entries = [memo for memo in self.entries if memo.ref is not ref]

    def find(self, g: RadialProfile, key: tuple) -> Optional[NamedTuple]:
        """The entry of the live profile object g with this key, or None."""
        for memo in self.entries:
            if memo.ref() is g and memo.key == key:
                return memo
        return None

    def put(self, entry: NamedTuple) -> None:
        """Keep ``entry`` as the newest, in place of an entry of its profile
        with its key, and drop the oldest past ``size``."""
        g = entry.ref()
        kept = [memo for memo in self.entries
                if memo.ref() is not g or memo.key != entry.key]
        self.entries = (kept + [entry])[-self.size:]


def _half_line(t_half: np.ndarray, g_half: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """(x, y, C, lo, hi) of the samples g_half at the half-line nodes t_half
    (t_half[0] >= 0): g is linear between the nodes x (x_0 = 0) with values
    y, C is its integral at the nodes, and g = 0 outside [lo, hi]."""
    x, y = t_half, g_half                    # from x_0 = 0: g is flat on [-t_0, t_0]
    if t_half[0] > 0.0:
        x, y = np.concatenate([[0.0], x]), np.concatenate([y[:1], y])
    C = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])
    nonzero = np.flatnonzero(y)
    first, last = (nonzero[0], nonzero[-1]) if nonzero.size else (0, 0)
    lo, hi = x[max(first - 1, 0)], x[min(last + 1, x.size - 1)]  # g = 0 outside
    return x, y, C, lo, hi


class _Resume(NamedTuple):
    """decompose_profile's last decomposition with a history: levels 0..J,
    the residual after each and level J's lambda, of the profile that
    ``ref`` points to, decomposed from ``samples`` (copies of its half-line
    nodes and values, which ``half`` was made from) with the residual's
    (p, dimension) ``key``."""

    ref: weakref.ref
    key: Tuple[float, int]
    samples: Tuple[np.ndarray, np.ndarray]
    half: Tuple[np.ndarray, np.ndarray, np.ndarray, float, float]
    levels: Dict[int, np.ndarray]
    history: Tuple[float, ...]
    lam: np.ndarray
    J: int


_resume = _LiveMemo(1)


def _resumable(g: RadialProfile, key: Tuple[float, int], t_half: np.ndarray,
               g_half: np.ndarray) -> Optional[_Resume]:
    """The entry, when it is of this live profile object with this key and
    the profile's half-line nodes and values are still the ones it read."""
    memo = _resume.find(g, key)
    if (memo is None or not np.array_equal(memo.samples[0], t_half)
            or not np.array_equal(memo.samples[1], g_half)):
        return None
    return memo


def decompose_profile(g: RadialProfile, spec: AtomSpec, J: int = 10,
                      raise_on_stall: bool = True,
                      track_history: bool = True) -> AtomicDecomposition:
    """The quasi-interpolant decomposition (module docstring) of an even
    profile, levels 0..J, for a spec with L <= 2 and M = -1.  The
    coefficients depend on neither the dimension nor p.

    With ``track_history`` the residual g - Q_j g is recorded after every
    level: the weighted L_p norm of the profile's dimension (``dim_context``,
    then required) by the grid's trapezoid, as ``weighted_lp_norm``, and the
    maximum at p = inf; p < 1 counts as 1.  Then, when ``raise_on_stall`` is
    set, DecompositionError is raised if the residual stalls (residual at J
    above residual at J-2 and above STALL_RTOL times the profile's norm).
    Without a history no residual is measured and ``residual_history`` is
    [].  lambda_j and the residual are computed only within a few cells of
    g's nonzero hull; outside, both are exactly 0.  Level j's differences
    are one array dense from k = 0, read-only.

    A call with a history resumes the last such call when both are of the
    same live profile object, with the same p (after the clamp) and
    ``dim_context``, and g's half-line nodes and values still equal the
    copies that call kept: it takes levels 0..min(J, J_last) and their
    residuals as they are and goes on from J_last's lambda, with the
    half-line set-up (g's integral C at the nodes and its nonzero hull) that
    call made from the copies.  Level j reads only level j - 1's lambda and
    that set-up, so every float is a fresh call's, and a J-sweep computes
    each level once.  Any other call with a history starts from level 0 and
    replaces the entry: a weak reference to the profile (it goes when the
    profile does), the key, the sample copies, the set-up, the level arrays
    (shared, hence read-only), the residuals and the deepest lambda.  The
    weight t^(d-1) and the spacings are made again by every call with a
    history: they cost little, and keeping them would hold two more arrays
    of the half line's length.  Calls without a history neither read nor
    keep the entry.  The stall check reads the returned history, so a
    resumed call raises where a fresh one would.
    """
    _check_int("J", J, 0)
    if spec.L > 2 or spec.M >= 0:
        raise InvalidParameterError(
            f"the cubic spline atoms serve L <= 2 and no moments (M = -1); "
            f"got L = {spec.L}, M = {spec.M}")
    if track_history and g.dim_context is None:
        raise InvalidParameterError(
            "a residual history needs the profile's dimension (dim_context)")
    t_grid = g.grid.nodes
    i0 = int(np.searchsorted(t_grid, 0.0))   # the half line t >= 0 is t_grid[i0:]
    t_half, g_half = t_grid[i0:], g.values[i0:]

    levels: Dict[int, np.ndarray] = {}
    history: List[float] = []
    lam, start, memo = np.zeros(0), 0, None
    if not track_history:
        half = _half_line(t_half, g_half)
    else:
        p_norm = max(1.0, spec.p)
        weight, spacing = t_half ** (int(g.dim_context) - 1), np.diff(t_half)
        key = (p_norm, g.dim_context)
        memo = _resumable(g, key, t_half, g_half)
        if memo is None:
            samples = (t_half.copy(), g_half.copy())
            half = _half_line(*samples)
        else:
            samples, half = memo.samples, memo.half
            top = min(J, memo.J)
            levels = {j: memo.levels[j] for j in range(top + 1)}
            history = list(memo.history[:top + 1])
            lam, start = memo.lam, memo.J + 1
    x, y, C, lo, hi = half
    for j in range(start, J + 1):
        scale = 2.0 ** j
        k_lo = max(0, math.floor(scale * lo - 0.5) - 1)
        k_hi = math.ceil(scale * hi + 0.5) + 1
        coarse = _refine(lam) if j else lam
        lam = np.concatenate([np.zeros(k_lo),
                              _cell_spline_coeffs(j, k_lo, k_hi, x, y, C)])
        level = np.zeros(max(lam.size, coarse.size))
        level[:lam.size] = lam
        level[:coarse.size] -= coarse
        level.flags.writeable = False     # shared with later resumed calls
        levels[j] = level
        if not track_history:
            continue
        # Q_j g and g vanish outside ((k_lo - 2) 2^-j, (k_hi + 2) 2^-j); the
        # trapezoid also takes the node on either side
        a = max(int(np.searchsorted(t_half, (k_lo - 2) / scale)) - 1, 0)
        b = int(np.searchsorted(t_half, (k_hi + 2) / scale)) + 1
        r = np.abs(g_half[a:b] - _spline_values(lam, t_half[a:b], j))
        if math.isinf(p_norm):
            history.append(float(r.max()))
            continue
        v = r ** p_norm * weight[a:b]
        mass = float(np.sum((v[1:] + v[:-1]) * spacing[a:b - 1]))
        if a == 0 and t_half[0] > 0.0:
            mass += 2.0 * t_half[0] * v[0]   # the middle cell [-t_0, t_0]
        history.append(mass ** (1.0 / p_norm))
    if track_history and J >= start:
        _resume.put(_Resume(_resume.ref(g), key, samples, half, dict(levels),
                            tuple(history), lam, J))

    if raise_on_stall and len(history) >= 3 and history[-1] > history[-3]:
        g_scale = weighted_lp_norm(g, p_norm, g.dim_context)
        if g_scale > 0 and history[-1] > STALL_RTOL * g_scale:
            raise DecompositionError(
                f"residual stalls: {history[-1]:.3g} at J={J} vs "
                f"{history[-3]:.3g} at J={J - 2}")

    return AtomicDecomposition(CoefficientGrid(levels), spec, g.grid,
                               residual_history=history, values=g.values)


def _checked_decomposition(g: RadialProfile, params: SpaceParams, spec: AtomSpec,
                           J: int, decomposition: Optional[AtomicDecomposition],
                           sigma: float) -> AtomicDecomposition:
    """A fresh decomposition of g at J with the admissible ``spec``, or else
    ``decomposition``, which must be one of g (its grid and its values) and
    whose own spec is checked."""
    if decomposition is None:
        return decompose_profile(g, spec, J=J, track_history=False)
    if not np.array_equal(decomposition.grid.nodes, g.grid.nodes):
        raise InvalidParameterError("the decomposition is not on g's grid")
    # the values are most often g's own array: identity first
    if (decomposition.values is not g.values
            and not np.array_equal(decomposition.values, g.values)):
        raise InvalidParameterError("the decomposition is not one of g")
    decomposition.spec.require_admissible(params.s, params.p, sigma)
    return decomposition


def tb_norm(g: RadialProfile, params: SpaceParams, J: int = 10,
            decomposition: Optional[AtomicDecomposition] = None) -> float:
    """b^s_{p,q,d} sequence norm of the constructed decomposition.

    An upper bound of the infimum in the trace-space definition; use only in
    ratio or scaling-exponent assertions.  A fresh decomposition at J uses
    the least admissible atoms (``AtomSpec.b_admissible``); a given
    ``decomposition`` is checked by its own spec.
    """
    dec = _checked_decomposition(
        g, params, AtomSpec.b_admissible(params.s, params.p, params.d),
        J, decomposition, sigma_p(params.p, params.d))
    return seq_norm_bspqd(dec.coefficients, params)


def tf_norm(g: RadialProfile, params: SpaceParams, J: int = 10,
            decomposition: Optional[AtomicDecomposition] = None) -> float:
    """f^s_{p,q,d} sequence norm of the constructed decomposition (J and
    ``decomposition`` as for ``tb_norm``, with ``AtomSpec.f_admissible``)."""
    dec = _checked_decomposition(
        g, params, AtomSpec.f_admissible(params.s, params.p, params.q, params.d),
        J, decomposition, sigma_pq(params.p, params.q, params.d))
    return seq_norm_fspqd(dec.coefficients, params)


# ---------------------------------------------------------------------------
# Littlewood-Paley reference norm


def _lowpass_window(xi: np.ndarray) -> np.ndarray:
    """C^inf window: 1 for |xi| <= 1, 0 for |xi| >= 2."""
    return smoothstep((2.0 - np.abs(xi)) / 1.0)


def _level_lowpass(xi: np.ndarray, j: int) -> np.ndarray:
    """_lowpass_window(xi / 2^j) on ascending xi >= 0.

    smoothstep is evaluated only on the transition band 2^j < xi < 2^{j+1};
    below it the window is exactly 1 and above it exactly 0.
    """
    lo = int(np.searchsorted(xi, 2.0 ** j, side="right"))
    hi = int(np.searchsorted(xi, 2.0 ** (j + 1), side="left"))
    win = np.zeros_like(xi)
    win[:lo] = 1.0
    win[lo:hi] = _lowpass_window(xi[lo:hi] / 2.0 ** j)
    return win


# Lengths n <= _FOLD_CUT end the Makhoul fold in one irfft: below it a fold
# level costs more in Python and dispatch than it saves in the transform.
_FOLD_CUT = 2 ** 12


@lru_cache(maxsize=None)
def _dct3_twiddles(m: int) -> np.ndarray:
    """tw_f = exp(i pi f / 2m) / 4 for f <= m/2; tw_{m/2}[k] = tw_m[2k]."""
    return 0.25 * np.exp(0.5j * math.pi / m * np.arange(m // 2 + 1))


def _even_dft(X: np.ndarray, n: int, out: np.ndarray,
              work: np.ndarray) -> np.ndarray:
    """Write into out x[0..n//2] of the even length-n sequence (x[n-k] = x[k])
    whose DFT is the real X[0..n//2], scaled as ``np.fft.irfft``; n times
    this is the DFT of the even sequence x[0..n//2].  ``work`` holds at least
    n/2 + log2(n) floats.  For n = 4m > _FOLD_CUT, fold f with 2m - f
    (Makhoul 1980): x[2r] is half this transform at 2m of Y_f = X_f + X_{2m-f},
    f <= m (Y_0 = X_0 + X_{2m}, Y_m = 2 X_m), and x[2r+1] is the DCT-III of
    z_f = X_f - X_{2m-f}, f < m, over n.  That DCT-III is one length-m irfft
    of W_f = tw_f (z_f - i z_{m-f}), f <= m/2 (z_m = 0), whose output v holds
    x[4r+1] = v[r] and x[4r+3] = v[m-1-r].  Each level halves n and takes
    m + 1 floats of ``work`` for Y; other n end in one irfft.
    """
    top, step = out, 1
    while n % 4 == 0 and n > _FOLD_CUT:
        m, f = n // 4, n // 8 + 1
        W = work[:2 * f].view(complex)
        np.subtract(X[:f], X[2 * m:2 * m - f:-1], out=W.real)
        np.subtract(X[m:m + f], X[m:m - f:-1], out=W.imag)   # -z_{m-f}; z_m = 0
        W *= _dct3_twiddles(m * step)[:step * f:step]   # the top level's table
        v = np.fft.irfft(W, m, out=work[2 * f:2 * f + m])
        # level k's outputs carry the halvings of the k levels above it
        np.divide(v[:(m + 1) // 2], step, out=out[1::4])
        np.divide(v[m - 1:(m - 1) // 2:-1], step, out=out[3::4])
        X = np.add(X[:m + 1], X[2 * m:m - 1:-1], out=work[:m + 1])
        n, out, work, step = 2 * m, out[0::2], work[m + 1:], 2 * step
    np.divide(np.fft.irfft(X, n)[:n // 2 + 1], step, out=out)
    return top


def _fft_grid(n: int, T: float, m: int) -> np.ndarray:
    """The first m nodes t_k = -T + 2Tk/n of the periodic n-point grid."""
    t = np.arange(m, dtype=float)
    t *= 2.0 * T
    t /= n
    t -= T
    return t


# The plans below depend only on the grid.  Each keeps its last three grids
# (the spacings a sweep over T = 4, 5, 6 needs), read-only: _band_plan
# n/2 + 1 floats per (n, h), _weight_plan about n floats per (n, e).
_PLAN_ENTRIES = 3


def _plan_array(size: int) -> np.ndarray:
    """size zero-filled floats in an anonymous mapping of their own.

    A long-lived array on the malloc heap keeps the freed pages below it
    resident; its own mapping leaves the heap free to shrink."""
    return np.frombuffer(mmap.mmap(-1, 8 * size), dtype=float)


@lru_cache(maxsize=_PLAN_ENTRIES)
def _band_plan(n: int, h: float) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """The ramp and edges of the band windows on the n-point grid of spacing h.

    On the half spectrum xi_f = 2 pi f / (n h), f <= n/2, edges[k] is the
    first bin with xi >= 2^k for k = 0..J_max + 1,
    J_max = max(1, ceil(log2 xi_max)).  The ramp is 0 below edges[0] and
    _level_lowpass(xi, k) on [edges[k], edges[k+1]).  Level k's low-pass is 1
    up to 2^k and 0 from 2^{k+1} on, so band j's window low_j - low_{j-1}
    (low_{-1} = 0) is 1 - ramp on [edges[j-1], edges[j]) and the ramp on
    [edges[j], edges[j+1]): the floats of the windows built level by level.
    The top band J_max has the window 1 from 2^J_max on, where the only bin
    there can be, xi = 2^J_max, has ramp 1.
    """
    xi = 2.0 * math.pi * np.fft.rfftfreq(n, d=h)
    J_max = max(1, int(math.ceil(math.log2(xi[-1]))))
    edges = tuple(np.searchsorted(xi, 2.0 ** np.arange(J_max + 2)).tolist())
    ramp = _plan_array(xi.size)
    for k in range(J_max + 1):
        part = slice(edges[k], edges[k + 1])
        ramp[part] = _level_lowpass(xi[part], k)
    ramp.flags.writeable = False
    return ramp, edges


@lru_cache(maxsize=_PLAN_ENTRIES)
def _weight_plan(n: int, e: int) -> Tuple[np.ndarray, Dict[int, slice]]:
    """Tables of the weight w = |t/T|^e on the n-point grid, in one read-only
    array, and the slice of each: ``_band_norm``'s weighted band mass is T^e
    times the dot of a table with |u|^p.

    Every table carries the half-line multiplicities m_r (1 at r = 0 and at
    r = M/2, 2 between), so sum_{r<M} v_r = sum_{r <= M/2} m_r v_r for an even
    sequence v.  Table n holds m_k w_k, k <= n//2, and u is the band x on the
    half line.  Table M, for M = 1 and the powers of two 8 <= M <= n/2, holds
    (M^2/n) m_r w~_M[r], r <= M/2: w~_M is _even_dft over M of the weight's
    spectrum w~ = _even_dft(w, n) cut to bins f < max(1, M/2), and u is
    _even_dft over M of x's spectrum, n/M times x on the M-point grid.  When
    x's spectrum ends at bin b - 1 with 4(b-1) < M, x^2 lives on bins
    f <= 2(b-1) < max(1, M/2), where w and its cut agree, and the cut times x^2
    has degree < M: its n-point sum is n/M times its M-point sum, so
    sum_{k<n} w_k x_k^2 = (M^2/n) sum_{r<M} w~_M[r] u_r^2.
    """
    size = n // 2 + 1
    Ms = [1] + [1 << k for k in range(3, (n // 2).bit_length())]
    slices, at = {n: slice(0, size)}, size
    for M in Ms:
        slices[M] = slice(at, at + M // 2 + 1)
        at += M // 2 + 1
    tables = _plan_array(at)
    work = np.empty(n // 2 + n.bit_length())
    w = tables[:size]
    np.power(np.abs(_fft_grid(n, 1.0, size)), e, out=w)
    spectrum = _even_dft(w, n, np.empty(size), work)
    for M in Ms:
        cut = np.zeros(M // 2 + 1)
        keep = max(1, M // 2)
        cut[:keep] = spectrum[:keep]
        table = _even_dft(cut, M, tables[slices[M]], work)
        table *= M * M / n
        table[1:M // 2] *= 2.0
    w[1:(n + 1) // 2] *= 2.0
    tables.flags.writeable = False
    return tables, slices


def _fft_samples(g: RadialProfile, n_fft: int,
                 T: Optional[float]) -> Tuple[int, float, np.ndarray]:
    """Check the grid, then return n = n_fft as an int, T as a float (the
    grid's reach when None) and the profile's samples at the n//2 + 1 points
    t <= 0 of the periodic grid t_k = -T + 2Tk/n.

    t_{n-k} = -t_k, so the even profile's samples on all n points are an
    even sequence, and these are its entries 0..n//2."""
    _check_int("n_fft", n_fft, 2)
    if not (T is None or (math.isfinite(T) and T > 0)):
        raise InvalidParameterError(f"need a finite T > 0, got T={T}")
    if T is None:
        T = np.abs(g.grid.nodes).max()
    elif np.any(np.abs(g.grid.nodes[g.values != 0.0]) > T):
        raise InvalidParameterError(f"T = {T} cuts the profile's support")
    n, T = int(n_fft), float(T)     # a numpy integer has no bit_length
    return n, T, g(_fft_grid(n, T, n // 2 + 1))


def _dyadic_bands(n: int, T: float, x: np.ndarray):
    """The spacing h, the top level J, a work buffer and a generator of the
    band spectra 0..J of the even sequence x[0..n//2] (``_fft_samples``) on
    the n-point grid of reach T.  J = J_max of ``_band_plan``: 2^J covers
    the grid's spectrum, so bands above it would be empty.

    The spectrum, real and even, is one _even_dft of x.  That is the
    generator's first step, so no transform runs before it is consumed.  It
    then yields (a, b, X): X holds band j's half spectrum (bins 0..n//2),
    its window from the cached ``_band_plan`` times the spectrum on bins
    a..b-1 and zero elsewhere, in one buffer that the next band overwrites.
    ``work`` serves every _even_dft of length <= n.  All buffers are made
    once per call: fresh full-length arrays per band cost page faults.
    """
    size = n // 2 + 1
    t01 = _fft_grid(n, T, 2)
    h = float(t01[1] - t01[0])
    ramp, edges = _band_plan(n, h)
    J = len(edges) - 2
    work = np.empty(n // 2 + n.bit_length())

    def bands():
        spec = _even_dft(x, n, np.empty(size), work)
        spec *= n
        product = np.zeros(size)
        for j in range(J + 1):
            a, mid, b = edges[j - 1] if j else 0, edges[j], edges[j + 1]
            np.subtract(1.0, ramp[a:mid], out=product[a:mid])
            product[mid:b] = ramp[mid:b]
            product[a:b] *= spec[a:b]
            yield a, b, product
            product[a:b] = 0.0

    return h, J, work, bands()


def _band_norm(X: np.ndarray, a: int, b: int, n: int, p: float,
               weights: Optional[Tuple[np.ndarray, Dict[int, slice]]],
               work: np.ndarray, scratch: np.ndarray) -> float:
    """sum_k w_k |x_k|^p / T^e over the n-point grid (max_k |x_k| at p = inf)
    for the band x whose half spectrum X is zero outside bins a..b-1, with
    w = |t|^e of ``weights``, ``_weight_plan``'s tables.

    x is even: it is sampled on the half line t <= 0 by one _even_dft of
    length n, and |x|^p is dotted with table n, which carries the
    multiplicities.  At p = 2, for M the least power of two above 4(b-1),
    a band with M <= n/2 is sampled at length M and dotted with table M;
    unweighted (weights None, at p = 2 only) the mass is Parseval's
    (1/n) sum_f m_f X_f^2, m_f = 1 at f = 0 and at the Nyquist bin f = n/2
    and 2 between, with no transform.  ``scratch`` holds n//2 + 1 floats.
    """
    if a == b:
        return 0.0
    if weights is None:
        B = X[a:b]
        mass = 2.0 * float(np.dot(B, B))
        if a == 0:
            mass -= B[0] ** 2
        if 2 * (b - 1) == n:
            mass -= B[-1] ** 2
        return mass / n
    tables, slices = weights
    M = 1 << (4 * (b - 1)).bit_length() if p == 2 else n
    if M > n // 2:
        M = n
    half = M // 2 + 1
    u = _even_dft(X[:half], M, scratch[:half], work)
    if p == 2:
        np.square(u, out=u)      # one pass, where abs and ** take two
    else:
        np.abs(u, out=u)
        if math.isinf(p):
            return float(np.max(u))
        u **= p
    return float(np.dot(tables[slices[M]], u))


def _sample_bits(x: np.ndarray) -> Tuple[int, bytes]:
    """(a, the bytes of x[a:b]) for the least span a..b-1 outside which every
    entry of x has the bits of +0.0: equal for two arrays of one length
    exactly when their bits are, and small for a profile whose support is
    small against the FFT grid."""
    nonzero = np.flatnonzero(x.view(np.int64))
    if nonzero.size == 0:
        return 0, b""
    return int(nonzero[0]), x[nonzero[0]:nonzero[-1] + 1].tobytes()


class _BandNorms(NamedTuple):
    """lp_besov_norm_1d's band norms ||phi_j * g | L_p(|t|^e)||, j = 0..J, of
    the profile that ``ref`` points to, from its FFT-grid samples, kept as
    their ``_sample_bits``, with the ``key`` (n_fft, T, e weighted or None
    unweighted, p)."""

    ref: weakref.ref
    key: Tuple[int, float, Optional[int], float]
    samples: Tuple[int, bytes]
    norms: Tuple[float, ...]


_band_norms = _LiveMemo(_PLAN_ENTRIES)


def lp_besov_norm_1d(g: RadialProfile, params: SpaceParams,
                     weighted: bool = True, n_fft: int = 2 ** 16,
                     T: Optional[float] = None) -> float:
    """Fourier-analytic reference norm (sum_j 2^{jsq} ||phi_j * g||_{L_p}^q)^{1/q}.

    ``weighted`` applies the half-line weight |t|^{d-1} inside the L_p norms,
    which makes the value a numerical stand-in for the d-dimensional norm of
    the radial extension (equivalent up to constants).  Independent of the
    atomic machinery: serves as its cross-check.

    Band 0 is the low-pass |xi| <= 2; band j lives on 2^{j-1} <= |xi| <= 2^{j+1}.
    The telescoped windows sum to 1 on the whole discrete spectrum, and they
    depend only on the grid, cached per (n_fft, spacing) (``_band_plan``).
    The even profile's samples on the periodic grid are an even sequence and
    the windows are even in xi, so spectrum and bands are real and even:
    cosine transforms, folded into a half-length one and a quarter-length
    DCT-III (one numpy irfft) until the length is at most _FOLD_CUT = 4096,
    then one irfft (``_even_dft``).  The bands are made and reduced one at a
    time by ``_band_norm``: each is sampled once on the half line t <= 0 and
    |x|^p is dotted with a table of the multiplicities times |t/T|^e, e = d - 1
    weighted and 0 unweighted, cached per (n_fft, e) (``_weight_plan``;
    |t|^e = T^e |t/T|^e serves every T).  At p = 2 a narrow band is sampled
    on a shorter grid where x^2 does not alias, and unweighted comes from its
    spectrum by Parseval.  ``n_fft`` must be an integer >= 2, and T, when
    given, finite and positive.

    The band norms ||phi_j * g | L_p(|t|^e)|| do not depend on s or q, and
    the last ``_PLAN_ENTRIES`` (3) calls' are kept (``_band_norms``), keyed
    by the live profile object and (n_fft, T after its default, the route,
    p); the route is e = d - 1 weighted, or unweighted, since weighted
    d = 1 and unweighted p = 2 both have e = 0 but round apart (weight
    table against Parseval).  A call finds its entry only when the FFT-grid
    samples it makes anyway have the bits of that entry's samples (kept as
    their nonzero span), so a profile edited in place misses; it then skips
    the spectrum and every band transform and combines the kept norms with
    its own s and q by the same j s log 2 + log(norm) and
    ``_combine_levels``: equal samples, grid, route and p give the same
    norms, so the value is a fresh call's to the bit.  An entry goes when
    its profile dies, or as the oldest when a fourth is made; an equal but
    distinct profile object makes its own.
    """
    s, p, q, d = params.s, params.p, params.q, params.d
    n, T, x = _fft_samples(g, n_fft, T)
    e = d - 1 if weighted else 0
    key = (n, T, e if weighted else None, p)
    bits = _sample_bits(x)
    memo = _band_norms.find(g, key)
    if memo is not None and memo.samples == bits:
        norms = memo.norms
    else:
        h, _, work, bands = _dyadic_bands(n, T, x)
        # built before the bands fill this call's buffers: the build's
        # temporaries are freed first
        weights = None if p == 2 and not weighted else _weight_plan(n, e)
        scratch = np.empty(n // 2 + 1)
        norms = []
        for a, b, X in bands:
            nrm = _band_norm(X, a, b, n, p, weights, work, scratch)
            if nrm > 0 and not math.isinf(p):
                nrm = (nrm * T ** e * h) ** (1.0 / p)
            norms.append(nrm)
        _band_norms.put(_BandNorms(_band_norms.ref(g), key, bits, tuple(norms)))
    return _combine_levels([j * s * LN2 + math.log(nrm)
                            for j, nrm in enumerate(norms) if nrm > 0], q)


# ---------------------------------------------------------------------------
# Radial Sobolev norms


def sobolev_radial_norm_1(g: RadialProfile, p: float, d: int) -> float:
    """||g | L_p(|t|^{d-1})|| + ||g' | L_p(|t|^{d-1})||."""
    if p < 1:
        raise InvalidParameterError("p >= 1 required (Sobolev regime)")
    d1 = _gradients(g.values, g.grid.nodes, 1)[1]
    gp = RadialProfile(g.grid, 0.5 * (np.abs(d1) + np.abs(d1[::-1])))
    return weighted_lp_norm(g, p, d) + weighted_lp_norm(gp, p, d)
