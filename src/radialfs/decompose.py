"""Constructive even-atom decompositions, trace-space norms, and reference norms.

Decomposition scheme.  The slot (j, k) carries a template bump of support
radius 2^{-j-1} placed at the inner edge 2^{-j} k of its annulus (an
admissible center for the even-atom support window).  Collocation points are
then the full dyadic lattice: level 0 visits every integer radius, level
j >= 1 only the odd multiples of 2^{-j} (even multiples are coarser points,
already interpolated).  Coefficients are collocation values of the running
residual; the residual cascades to the next level.  Every template atom
vanishes at all other collocation points, so a single template atom is
reproduced exactly, and on smooth inputs the residual contracts by about a
factor 2 per level (the residual is pinned to zero on a 2^{-j}-dense set).

Support window.  Let [a, b] be the |t|-hull of the nonzero nodes of g and h
the largest grid spacing.  g interpolates to exactly 0 more than h from a
nonzero node, a level-i atom reaches 2^{-i-1} past its centre, and
sum_i 2^{-i-1} < 1, so by induction every nonzero coefficient and captured
value lies in the open window (a - h - 1, b + h + 1).  Outside it every
coefficient is (0 - 0) n0 = 0 and every captured term adds 0, so the cascade
visits only the lattice points and grid nodes inside, with the same floats.
The profile and the captured sum are exactly even (each captured value
depends on |t| alone), so the captured sum is kept on the half line t >= 0
only, and the cascade visits the window's nodes there; the residual is
mirrored onto the whole grid, with or without a node at 0, only when its
norm is taken.

The trace-space norms report the sequence norm of the constructed
decomposition: an upper bound for the infimum in the definition, equivalent
up to constants.  All downstream assertions are therefore phrased as scaling
exponents or bounded ratios, never absolute values.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bump import bump, bump_derivative_sup, smoothstep
from .core import Grid1D, RadialProfile, _gradients, weighted_lp_norm
from .covering import AtomSpec
from .errors import DecompositionError, InvalidParameterError
from .seqspaces import (CoefficientGrid, _combine_levels, seq_norm_bspqd,
                        seq_norm_fspqd)
from .spaces import SpaceParams, sigma_p, sigma_pq

__all__ = ["AtomicDecomposition", "DyadicBandSpectrum", "atom_normalization",
           "template_atom_values", "template_atom_profile", "decompose_profile",
           "tb_norm", "tf_norm", "lp_besov_norm_1d", "dyadic_band_spectrum",
           "sobolev_radial_norm_1"]

LN2 = math.log(2.0)
# Nodes per _add_level call of decompose_profile: small temporaries are
# reused from the heap, not mapped afresh on every level.
_CHUNK = 2 ** 13
# A stalled residual raises only above this share of the profile's norm.
STALL_RTOL = 1e-4


def atom_normalization(L: int) -> float:
    """N_L with sup |(template/N_L)^(n)| <= |I|^{-n} for all levels and n <= L."""
    return max(bump_derivative_sup(n) * 4.0 ** n for n in range(L + 1))


def template_atom_values(j: int, k: int, t: np.ndarray, L: int) -> np.ndarray:
    """The normalized even L-atom for interval index (j, k), evaluated at t."""
    t = np.asarray(t, dtype=float)
    n0 = atom_normalization(L)
    rho = 2.0 ** (-j - 1)
    if k == 0:
        return bump(t / rho) / n0
    c = 2.0 ** (-j) * k
    return (bump((t - c) / rho) + bump((t + c) / rho)) / n0


def template_atom_profile(j: int, k: int, grid: Grid1D, L: int = 2,
                          d: Optional[int] = None) -> RadialProfile:
    return RadialProfile.from_callable(
        lambda t: template_atom_values(j, k, t, L), grid, d=d)


def _collocation_indices(j: int, k_lo: int, k_hi: int) -> np.ndarray:
    """Slots k_lo <= k <= k_hi of level j: all k at level 0, odd k above."""
    if j == 0:
        return np.arange(k_lo, k_hi + 1)
    return np.arange(k_lo | 1, k_hi + 1, 2)


def _support_window(g: RadialProfile) -> Tuple[float, float, List[slice]]:
    """The window (lo, hi) of the module docstring in |t|, and slices of at
    most _CHUNK nodes that cover lo < t < hi, indexing the half line t >= 0
    of the sorted even grid (its nodes from searchsorted(t, 0) on)."""
    t = g.grid.nodes
    nonzero = np.abs(t[g.values != 0.0])
    if nonzero.size == 0:
        return 0.0, 0.0, []
    h = float(np.max(np.diff(t)))
    lo, hi = float(nonzero.min()) - h - 1.0, float(nonzero.max()) + h + 1.0
    half = t[np.searchsorted(t, 0.0):]
    start, stop = np.searchsorted(half, lo, "right"), np.searchsorted(half, hi, "left")
    return lo, hi, [slice(i, min(i + _CHUNK, stop)) for i in range(start, stop, _CHUNK)]


def _add_level(out: np.ndarray, t: np.ndarray, j: int, coeffs: np.ndarray,
               n0: float) -> None:
    """Add level j's captured atoms at points t >= 0 into out.

    Only the atom centred at the nearest level-j lattice point k = rint(2^j t)
    can be nonzero at t: neighbours sit at |t - c| >= 2^{-j-1} = rho, where
    the bump vanishes (scaling by 2^j is exact and rounding is monotone).  Its
    argument u = 2^{j+1} t - 2k is (t - 2^{-j} k) / rho bit for bit (scaling
    by a power of 2 commutes with rounding), |u| <= 1, and |u| = 1 gives
    exp(1 - 1/0) = 0 exactly, as ``bump`` does; so every point is evaluated
    in one buffer with no mask.  k = 0 has a single bump (already even);
    k >= 1 pairs with -c, which for t >= 0 only matters through |t|.
    """
    u = t * 2.0 ** j
    k = np.rint(u)
    u -= k
    u *= 2.0
    np.multiply(u, u, out=u)
    np.subtract(1.0, u, out=u)
    with np.errstate(divide="ignore"):
        np.divide(1.0, u, out=u)
    np.subtract(1.0, u, out=u)
    np.exp(u, out=u)
    u *= coeffs[k.astype(np.intp)]
    u /= n0
    out += u


def _eval_capture(coeff_levels: Dict[int, np.ndarray], t: np.ndarray,
                  L: int) -> np.ndarray:
    """Sum of captured atoms at points t, added level by level in key order."""
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    n0 = atom_normalization(L)
    top = float(t.max(initial=0.0))
    for j, coeffs in coeff_levels.items():
        # lattice slots past the last coefficient carry no atom
        k_top = int(np.rint(top * 2.0 ** j))
        if k_top >= coeffs.size:
            coeffs = np.pad(coeffs, (0, k_top + 1 - coeffs.size))
        _add_level(out, t, j, coeffs, n0)
    return out


@dataclass
class AtomicDecomposition:
    """Coefficients plus template references and the reconstruction residual."""

    coefficients: CoefficientGrid
    spec: AtomSpec
    J: int
    grid: Grid1D
    residual_norm: float
    residual_history: List[float]
    d: Optional[int] = None

    def reconstruction(self, t) -> np.ndarray:
        return _eval_capture(self.coefficients.levels, t, self.spec.L)

    def atom_profile(self, j: int, k: int) -> RadialProfile:
        return template_atom_profile(j, k, self.grid, self.spec.L, d=self.d)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# template=bump L={self.spec.L} M={self.spec.M} "
                     f"s={self.spec.s} p={self.spec.p} J={self.J}\n")
            fh.write("j,k,coefficient\n")
            self.coefficients._write_rows(fh)


def decompose_profile(g: RadialProfile, spec: AtomSpec, J: int = 10,
                      raise_on_stall: bool = True,
                      track_history: bool = True) -> AtomicDecomposition:
    """Multilevel collocation decomposition of an even compactly supported profile.

    Raises DecompositionError when the residual stalls (residual at J above
    residual at J-2 and above STALL_RTOL times the profile's norm) and
    ``raise_on_stall`` is set.  The captured sum on the
    half line t >= 0 of the grid is kept as one running array that gains
    only level j's atoms after level j; only the lattice points and the
    half-line nodes in the support window of the module docstring are
    visited (none for a zero profile), which gives the floats of a pass over
    the whole lattice and grid.  A collocation point on a grid node reads the
    running array there, which holds the floats ``_eval_capture`` would add
    up; only points between nodes are evaluated afresh.  ``track_history``
    records the weighted residual norm after every level (one full-grid
    trapezoid of the mirrored half-line integrand per level); without it
    only the final residual norm is computed.  Level j's coefficients are
    one array over its slots k = 0 .. ceil(2^j max|t|) + 1, zero where the
    cascade does not collocate or the coefficient is 0; the dict of levels
    0..J becomes the decomposition's ``CoefficientGrid`` without a copy.
    """
    if not g.grid.even:
        raise InvalidParameterError("decomposition needs an even profile")
    if J < 0:
        raise InvalidParameterError(f"need J >= 0, got J={J}")
    t_grid = g.grid.nodes
    i0 = int(np.searchsorted(t_grid, 0.0))   # the half line t >= 0 is t_grid[i0:]
    t_half = np.abs(t_grid[i0:])
    g_half = g.values[i0:]
    outer = float(t_half[-1])
    n0 = atom_normalization(spec.L)
    d_for_norm = g.dim_context or 2
    p_norm = max(1.0, spec.p)
    lo, hi, window = _support_window(g)
    weight = t_half ** (int(d_for_norm) - 1)
    captured = np.zeros_like(t_half)
    # the trapezoid integrand on the whole grid: its half y[i0:] is computed,
    # y[:i0] is the mirror image; np.trapezoid's expression, diff taken once
    spacing = np.diff(t_grid)
    y, pair = np.empty_like(t_grid), np.empty_like(spacing)
    y_half = y[i0:]

    levels: Dict[int, np.ndarray] = {}
    history: List[float] = []
    for j in range(J + 1):
        k_max = int(math.ceil(outer * 2.0 ** j)) + 1
        coeffs = np.zeros(k_max + 1)
        ks = _collocation_indices(j, max(0, math.floor(lo * 2.0 ** j) + 1),
                                  min(k_max, math.ceil(hi * 2.0 ** j) - 1))
        pts = 2.0 ** (-j) * ks
        # at a node the captured sum holds the floats _eval_capture would add
        node = np.minimum(np.searchsorted(t_half, pts), t_half.size - 1)
        known = captured[node]
        off = t_half[node] != pts
        if off.any():
            known[off] = _eval_capture(levels, pts[off], spec.L)
        coeffs[ks] = (g(pts) - known) * n0
        levels[j] = coeffs
        for part in window:
            _add_level(captured[part], t_half[part], j, coeffs, n0)
        if track_history or j == J:
            # weighted_lp_norm of the residual, which is exactly even
            np.subtract(g_half, captured, out=y_half)
            np.abs(y_half, out=y_half)
            if math.isinf(p_norm):
                history.append(float(np.max(y_half)))
            else:
                y_half **= p_norm
                y_half *= weight
                y[:i0] = y[::-1][:i0]
                np.add(y[1:], y[:-1], out=pair)
                pair *= spacing
                pair /= 2.0
                history.append(float(pair.sum()) ** (1.0 / p_norm))

    if raise_on_stall and len(history) >= 3 and history[-1] > history[-3]:
        g_scale = weighted_lp_norm(g, p_norm, d_for_norm)
        if g_scale > 0 and history[-1] > STALL_RTOL * g_scale:
            raise DecompositionError(
                f"residual stalls: {history[-1]:.3g} at J={J} vs "
                f"{history[-3]:.3g} at J={J - 2}")

    return AtomicDecomposition(CoefficientGrid(levels), spec, J, g.grid,
                               residual_norm=history[-1],
                               residual_history=history, d=g.dim_context)


def _checked_decomposition(g: RadialProfile, params: SpaceParams, spec: AtomSpec,
                           J: int, decomposition: Optional[AtomicDecomposition],
                           sigma: float) -> AtomicDecomposition:
    """``decomposition``, which must lie on g's grid and whose own spec is
    checked, or else a fresh one of g at J with ``spec``, checked first."""
    if decomposition is not None:
        if not np.array_equal(decomposition.grid.nodes, g.grid.nodes):
            raise InvalidParameterError("the decomposition is not on g's grid")
        spec = decomposition.spec
    spec.require_admissible(params.s, params.p, sigma)
    if decomposition is None:
        decomposition = decompose_profile(g.restrict_dim(params.d), spec, J=J,
                                          raise_on_stall=False,
                                          track_history=False)
    return decomposition


def tb_norm(g: RadialProfile, params: SpaceParams,
            spec: Optional[AtomSpec] = None, J: int = 10,
            decomposition: Optional[AtomicDecomposition] = None) -> float:
    """b^s_{p,q,d} sequence norm of the constructed decomposition.

    An upper bound of the infimum in the trace-space definition; use only in
    ratio or scaling-exponent assertions.  ``spec`` and J serve a fresh
    decomposition only; a given ``decomposition`` is checked by its own spec.
    """
    dec = _checked_decomposition(
        g, params, spec or AtomSpec.b_admissible(params.s, params.p, params.d),
        J, decomposition, sigma_p(params.p, params.d))
    return seq_norm_bspqd(dec.coefficients, params)


def tf_norm(g: RadialProfile, params: SpaceParams,
            spec: Optional[AtomSpec] = None, J: int = 10,
            decomposition: Optional[AtomicDecomposition] = None) -> float:
    """f^s_{p,q,d} sequence norm of the constructed decomposition (``spec``,
    J and ``decomposition`` as for ``tb_norm``)."""
    dec = _checked_decomposition(
        g, params, spec or AtomSpec.f_admissible(params.s, params.p, params.q, params.d),
        J, decomposition, sigma_pq(params.p, params.q, params.d))
    return seq_norm_fspqd(dec.coefficients, params)


# ---------------------------------------------------------------------------
# Littlewood-Paley reference norm


@dataclass(frozen=True)
class DyadicBandSpectrum:
    """Per-level frequency-band functions of a profile on a uniform grid."""

    t: np.ndarray
    bands: np.ndarray          # shape (J+1, n)
    J: int

    def reconstruction_error(self, values: np.ndarray) -> float:
        return float(np.max(np.abs(self.bands.sum(axis=0) - values)))

    def to_csv(self, path) -> None:
        """Per-level export: rows t, band_0(t), ..., band_J(t)."""
        header = "t," + ",".join(f"band_{j}" for j in range(self.J + 1))
        arr = np.column_stack([self.t, self.bands.T])
        np.savetxt(path, arr, delimiter=",", header=header, comments="")


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
# n/2 + 1 floats per (n, h), _weight_plan about n floats per (n, d).
_PLAN_ENTRIES = 3


def _plan_array(size: int) -> np.ndarray:
    """size zero-filled floats in an anonymous mapping of their own.

    A long-lived array on the malloc heap keeps the freed pages below it
    resident; its own mapping leaves the heap free to shrink."""
    return np.frombuffer(mmap.mmap(-1, 8 * size), dtype=float)


@lru_cache(maxsize=_PLAN_ENTRIES)
def _band_plan(n: int, h: float) -> Tuple[np.ndarray, Tuple[int, ...], float]:
    """The ramp and edges of the band windows on the n-point grid of spacing
    h, and the top frequency xi_max.

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
    xi_max = float(xi[-1])
    J_max = max(1, int(math.ceil(math.log2(xi_max))))
    edges = tuple(np.searchsorted(xi, 2.0 ** np.arange(J_max + 2)).tolist())
    ramp = _plan_array(xi.size)
    for k in range(J_max + 1):
        part = slice(edges[k], edges[k + 1])
        ramp[part] = _level_lowpass(xi[part], k)
    ramp.flags.writeable = False
    return ramp, edges, xi_max


@lru_cache(maxsize=_PLAN_ENTRIES)
def _weight_plan(n: int, d: int) -> Tuple[np.ndarray, Dict[int, slice]]:
    """Tables of the weight w = |t/T|^{d-1} on the n-point grid, in one
    read-only array, and the slice of each: the weighted band mass of
    ``_l2_mass`` is T^{d-1} times the dot of a table with u^2.

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
    np.power(np.abs(_fft_grid(n, 1.0, size)), d - 1, out=w)
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


def _dyadic_bands(g: RadialProfile, n_fft: int, T: Optional[float]):
    """Check the grid, then return T, the spacing h, the top level J, a work
    buffer and a generator of the band spectra 0..J.  J = J_max of
    ``_band_plan``: 2^J covers the grid's spectrum, so bands above it would
    be empty.

    On the periodic grid t_k = -T + 2Tk/n (n = n_fft), t_{n-k} = -t_k, so the
    even profile's samples are an even sequence: only the n//2 + 1 points
    t <= 0 are evaluated, and the spectrum, real and even, is one _even_dft
    of entries 0..n//2.  That is the generator's first step, so no transform
    runs before it is consumed.  It then yields (a, b, X): X holds band j's
    half spectrum (bins 0..n//2), its window from the cached ``_band_plan``
    times the spectrum on bins a..b-1 and zero elsewhere, in one buffer that
    the next band overwrites.  ``work`` serves every _even_dft of length <= n.
    All buffers are made once per call: fresh full-length arrays per band
    cost page faults.
    """
    if n_fft < 2 or not (T is None or (math.isfinite(T) and T > 0)):
        raise InvalidParameterError(
            f"need n_fft >= 2 and a finite T > 0, got n_fft={n_fft}, T={T}")
    if T is None:
        T = float(np.abs(g.grid.nodes).max())
    elif np.any(np.abs(g.grid.nodes[g.values != 0.0]) > T):
        raise InvalidParameterError(f"T = {T} cuts the profile's support")
    n, size = n_fft, n_fft // 2 + 1
    t01 = _fft_grid(n, T, 2)
    h = float(t01[1] - t01[0])
    ramp, edges, _ = _band_plan(n, h)
    J = len(edges) - 2
    work = np.empty(n // 2 + int(n).bit_length())

    def bands():
        spec = _even_dft(g(_fft_grid(n, T, size)), n, np.empty(size), work)
        spec *= n
        product = np.zeros(size)
        for j in range(J + 1):
            a, mid, b = edges[j - 1] if j else 0, edges[j], edges[j + 1]
            np.subtract(1.0, ramp[a:mid], out=product[a:mid])
            product[mid:b] = ramp[mid:b]
            product[a:b] *= spec[a:b]
            yield a, b, product
            product[a:b] = 0.0

    return T, h, J, work, bands()


def _band_samples(X: np.ndarray, work: np.ndarray, band: np.ndarray) -> None:
    """Write into band the n = band.size samples of the real even band whose
    half spectrum is X: one _even_dft of length n, mirrored."""
    n = band.size
    size = n // 2 + 1
    _even_dft(X, n, band[:size], work)
    band[size:] = band[(n - 1) // 2:0:-1]


def _l2_mass(X: np.ndarray, a: int, b: int, n: int,
             weights: Optional[Tuple[np.ndarray, Dict[int, slice]]],
             work: np.ndarray, scratch: np.ndarray) -> float:
    """sum_k w_k x_k^2 over the n-point grid for the band x whose half
    spectrum X is zero outside bins a..b-1; weighted, over T^{d-1}.

    Unweighted (weights None), by Parseval with no transform:
    (1/n) sum_f m_f X_f^2, with m_f = 1 at f = 0 and at the Nyquist bin
    f = n/2, 2 otherwise.  Weighted, from ``_weight_plan``'s tables: for M,
    the least power of two above 4(b-1), one _even_dft of length M and a dot
    of M/2 + 1 points; a band with M > n/2 is sampled on the half line
    instead, one _even_dft of length n and a dot of n//2 + 1 points.
    ``scratch`` holds at least n//2 + 1 floats.
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
    M = 1 << (4 * (b - 1)).bit_length()
    if M > n // 2:
        M = n
    half = M // 2 + 1
    u = _even_dft(X[:half], M, scratch[:half], work)
    np.square(u, out=u)
    return float(np.dot(tables[slices[M]], u))


def dyadic_band_spectrum(g: RadialProfile, n_fft: int = 2 ** 16,
                         T: Optional[float] = None) -> DyadicBandSpectrum:
    """Split g into dyadic frequency bands via FFT; bands sum back to g exactly.

    Band 0 is the low-pass |xi| <= 2; band j lives on 2^{j-1} <= |xi| <= 2^{j+1}.
    The telescoped windows sum to 1 on the whole discrete spectrum, so the
    band sum reproduces the sampled profile to roundoff.  The windows depend
    only on the grid and are cached per (n_fft, spacing) (``_band_plan``).
    The even profile's samples on the periodic grid are an even sequence and
    the windows are even in xi, so spectrum and bands are real and even:
    cosine transforms, folded into a half-length one and a quarter-length
    DCT-III (one numpy irfft) until the length is at most _FOLD_CUT = 4096,
    then one irfft.  Every band is made on all n_fft points here;
    ``lp_besov_norm_1d`` at p = 2 makes only the widest ones, on the half
    line (see there).
    """
    T, _, J, work, bands = _dyadic_bands(g, n_fft, T)
    stacked = np.empty((J + 1, n_fft))
    for j, (_, _, X) in enumerate(bands):
        _band_samples(X, work, stacked[j])
    return DyadicBandSpectrum(_fft_grid(n_fft, T, n_fft), stacked, J)


def lp_besov_norm_1d(g: RadialProfile, params: SpaceParams,
                     weighted: bool = True, n_fft: int = 2 ** 16,
                     T: Optional[float] = None) -> float:
    """Fourier-analytic reference norm (sum_j 2^{jsq} ||phi_j * g||_{L_p}^q)^{1/q}.

    ``weighted`` applies the half-line weight |t|^{d-1} inside the L_p norms,
    which makes the value a numerical stand-in for the d-dimensional norm of
    the radial extension (equivalent up to constants).  Independent of the
    atomic machinery: serves as its cross-check.  The bands are those of
    ``dyadic_band_spectrum``, made and reduced one at a time on the n_fft
    grid.  At p = 2 a band's mass sum_k w_k x_k^2 comes from its spectrum
    instead (``_l2_mass``): unweighted by Parseval, with no transform per
    band; weighted, for a band with top bin b - 1, from one transform of
    length M, the least power of two above 4(b-1), where x^2 does not alias,
    dotted with a table of the weight cached per (n_fft, d) (``_weight_plan``;
    |t|^{d-1} = T^{d-1} |t/T|^{d-1} serves every T).  Weighted bands with
    M > n_fft/2 are sampled on the half line t <= 0 and dotted with the weight.
    """
    s, p, q, d = params.s, params.p, params.q, params.d
    T, h, _, work, bands = _dyadic_bands(g, n_fft, T)
    if p == 2:
        # built before the bands fill this call's buffers: the build's
        # temporaries are freed first
        weights = _weight_plan(n_fft, d) if weighted else None
        scale = T ** (d - 1) if weighted else 1.0
        band = np.empty(n_fft // 2 + 1) if weighted else None
    else:
        w = np.abs(_fft_grid(n_fft, T, n_fft)) ** (d - 1) if weighted else None
        band = np.empty(n_fft)
    logs = []
    for j, (a, b, X) in enumerate(bands):
        if p == 2:
            mass = _l2_mass(X, a, b, n_fft, weights, work, band) * scale
            nrm = float(mass * h) ** 0.5 if mass > 0 else 0.0
        else:
            _band_samples(X, work, band)
            np.abs(band, out=band)
            if math.isinf(p):
                nrm = float(np.max(band))
            else:
                band **= p
                if w is not None:
                    band *= w
                nrm = float(np.sum(band) * h) ** (1.0 / p)
        if nrm > 0:
            logs.append(j * s * LN2 + math.log(nrm))
    return _combine_levels(logs, q)


# ---------------------------------------------------------------------------
# Radial Sobolev norms


def sobolev_radial_norm_1(g: RadialProfile, p: float,
                          d: Optional[int] = None) -> float:
    """||g | L_p(|t|^{d-1})|| + ||g' | L_p(|t|^{d-1})||."""
    if p < 1:
        raise InvalidParameterError("p >= 1 required (Sobolev regime)")
    d = d if d is not None else g.dim_context
    d1 = _gradients(g.values, g.grid.nodes, 1)[1]
    gp = RadialProfile(g.grid, 0.5 * (np.abs(d1) + np.abs(d1[::-1])))
    return weighted_lp_norm(g, p, d) + weighted_lp_norm(gp, p, d)
