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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bump import bump, bump_derivative_sup, smoothstep
from .core import Grid1D, RadialProfile, _derivatives_123, weighted_lp_norm
from .covering import AtomSpec
from .errors import (DecompositionError, InvalidParameterError,
                     ResolutionError)
from .seqspaces import (CoefficientGrid, _logsumexp, seq_norm_bspqd,
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
    _levels: Dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def reconstruction(self, t) -> np.ndarray:
        return _eval_capture(self._levels, t, self.spec.L)

    def atom_profile(self, j: int, k: int) -> RadialProfile:
        return template_atom_profile(j, k, self.grid, self.spec.L, d=self.d)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# template=bump L={self.spec.L} M={self.spec.M} "
                     f"s={self.spec.s} p={self.spec.p} J={self.J}\n")
            fh.write("j,k,coefficient\n")
            for (j, k), v in sorted(self.coefficients.data.items()):
                fh.write(f"{j},{k},{v!r}\n")


def decompose_profile(g: RadialProfile, spec: AtomSpec, J: int = 10,
                      tol: float = 1e-4, raise_on_stall: bool = True,
                      track_history: bool = True) -> AtomicDecomposition:
    """Multilevel collocation decomposition of an even compactly supported profile.

    Raises DecompositionError when the residual stalls (residual at J above
    residual at J-2) and ``raise_on_stall`` is set.  The captured sum on the
    half line t >= 0 of the grid is kept as one running array that gains
    only level j's atoms after level j; only the lattice points and the
    half-line nodes in the support window of the module docstring are
    visited (none for a zero profile), which gives the floats of a pass over
    the whole lattice and grid.  ``track_history`` records the weighted
    residual norm after every level (one full-grid trapezoid of the mirrored
    half-line integrand per level); without it only the final residual norm
    is computed.
    """
    if not g.grid.even:
        raise InvalidParameterError("decomposition needs an even profile")
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
        coeffs[ks] = (g(pts) - _eval_capture(levels, pts, spec.L)) * n0
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
        if g_scale > 0 and history[-1] > tol * g_scale:
            raise DecompositionError(
                f"residual stalls: {history[-1]:.3g} at J={J} vs "
                f"{history[-3]:.3g} at J={J - 2}")

    entries = {(j, k): float(coeffs[k]) for j, coeffs in levels.items()
               for k in np.flatnonzero(coeffs).tolist()}
    return AtomicDecomposition(CoefficientGrid(entries), spec, J, g.grid,
                               residual_norm=history[-1],
                               residual_history=history,
                               d=g.dim_context, _levels=levels)


def tb_norm(g: RadialProfile, params: SpaceParams,
            spec: Optional[AtomSpec] = None, J: int = 10,
            decomposition: Optional[AtomicDecomposition] = None) -> float:
    """b^s_{p,q,d} sequence norm of the constructed decomposition.

    An upper bound of the infimum in the trace-space definition; use only in
    ratio or scaling-exponent assertions.
    """
    if spec is None:
        spec = AtomSpec.b_admissible(params.s, params.p, params.d)
    spec.require_admissible(params.s, params.p, sigma_p(params.p, params.d))
    if decomposition is None:
        decomposition = decompose_profile(g.restrict_dim(params.d), spec, J=J,
                                          raise_on_stall=False,
                                          track_history=False)
    return seq_norm_bspqd(decomposition.coefficients, params)


def tf_norm(g: RadialProfile, params: SpaceParams,
            spec: Optional[AtomSpec] = None, J: int = 10,
            decomposition: Optional[AtomicDecomposition] = None) -> float:
    """f^s_{p,q,d} sequence norm of the constructed decomposition."""
    if spec is None:
        spec = AtomSpec.f_admissible(params.s, params.p, params.q, params.d)
    spec.require_admissible(params.s, params.p,
                            sigma_pq(params.p, params.q, params.d))
    if decomposition is None:
        decomposition = decompose_profile(g.restrict_dim(params.d), spec, J=J,
                                          raise_on_stall=False,
                                          track_history=False)
    return seq_norm_fspqd(decomposition.coefficients, params)


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


def _dyadic_bands(g: RadialProfile, n_fft: int, T: Optional[float],
                  J: Optional[int]):
    """The uniform grid t, the top level J, a work buffer and a generator of
    the band spectra 0..J.

    On the periodic grid t_k = -T + 2Tk/n (n = n_fft), t_{n-k} = -t_k, so the
    even profile's samples are an even sequence: only the n//2 + 1 points
    t <= 0 are evaluated, and the spectrum, real and even, is one _even_dft
    of entries 0..n//2.  Band j's window is nonzero, and computed, only
    between the edges 2^{j-1}, 2^{j+1} of bands j-1 and j+1.  The generator
    yields (a, b, X): X holds band j's half spectrum (bins 0..n//2), zero
    outside bins a..b-1, in one buffer that the next band overwrites.
    ``work`` serves every _even_dft of length <= n.  All buffers are made
    once per call: fresh full-length arrays per band cost page faults.
    """
    if n_fft < 2 or not (T is None or (math.isfinite(T) and T > 0)):
        raise InvalidParameterError(
            f"need n_fft >= 2 and a finite T > 0, got n_fft={n_fft}, T={T}")
    if T is None:
        T = float(np.abs(g.grid.nodes).max())
    elif np.any(np.abs(g.grid.nodes[g.values != 0.0]) > T):
        raise InvalidParameterError(f"T = {T} cuts the profile's support")
    n, size = n_fft, n_fft // 2 + 1
    t = -T + 2.0 * T * np.arange(n) / n
    work = np.empty(n // 2 + int(n).bit_length())
    spec = _even_dft(g(t[:size]), n, np.empty(size), work)
    spec *= n
    xi = 2.0 * math.pi * np.fft.rfftfreq(n, d=t[1] - t[0])
    xi_max = float(xi[-1])
    J_max = max(1, int(math.ceil(math.log2(xi_max))))
    if J is None:
        J = J_max
    elif 2.0 ** J < xi_max:
        raise ResolutionError(
            f"requested J={J} does not cover the grid spectrum (need >= {J_max})")

    def bands():
        product = np.zeros(size)
        prev_a, prev = 0, np.zeros(0)
        for j in range(J + 1):
            # 2^{J+1} > xi_max, so the top band runs to the last bin
            a, b = np.searchsorted(xi, [2.0 ** (j - 1) if j else 0.0, 2.0 ** (j + 1)])
            # the top window absorbs the tail: exact telescoping
            low = _level_lowpass(xi[a:b], j) if j < J else np.ones(b - a)
            # band j-1's low-pass on its own slice, which ends where it is 0
            window, below = low.copy(), prev[a - prev_a:]
            window[:below.size] -= below
            prev_a, prev = a, low
            np.multiply(spec[a:b], window, out=product[a:b])
            yield int(a), int(b), product
            product[a:b] = 0.0

    return t, J, work, bands()


def _band_samples(X: np.ndarray, work: np.ndarray, band: np.ndarray) -> None:
    """Write into band the n = band.size samples of the real even band whose
    half spectrum is X: one _even_dft of length n, mirrored."""
    n = band.size
    size = n // 2 + 1
    _even_dft(X, n, band[:size], work)
    band[size:] = band[(n - 1) // 2:0:-1]


def _parseval_mass(X: np.ndarray, a: int, b: int, n: int,
                   Wm: Optional[np.ndarray], work: np.ndarray,
                   scratch: np.ndarray) -> Optional[float]:
    """sum_k w_k x_k^2 over the n-point grid for the band x whose half
    spectrum X is zero outside bins a..b-1, or None when the band is too wide.

    Unweighted (Wm None): (1/n) sum_f m_f X_f^2, with m_f = 1 at f = 0 and at
    the Nyquist bin f = n/2, 2 otherwise.  Weighted: Wm_f = m_f w~_f, where
    w~ = _even_dft(w) is the weight's spectrum over n; only f <= 2(b-1) <
    M/2 <= n/4 is read.  x has degree b - 1, so x^2 has degree 2(b-1) and,
    for M the least power of two above 4(b-1), the M-point DFT of x^2
    sampled on the M-point grid is exact (no aliasing).
    u = _even_dft(X, M) is n/M times x there and eta = _even_dft(u^2, M), so
    the n-point spectrum of x^2 is (M^2/n) eta and the mass is
    (M^2/n) sum_{f <= 2(b-1)} Wm_f eta_f.  Bands with M > n/2 return None.
    ``scratch`` holds at least M + 2 floats.
    """
    if a == b:
        return 0.0
    if Wm is None:
        B = X[a:b]
        mass = 2.0 * float(np.dot(B, B))
        if a == 0:
            mass -= B[0] ** 2
        if 2 * (b - 1) == n:
            mass -= B[-1] ** 2
        return mass / n
    M = 1 << (4 * (b - 1)).bit_length()
    if M > n // 2:
        return None
    half, top = M // 2 + 1, 2 * b - 1
    u = _even_dft(X[:half], M, scratch[:half], work)
    np.square(u, out=u)
    eta = _even_dft(u, M, scratch[half:2 * half], work)
    return float(np.dot(Wm[:top], eta[:top])) * M * M / n


def dyadic_band_spectrum(g: RadialProfile, n_fft: int = 2 ** 16,
                         T: Optional[float] = None,
                         J: Optional[int] = None) -> DyadicBandSpectrum:
    """Split g into dyadic frequency bands via FFT; bands sum back to g exactly.

    Band 0 is the low-pass |xi| <= 2; band j lives on 2^{j-1} <= |xi| <= 2^{j+1}.
    The telescoped windows sum to 1 on the whole discrete spectrum, so the
    band sum reproduces the sampled profile to roundoff.  The even profile's
    samples on the periodic grid are an even sequence and the windows are even
    in xi, so spectrum and bands are real and even: cosine transforms, folded
    into a half-length one and a quarter-length DCT-III (one numpy irfft)
    until the length is at most _FOLD_CUT = 4096, then one irfft.  Every band
    is made on all n_fft points here; ``lp_besov_norm_1d`` at p = 2 makes only
    the widest ones (see there).
    """
    t, J, work, bands = _dyadic_bands(g, n_fft, T, J)
    stacked = np.empty((J + 1, n_fft))
    for j, (_, _, X) in enumerate(bands):
        _band_samples(X, work, stacked[j])
    return DyadicBandSpectrum(t, stacked, J)


def lp_besov_norm_1d(g: RadialProfile, params: SpaceParams,
                     weighted: bool = True, n_fft: int = 2 ** 16,
                     T: Optional[float] = None,
                     J: Optional[int] = None) -> float:
    """Fourier-analytic reference norm (sum_j 2^{jsq} ||phi_j * g||_{L_p}^q)^{1/q}.

    ``weighted`` applies the half-line weight |t|^{d-1} inside the L_p norms,
    which makes the value a numerical stand-in for the d-dimensional norm of
    the radial extension (equivalent up to constants).  Independent of the
    atomic machinery: serves as its cross-check.  The bands are those of
    ``dyadic_band_spectrum``, made and reduced one at a time on the n_fft
    grid.  At p = 2 a band's mass sum_k w_k x_k^2 comes from its spectrum by
    Parseval instead (``_parseval_mass``): unweighted with no transform per
    band; weighted, for a band with top bin b - 1, from two transforms of
    length M, the least power of two above 4(b-1), where x^2 does not alias.
    Weighted bands with M > n_fft/2 fall back to the samples on the n_fft grid.
    """
    s, p, q, d = params.s, params.p, params.q, params.d
    t, _, work, bands = _dyadic_bands(g, n_fft, T, J)
    n, size, h = t.size, t.size // 2 + 1, t[1] - t[0]
    w = None
    if weighted:   # t is not needed past h: the weight |t|^{d-1} takes its place
        w = np.abs(t, out=t)
        w **= d - 1
    band = np.empty(n) if p != 2 or weighted else None
    Wm = None
    if p == 2 and weighted:
        Wm = _even_dft(w[:size], n, np.empty(size), work)
        Wm[1:] *= 2.0
    logs = []
    for j, (a, b, X) in enumerate(bands):
        mass = _parseval_mass(X, a, b, n, Wm, work, band) if p == 2 else None
        if mass is not None:
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
    if not logs:
        return 0.0
    if math.isinf(q):
        return math.exp(max(logs))
    return math.exp(_logsumexp([q * v for v in logs]) / q)


# ---------------------------------------------------------------------------
# Radial Sobolev norms


def _fd_derivative(g: RadialProfile) -> np.ndarray:
    d1, _ = _derivatives_123(g.grid.nodes, g.values)
    return d1


def sobolev_radial_norm_1(g: RadialProfile, p: float,
                          d: Optional[int] = None) -> float:
    """||g | L_p(|t|^{d-1})|| + ||g' | L_p(|t|^{d-1})||."""
    if p < 1:
        raise InvalidParameterError("p >= 1 required (Sobolev regime)")
    d = d if d is not None else g.dim_context
    d1 = _fd_derivative(g)
    gp = RadialProfile(g.grid, 0.5 * (np.abs(d1) + np.abs(d1[::-1])))
    return weighted_lp_norm(g, p, d) + weighted_lp_norm(gp, p, d)
