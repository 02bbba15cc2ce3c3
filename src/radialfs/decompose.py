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

The trace-space norms report the sequence norm of the constructed
decomposition: an upper bound for the infimum in the definition, equivalent
up to constants.  All downstream assertions are therefore phrased as scaling
exponents or bounded ratios, never absolute values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bump import bump, bump_derivative_sup, smoothstep
from .core import (Grid1D, RadialProfile, _derivatives_123, _trapezoid,
                   radial_laplacian, weighted_lp_norm)
from .covering import AtomSpec
from .errors import (DecompositionError, InvalidParameterError,
                     ResolutionError)
from .seqspaces import (CoefficientGrid, _logsumexp, seq_norm_bspqd,
                        seq_norm_fspqd)
from .spaces import SpaceParams, sigma_p, sigma_pq

__all__ = ["AtomicDecomposition", "DyadicBandSpectrum", "atom_normalization",
           "template_atom_values", "template_atom_profile", "decompose_profile",
           "tb_norm", "tf_norm", "lp_besov_norm_1d", "dyadic_band_spectrum",
           "sobolev_radial_norm_1", "sobolev_radial_norm_2",
           "sobolev_radial_norm_2m"]

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
    most _CHUNK nodes of the sorted even grid that cover lo < |t| < hi."""
    t = g.grid.nodes
    nonzero = np.abs(t[g.values != 0.0])
    if nonzero.size == 0:
        return 0.0, 0.0, []
    h = float(np.max(np.diff(t)))
    lo, hi = float(nonzero.min()) - h - 1.0, float(nonzero.max()) + h + 1.0
    start, stop = np.searchsorted(t, -hi, "right"), np.searchsorted(t, hi, "left")
    if lo < 0.0:
        runs = [(start, stop)]
    else:
        runs = [(start, np.searchsorted(t, -lo, "left")),
                (np.searchsorted(t, lo, "right"), stop)]
    return lo, hi, [slice(i, min(i + _CHUNK, b)) for a, b in runs
                    for i in range(a, b, _CHUNK)]


def _add_level(out: np.ndarray, t: np.ndarray, j: int, coeffs: np.ndarray,
               n0: float) -> None:
    """Add level j's captured atoms at points t >= 0 into out.

    Only the atom centred at the nearest level-j lattice point round(2^j t)
    can be nonzero at t: neighbours sit at |t - c| >= 2^{-j-1} = rho, where
    the bump vanishes (scaling by 2^j is exact and rounding is monotone).
    """
    k = np.round(t * 2.0 ** j).astype(int)
    valid = k < coeffs.size
    kv = k[valid]
    vals = bump((t[valid] - 2.0 ** (-j) * kv) / 2.0 ** (-j - 1))
    # k = 0 has a single bump (already even); k >= 1 pairs with -c,
    # which for t >= 0 only matters through the |t| reduction.
    out[valid] += coeffs[kv] * vals / n0


def _eval_capture(coeff_levels: Dict[int, np.ndarray], t: np.ndarray,
                  L: int) -> np.ndarray:
    """Sum of captured atoms at points t, added level by level in key order."""
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    n0 = atom_normalization(L)
    for j, coeffs in coeff_levels.items():
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
    level0_scale: float = 1.0
    _levels: Dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def atoms(self) -> List[Tuple[int, int, str]]:
        return [(j, k, f"template(L={self.spec.L})")
                for (j, k) in sorted(self.coefficients.data)]

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
    grid is kept as one running array that gains only level j's atoms after
    level j; only the lattice points and grid nodes in the support window of
    the module docstring are visited (none for a zero profile), which gives
    the floats of a pass over the whole lattice and grid.  ``track_history``
    records the weighted residual norm after every level (one full-grid norm
    per level); without it only the final residual norm is computed.
    """
    if not g.grid.even:
        raise InvalidParameterError("decomposition needs an even profile")
    t_grid = g.grid.nodes
    t_abs = np.abs(t_grid)
    outer = float(t_abs.max())
    n0 = atom_normalization(spec.L)
    d_for_norm = g.dim_context or 2
    p_norm = max(1.0, spec.p)
    lo, hi, window = _support_window(g)
    weight = t_abs ** (int(d_for_norm) - 1)
    captured = np.zeros_like(t_abs)
    residual, res_sym = np.empty_like(t_abs), np.empty_like(t_abs)

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
            _add_level(captured[part], t_abs[part], j, coeffs, n0)
        if track_history or j == J:
            # weighted_lp_norm of the symmetrised residual, in reused buffers
            np.subtract(g.values, captured, out=residual)
            np.add(residual, residual[::-1], out=res_sym)
            res_sym *= 0.5
            np.abs(res_sym, out=res_sym)
            if math.isinf(p_norm):
                history.append(float(np.max(res_sym)))
            else:
                res_sym **= p_norm
                res_sym *= weight
                history.append(_trapezoid(res_sym, t_grid) ** (1.0 / p_norm))

    if raise_on_stall and len(history) >= 3 and history[-1] > history[-3]:
        g_scale = weighted_lp_norm(g, p_norm, d_for_norm)
        if g_scale > 0 and history[-1] > tol * g_scale:
            raise DecompositionError(
                f"residual stalls: {history[-1]:.3g} at J={J} vs "
                f"{history[-3]:.3g} at J={J - 2}")

    entries = {(j, k): float(coeffs[k]) for j, coeffs in levels.items()
               for k in np.flatnonzero(coeffs).tolist()}
    # j = 0 atoms play the role of 1_L-atoms; the (s,p)-normalization constant
    # they would carry (diameter 12 to the power s - d/p) is recorded, not absorbed.
    level0 = (12.0) ** (spec.s - (g.dim_context or 2) / spec.p)
    return AtomicDecomposition(CoefficientGrid(entries), spec, J, g.grid,
                               residual_norm=history[-1],
                               residual_history=history,
                               d=g.dim_context, level0_scale=level0,
                               _levels=levels)


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


def _uniform_resample(g: RadialProfile, n_fft: int, T: Optional[float]):
    if T is None:
        T = float(np.abs(g.grid.nodes).max())
    t = -T + 2.0 * T * np.arange(n_fft) / n_fft
    return t, g(t), T


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


def _dyadic_bands(g: RadialProfile, n_fft: int, T: Optional[float],
                  J: Optional[int]):
    """The uniform grid t, the top level J and a generator of bands 0..J.

    Each band is one ``irfft`` of the spectrum times a telescoped window, made
    when the generator reaches it, so a caller that reduces each band holds
    one band at a time.  Every band is written into the same buffer, which
    the caller may overwrite before it asks for the next band.  The window,
    product and band buffers are reused because fresh full-length arrays per
    band are mapped and returned by the C allocator band after band, which
    costs page faults on every band.
    """
    t, vals, T = _uniform_resample(g, n_fft, T)
    h = t[1] - t[0]
    xi = 2.0 * math.pi * np.fft.rfftfreq(n_fft, d=h)
    xi_max = float(xi[-1])
    J_max = max(1, int(math.ceil(math.log2(xi_max))))
    if J is None:
        J = J_max
    elif 2.0 ** J < xi_max:
        raise ResolutionError(
            f"requested J={J} does not cover the grid spectrum (need >= {J_max})")
    spec = np.fft.rfft(vals)

    def bands():
        prev = np.zeros_like(xi)
        window, product, band = np.empty_like(xi), np.empty_like(spec), np.empty(n_fft)
        for j in range(J + 1):
            # the top window absorbs the tail: exact telescoping
            low = _level_lowpass(xi, j) if j < J else np.ones_like(xi)
            np.subtract(low, prev, out=window)
            np.multiply(spec, window, out=product)
            yield np.fft.irfft(product, n=n_fft, out=band)
            prev = low

    return t, J, bands()


def dyadic_band_spectrum(g: RadialProfile, n_fft: int = 2 ** 16,
                         T: Optional[float] = None,
                         J: Optional[int] = None) -> DyadicBandSpectrum:
    """Split g into dyadic frequency bands via FFT; bands sum back to g exactly.

    Band 0 is the low-pass |xi| <= 2; band j lives on 2^{j-1} <= |xi| <= 2^{j+1}.
    The telescoped windows sum to 1 on the whole discrete spectrum, so the
    band sum reproduces the sampled profile to roundoff.  The windows are
    even in xi, so the real-input transform on xi >= 0 carries the bands.
    """
    t, J, bands = _dyadic_bands(g, n_fft, T, J)
    stacked = np.empty((J + 1, n_fft))
    for j, band in enumerate(bands):
        stacked[j] = band
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
    ``dyadic_band_spectrum``, made and reduced one at a time.
    """
    s, p, q, d = params.s, params.p, params.q, params.d
    t, _, bands = _dyadic_bands(g, n_fft, T, J)
    h = t[1] - t[0]
    w = np.abs(t) ** (d - 1) if weighted else np.ones_like(t)
    logs = []
    for j, band in enumerate(bands):
        np.abs(band, out=band)
        if math.isinf(p):
            nrm = float(np.max(band))
        else:
            band **= p
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


def sobolev_radial_norm_2(g: RadialProfile, p: float,
                          d: Optional[int] = None) -> float:
    """First-order terms plus ||g'/r|| and ||g''|| (the W^2 trace norm).

    At r = 0 the quotient g'/r carries its even-reflection limit g''(0).
    """
    if p < 1:
        raise InvalidParameterError("p >= 1 required (Sobolev regime)")
    d = d if d is not None else g.dim_context
    t = g.grid.nodes
    d1, d2 = _derivatives_123(t, g.values)
    quotient = np.where(t != 0.0, d1 / np.where(t == 0.0, 1.0, t), d2)
    gq = RadialProfile(g.grid, 0.5 * (np.abs(quotient) + np.abs(quotient[::-1])))
    g2 = RadialProfile(g.grid, 0.5 * (np.abs(d2) + np.abs(d2[::-1])))
    return (sobolev_radial_norm_1(g, p, d)
            + weighted_lp_norm(gq, p, d) + weighted_lp_norm(g2, p, d))


def sobolev_radial_norm_2m(g: RadialProfile, p: float, d: Optional[int] = None,
                           m: int = 1) -> float:
    """||g | L_p(|t|^{d-1})|| + ||D_r^m g | L_p(|t|^{d-1})|| for W^{2m}, 1 < p < inf."""
    if not (1 < p < math.inf):
        raise InvalidParameterError("1 < p < inf required")
    if m < 1:
        raise InvalidParameterError("m >= 1 required")
    d = d if d is not None else g.dim_context
    if g.grid.size < 2 * m + 1:
        raise ResolutionError("grid cannot resolve 2m derivatives")
    cur = g.restrict_dim(d)
    for _ in range(m):
        cur = radial_laplacian(cur, d)
    return weighted_lp_norm(g, p, d) + weighted_lp_norm(cur, p, d)
