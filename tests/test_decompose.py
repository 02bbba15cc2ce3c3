import gc
import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.fft

from radialfs import decompose, seqspaces
from radialfs.bump import bump, psi_cutoff
from radialfs.core import Grid1D, RadialProfile, weighted_lp_norm
from radialfs.covering import AtomSpec
from radialfs.decompose import (AtomicDecomposition, _cell_spline_coeffs,
                                _dyadic_bands, _fft_grid, _fft_samples,
                                _lowpass_window, _refine, decompose_profile,
                                lp_besov_norm_1d, sobolev_radial_norm_1,
                                tb_norm, tf_norm)
from radialfs.errors import DecompositionError, InvalidParameterError
from radialfs.families import make_f_j_lambda
from radialfs.seqspaces import CoefficientGrid
from radialfs.spaces import SpaceParams
from test_core import composite_grid
from test_covering import (SPLINE_ATOM_CONSTANT, spline_atom,
                           spline_atom_interval, validate_even_atom)

SPEC_L2 = AtomSpec(2, -1, 1.0, 2.0)


@dataclass(frozen=True)
class DyadicBandSpectrum:
    """Per-level frequency-band functions of a profile on a uniform grid."""

    t: np.ndarray
    bands: np.ndarray          # shape (J+1, n)
    J: int


def dyadic_band_spectrum(g, n_fft=2 ** 16, T=None):
    """The bands of lp_besov_norm_1d, stacked: every band made by the same
    steps on the half line and mirrored onto all n_fft points of the periodic
    grid, so they sum back to the sampled profile to roundoff."""
    n_fft, T, x = _fft_samples(g, n_fft, T)
    _, J, work, bands = _dyadic_bands(n_fft, T, x)
    stacked = np.empty((J + 1, n_fft))
    size = n_fft // 2 + 1
    for j, (_, _, X) in enumerate(bands):
        decompose._even_dft(X, n_fft, stacked[j, :size], work)
        stacked[j, size:] = stacked[j, (n_fft - 1) // 2:0:-1]
    return DyadicBandSpectrum(_fft_grid(n_fft, T, n_fft), stacked, J)


def decomposed(g, spec, J):
    """g's decomposition with ``spec`` at J, made as tb_norm/tf_norm make a
    fresh one with their admissible spec."""
    return decompose_profile(g, spec, J=J, raise_on_stall=False, track_history=False)


@pytest.fixture(scope="module")
def fine_grid():
    return Grid1D.uniform(2.0 ** -12, 4.0)


def reconstruction(dec, t):
    """The sum of dec's atoms at points t: per level, the even cubic spline
    sum_k d_{j,|k|} N(2^j t - k) evaluated by scipy's BSpline."""
    from scipy.interpolate import BSpline
    out = np.zeros_like(t)
    for j, d in dec.coefficients.levels.items():
        d = np.concatenate([d, np.zeros(3)])    # every atom reaching t
        K = d.size - 1
        spline = BSpline(np.arange(-K - 2, K + 3) * 2.0 ** -j,
                         np.concatenate([d[:0:-1], d]), 3, extrapolate=False)
        out += np.nan_to_num(spline(t))
    return out


def residual_norm(g, dec, p=2.0):
    """The weighted L_p norm of g minus the sum of dec's atoms on g's grid."""
    res = g.values - reconstruction(dec, g.grid.nodes)
    return weighted_lp_norm(RadialProfile(g.grid, 0.5 * (res + res[::-1])), p,
                            g.dim_context)


def from_scratch_decomposition(g, J):
    """The scheme of the decompose docstring over every slot of every level,
    written apart from it: the cell means from a trapezoid over the nodes
    merged with the cell edges (exact for the piecewise-linear g), the mask
    (1, 4, 6, 4, 1)/8 applied to the coefficients over all of Z, and the
    residual of the atoms' sum after each level on the whole grid."""
    t = g.grid.nodes
    levels, history, coarse = {}, [], np.zeros(0)
    for j in range(J + 1):
        h = 2.0 ** -j
        edges = (np.arange(-1, math.ceil(t[-1] / h) + 5) - 0.5) * h
        pts = np.union1d(t, edges)
        vals = g(pts)
        cum = np.concatenate([[0.0], np.cumsum(np.diff(pts) * (vals[1:] + vals[:-1]) / 2)])
        a = np.diff(cum[np.searchsorted(pts, edges)]) / h     # k = -1 ..
        lam = (-5.0 * a[:-2] + 34.0 * a[1:-1] - 5.0 * a[2:]) / 24.0
        refined = np.zeros(0)
        if coarse.size:
            full = np.concatenate([coarse[:0:-1], coarse])   # k = -M .. M
            up = np.zeros(2 * full.size - 1)
            up[::2] = full
            refined = np.convolve(up, [1.0, 4.0, 6.0, 4.0, 1.0])[2 * coarse.size:] / 8.0
        d = np.zeros(max(lam.size, refined.size))
        d[:lam.size] += lam
        d[:refined.size] -= refined
        levels[j], coarse = d, lam
        history.append(residual_norm(
            g, AtomicDecomposition(CoefficientGrid(dict(levels)), SPEC_L2, g.grid, [])))
    return levels, history


def dense_decomposition(g, J):
    """decompose_profile's coefficients without its hull: decompose's own
    _cell_spline_coeffs and _refine over every slot of every level."""
    t = g.grid.nodes
    x, y = t[t >= 0.0], g.values[t >= 0.0]
    if x[0] > 0.0:
        x, y = np.concatenate([[0.0], x]), np.concatenate([y[:1], y])
    C = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])
    levels, lam = {}, np.zeros(0)
    for j in range(J + 1):
        coarse = _refine(lam) if j else lam
        lam = _cell_spline_coeffs(j, 0, math.ceil(2.0 ** j * x[-1]) + 2, x, y, C)
        d = np.zeros(max(lam.size, coarse.size))
        d[:lam.size] = lam
        d[:coarse.size] -= coarse
        levels[j] = d
    return levels


def _max_difference(a, b):
    """max |a[j][k] - b[j][k]| over the levels of two {j: array}, zero-padded."""
    n = max(x.size for x in [*a.values(), *b.values()])
    return max(float(np.max(np.abs(np.pad(a[j], (0, n - a[j].size))
                                   - np.pad(b[j], (0, n - b[j].size)))))
               for j in a)


def _entries(levels):
    """{(j, k): value} of the nonzero entries."""
    return dict(CoefficientGrid(levels).items())


class TestDecomposeProfile:
    @pytest.mark.parametrize("J", [3, 6])
    def test_tent_reproduced_to_rounding(self, J):
        # the scheme reproduces polynomials: 2 - |t| is linear on [0.6, 1.4],
        # more than 3.5 2^-J from its kinks at 0 and 2 (measured 4.4e-16)
        g = RadialProfile.from_callable(lambda t: 2.0 - t,
                                        Grid1D.uniform(2.0 ** -10, 2.0), d=2)
        dec = decompose_profile(g, SPEC_L2, J=J, raise_on_stall=False)
        t = g.grid.nodes
        inner = (t >= 0.6) & (t <= 1.4)
        assert np.max(np.abs(reconstruction(dec, t[inner]) - g.values[inner])) <= 4e-15

    def test_sampled_cubic_reproduced_to_second_order(self):
        # g is linear between the nodes, so a sampled cubic is reproduced only
        # to O(h^2): 3.49e-7 at h = 2^-10 and 8.74e-8 at h = 2^-11 on [0.6, 1.4]
        errors = []
        for h in (2.0 ** -10, 2.0 ** -11):
            g = RadialProfile.from_callable(lambda t: t ** 3 - 2.0 * t ** 2 + 0.5,
                                            Grid1D.uniform(h, 2.0), d=2)
            dec = decompose_profile(g, SPEC_L2, J=6, raise_on_stall=False)
            t = g.grid.nodes
            inner = (t >= 0.6) & (t <= 1.4)
            errors.append(np.max(np.abs(reconstruction(dec, t[inner]) - g.values[inner])))
        assert errors[0] <= 5e-7
        assert 3.5 <= errors[0] / errors[1] <= 4.5

    def test_zero_profile_empty(self, fine_grid):
        g = RadialProfile.from_callable(lambda t: 0.0 * t, fine_grid, d=2)
        dec = decompose_profile(g, SPEC_L2, J=5)
        assert len(dec.coefficients) == 0
        assert dec.residual_history[-1] == 0.0

    def test_profile_without_dimension_raises(self, fine_grid):
        # a residual history's weight |t|^{d-1} needs d; tb_norm keeps no
        # history and needs none
        g = RadialProfile.from_callable(psi_cutoff, fine_grid)
        with pytest.raises(InvalidParameterError, match="dimension"):
            decompose_profile(g, SPEC_L2, J=4)
        assert tb_norm(g, SpaceParams(1.0, 2.0, 2.0, 3), J=4) > 0

    def test_no_history_measures_no_residual(self, fine_grid, monkeypatch):
        # without a history the decomposition never evaluates Q_j g and needs
        # no dimension; its coefficients are those of a run with a history,
        # bit for bit
        g = RadialProfile.from_callable(psi_cutoff, fine_grid)
        calls = []
        spline_values = decompose._spline_values
        monkeypatch.setattr(decompose, "_spline_values",
                            lambda *args: calls.append(args) or spline_values(*args))
        dec = decompose_profile(g, SPEC_L2, J=6, track_history=False)
        assert len(calls) == 0
        assert dec.residual_history == []
        with pytest.raises(InvalidParameterError, match="dimension"):
            decompose_profile(g, SPEC_L2, J=6, track_history=True)
        tracked = decompose_profile(RadialProfile(g.grid, g.values, 2), SPEC_L2, J=6)
        assert len(calls) == 7 and len(tracked.residual_history) == 7
        assert list(dec.coefficients.levels) == list(tracked.coefficients.levels)
        for j, level in dec.coefficients.levels.items():
            assert level.tobytes() == tracked.coefficients.levels[j].tobytes()

    def test_psi_cutoff_residual_rate(self, fine_grid):
        # convergence-rate oracle: average contraction factor over j = 0..8,
        # frozen as the regression bound (measured 5.37 on this corpus)
        g = RadialProfile.from_callable(psi_cutoff, fine_grid, d=2)
        dec = decompose_profile(g, SPEC_L2, J=9)
        h = dec.residual_history
        rates = [h[i] / h[i + 1] for i in range(9)]
        avg = float(np.prod(rates) ** (1.0 / len(rates)))
        assert avg >= 4.0

    def test_reconstruction_tolerance(self, fine_grid):
        g = RadialProfile.from_callable(psi_cutoff, fine_grid, d=2)
        dec = decompose_profile(g, SPEC_L2, J=12)
        rel = dec.residual_history[-1] / weighted_lp_norm(g, 2.0, 2)
        assert rel <= 1e-4

    def test_every_atom_validates(self, fine_grid):
        g = RadialProfile.from_callable(
            lambda t: bump((t - 1.0) / 0.7) + bump((t + 1.0) / 0.7), fine_grid, d=2)
        dec = decompose_profile(g, SPEC_L2, J=6)
        checked = 0
        for (j, k), _ in list(dec.coefficients.items())[:25]:
            ok, ratios = validate_even_atom(spline_atom(j, k, fine_grid, d=2),
                                            spline_atom_interval(j, k), SPEC_L2.L,
                                            SPLINE_ATOM_CONSTANT)
            assert ok, (j, k, ratios)
            checked += 1
        assert checked > 0

    def test_stall_diagnostic(self):
        # the indicator of |t| < 0.7 at p = inf: its jump is no closer in
        # the sup norm at finer levels, and the residual grows from J - 2 to
        # J (0.506 -> 0.543), so the diagnostic raises
        g = RadialProfile.from_callable(lambda t: (t < 0.7).astype(float),
                                        Grid1D.uniform(2.0 ** -12, 2.0), d=2)
        spec = AtomSpec(0, -1, 0.5, math.inf)
        with pytest.raises(DecompositionError, match="stalls"):
            decompose_profile(g, spec, J=2)
        history = decompose_profile(g, spec, J=2, raise_on_stall=False).residual_history
        assert history[0] == pytest.approx(0.5063, abs=1e-4)
        assert history[2] == pytest.approx(0.5431, abs=1e-4)

    @pytest.mark.parametrize("L, M", [(3, -1), (2, 0), (0, 1)])
    def test_spline_serves_no_higher_orders(self, fine_grid, L, M):
        # the cubic is C^2 with no vanishing moments
        g = RadialProfile.from_callable(psi_cutoff, fine_grid, d=2)
        with pytest.raises(InvalidParameterError, match="L <= 2"):
            decompose_profile(g, AtomSpec(L, M, 1.0, 2.0), J=4)


# Profiles that exercise each edge of the nonzero hull
WINDOW_CASES = {
    "thin-annulus-at-104": lambda: RadialProfile.from_callable(
        lambda t: bump((t - 104.0) / 0.6), Grid1D.uniform(0.9, 108.0), d=2),
    "two-pieces": lambda: RadialProfile.from_callable(
        lambda t: bump((t - 1.0) / 0.3) + 0.5 * bump((t - 4.5) / 0.4),
        Grid1D.uniform(2.0 ** -6, 6.0), d=2),
    "touches-origin": lambda: RadialProfile.from_callable(
        lambda t: bump(t / 0.8), composite_grid(J=6, h=0.05, T=4.0), d=2),
    "reaches-outer-edge": lambda: RadialProfile.from_callable(
        lambda t: bump((t - 3.0) / 1.5), Grid1D.uniform(2.0 ** -5, 3.0), d=2),
    "single-node": lambda: RadialProfile.from_callable(
        lambda t: np.where(np.abs(t - 2.1) < 0.1, 1.0, 0.0),
        Grid1D.uniform(0.3, 6.0), d=2),
    "zero": lambda: RadialProfile.from_callable(
        lambda t: 0.0 * t, Grid1D.uniform(2.0 ** -5, 3.0), d=2),
    # no node at 0 and an even node count: the other mirror parity
    "log-spaced": lambda: RadialProfile.from_callable(
        lambda t: bump(t / 1.2) + 0.4 * bump((t - 2.0) / 0.5),
        Grid1D(np.concatenate([-np.geomspace(2.0 ** -9, 4.0, 700)[::-1],
                               np.geomspace(2.0 ** -9, 4.0, 700)])), d=2),
}


class TestIncrementalCapture:
    """decompose_profile, computed on the nonzero hull alone, against the
    scheme over every slot and every node."""

    @pytest.mark.parametrize("J", [5, 10])
    @pytest.mark.parametrize("track_history", [True, False])
    def test_matches_from_scratch_recomputation(self, J, track_history):
        g = RadialProfile.from_callable(
            lambda t: bump((np.abs(t) - 1.1) / 0.7) + 0.3 * psi_cutoff(t),
            Grid1D.uniform(2.0 ** -8, 3.0), d=2)
        dec = decompose_profile(g, SPEC_L2, J=J, raise_on_stall=False,
                                track_history=track_history)
        levels, history = from_scratch_decomposition(g, J)
        assert list(dec.coefficients.levels) == list(levels)
        # a cell mean divides a difference of integrals of size 1 by 2^-j
        assert _max_difference(dec.coefficients.levels, levels) <= 2.0 ** J * 4e-15
        if not track_history:
            assert dec.residual_history == []
            return
        # the residuals agree to rounding of the profile's size, 1
        assert np.allclose(dec.residual_history, history, rtol=1e-9, atol=1e-12)

    def test_reconstruction_is_the_sum_of_atoms(self):
        # each residual is that of the atoms of levels 0..j summed on the grid
        g = RadialProfile.from_callable(psi_cutoff, Grid1D.uniform(2.0 ** -7, 2.0),
                                        d=2)
        dec = decompose_profile(g, SPEC_L2, J=4, raise_on_stall=False)
        for j, r in enumerate(dec.residual_history):
            upto = {i: a for i, a in dec.coefficients.levels.items() if i <= j}
            part = AtomicDecomposition(CoefficientGrid(upto), SPEC_L2, g.grid, [])
            assert r == pytest.approx(residual_norm(g, part), rel=1e-12)

    @pytest.mark.parametrize("J", [0, 1, 8])
    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_bit_identical_to_dense_cascade(self, case, J):
        # against the level-by-level scheme over every slot (the dense
        # cascade of levels): coefficients bit for bit, residuals to rounding
        g = WINDOW_CASES[case]()
        dec = decompose_profile(g, SPEC_L2, J=J, raise_on_stall=False)
        levels = dense_decomposition(g, J)
        assert list(dec.coefficients.levels) == list(levels)
        expected = _entries(levels)
        assert _entries(dec.coefficients.levels) == expected
        assert (len(expected) == 0) == (case == "zero")
        history = [residual_norm(g, AtomicDecomposition(CoefficientGrid(
            {i: a for i, a in levels.items() if i <= j}), SPEC_L2, g.grid, []))
            for j in range(J + 1)]
        assert np.allclose(dec.residual_history, history, rtol=1e-11, atol=1e-15)

    def test_work_stays_on_the_hull(self, monkeypatch):
        # a thin annulus far out: the cell means and the residual touch only
        # 96 <= |t| <= 104 around its support 99.7 .. 100.3, and one node
        # on either side, not the 8193 half-line nodes
        g = RadialProfile.from_callable(lambda t: bump((t - 100.0) / 0.3),
                                        Grid1D.uniform(2.0 ** -6, 128.0), d=2)
        seen = []
        integral, spline_values = decompose._integral, decompose._spline_values

        def recording_integral(u, *args):
            seen.append(np.abs(u))
            return integral(u, *args)

        def recording_values(lam, t, j):
            seen.append(t)
            return spline_values(lam, t, j)

        monkeypatch.setattr(decompose, "_integral", recording_integral)
        monkeypatch.setattr(decompose, "_spline_values", recording_values)
        dec = decompose_profile(g, SPEC_L2, J=8, raise_on_stall=False)
        points = np.concatenate(seen)
        assert len(dec.coefficients) > 0
        assert np.all((points >= 96.0 - 2.0 ** -6) & (points <= 104.0 + 2.0 ** -6))

    def test_lattice_half_points_raise_no_warning(self):
        # on h = 2^-6 every cell edge (k + 1/2) 2^-j with j <= 5 is a node
        g = RadialProfile.from_callable(psi_cutoff, Grid1D.uniform(2.0 ** -6, 3.0),
                                        d=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = decompose_profile(g, SPEC_L2, J=8, raise_on_stall=False)
        assert _entries(dec.coefficients.levels) == _entries(dense_decomposition(g, 8))


def _fresh_copy(g):
    """A new profile object over a copy of g's samples."""
    return RadialProfile(g.grid, g.values.copy(), g.dim_context)


def _assert_same(dec, ref):
    assert list(dec.coefficients.levels) == list(ref.coefficients.levels)
    for j, level in ref.coefficients.levels.items():
        assert dec.coefficients.levels[j].tobytes() == level.tobytes()
    assert dec.residual_history == ref.residual_history


def _stalls(g, spec, J):
    try:
        decompose_profile(g, spec, J=J)
    except DecompositionError:
        return True
    return False


class TestResumeInJ:
    """A decomposition with a history starts where the last one of the same
    profile object, p and dimension stopped: each level is computed once,
    and every float is that of a fresh call."""

    @staticmethod
    def profile():
        return RadialProfile.from_callable(
            lambda t: bump((t - 1.0) / 0.6) + 0.3 * psi_cutoff(t),
            Grid1D.uniform(2.0 ** -10, 2.5), d=2)

    @staticmethod
    def counted_levels(monkeypatch):
        """The level j of every _cell_spline_coeffs call, as it is made."""
        calls = []
        coeffs = decompose._cell_spline_coeffs
        monkeypatch.setattr(decompose, "_cell_spline_coeffs",
                            lambda j, *args: calls.append(j) or coeffs(j, *args))
        return calls

    @pytest.mark.parametrize("order", [(8, 10, 12, 14), (14, 12, 10, 8), (10, 10)])
    def test_matches_fresh_calls(self, order):
        g = self.profile()
        sweep = [(J, decompose_profile(g, SPEC_L2, J=J, raise_on_stall=False))
                 for J in order]
        for J, dec in sweep:
            _assert_same(dec, decompose_profile(_fresh_copy(g), SPEC_L2, J=J,
                                                raise_on_stall=False))

    def test_ascending_sweep_computes_each_level_once(self, monkeypatch):
        calls = self.counted_levels(monkeypatch)
        g = self.profile()
        for J in (8, 10, 12, 14):
            decompose_profile(g, SPEC_L2, J=J, raise_on_stall=False)
        assert calls == list(range(15))     # 48 without the resume

    def test_resumed_calls_keep_the_half_line_setup(self, monkeypatch):
        # the integral C and the hull are made once per entry, from the
        # sample copies it keeps
        made = []
        half_line = decompose._half_line
        monkeypatch.setattr(decompose, "_half_line",
                            lambda *args: made.append(1) or half_line(*args))
        g = self.profile()
        for J in (8, 10, 6, 14):
            decompose_profile(g, SPEC_L2, J=J, raise_on_stall=False)
        assert len(made) == 1
        decomposed(g, SPEC_L2, 8)        # without a history: its own set-up
        assert len(made) == 2

    @pytest.mark.parametrize("change", ["object", "p", "dimension"])
    def test_another_key_starts_from_level_zero(self, change, monkeypatch):
        first, spec = self.profile(), SPEC_L2
        decompose_profile(first, spec, J=6, raise_on_stall=False)
        g = first
        if change == "object":
            g = _fresh_copy(first)      # equal samples, another object
        elif change == "p":
            spec = AtomSpec(2, -1, 1.0, 1.5)
        else:
            # a frozen profile's dimension changes only behind its back
            object.__setattr__(g, "dim_context", 3)
        calls = self.counted_levels(monkeypatch)
        dec = decompose_profile(g, spec, J=8, raise_on_stall=False)
        assert calls == list(range(9))
        monkeypatch.undo()
        _assert_same(dec, decompose_profile(_fresh_copy(g), spec, J=8,
                                            raise_on_stall=False))

    @pytest.mark.parametrize("J", [6, 10])
    def test_samples_edited_in_place_are_decomposed_afresh(self, J):
        g = self.profile()
        decompose_profile(g, SPEC_L2, J=8, raise_on_stall=False)
        g.values[...] *= 2.0
        dec = decompose_profile(g, SPEC_L2, J=J, raise_on_stall=False)
        _assert_same(dec, decompose_profile(_fresh_copy(g), SPEC_L2, J=J,
                                            raise_on_stall=False))

    def test_keeps_no_profile_alive(self):
        g = self.profile()
        decompose_profile(g, SPEC_L2, J=4, raise_on_stall=False)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None
        assert decompose._resume.entries == []

    def test_results_share_no_mutable_state(self):
        g = self.profile()
        first = decompose_profile(g, SPEC_L2, J=8, raise_on_stall=False)
        levels = {j: a.tobytes() for j, a in first.coefficients.levels.items()}
        history = list(first.residual_history)
        with pytest.raises(ValueError, match="read-only"):
            first.coefficients.levels[3][0] = 1.0
        for J in (6, 8):
            dec = decompose_profile(g, SPEC_L2, J=J, raise_on_stall=False)
            assert not any(a.flags.writeable for a in dec.coefficients.levels.values())
            dec.coefficients.levels.clear()
            dec.residual_history.clear()
        first.coefficients.levels.clear()
        first.residual_history.clear()
        again = decompose_profile(g, SPEC_L2, J=8, raise_on_stall=False)
        assert {j: a.tobytes() for j, a in again.coefficients.levels.items()} == levels
        assert again.residual_history == history

    @pytest.mark.parametrize("order", [range(7), range(6, -1, -1)])
    def test_stall_raises_where_a_fresh_call_does(self, order):
        # test_stall_diagnostic's indicator at p = inf; a raising call keeps
        # its levels for the next one
        g = RadialProfile.from_callable(lambda t: (t < 0.7).astype(float),
                                        Grid1D.uniform(2.0 ** -12, 2.0), d=2)
        spec = AtomSpec(0, -1, 0.5, math.inf)
        fresh = {J for J in order if _stalls(_fresh_copy(g), spec, J)}
        assert fresh and fresh != set(order)
        assert {J for J in order if _stalls(g, spec, J)} == fresh


class TestConvergenceInJ:
    @pytest.mark.parametrize("s", [1.0, 1.5])
    def test_norm_settles_from_J12_to_J14(self, s):
        # f_{5,16} at p = q = 2, d = 2, h = 2^-16: 13.8862 -> 13.8862 at
        # s = 1 and 203.756 -> 203.766 at s = 1.5
        g = make_f_j_lambda(5, 16.0).profile(Grid1D.uniform(2.0 ** -16, 1.0), d=2)
        params = SpaceParams(s, 2.0, 2.0, 2)
        n12, n14 = tb_norm(g, params, J=12), tb_norm(g, params, J=14)
        assert abs(n14 / n12 - 1.0) < 0.01

    @pytest.mark.parametrize("s, p, q, measured", [
        (0.3, 2.0, 2.0, 0.218), (0.45, 2.0, 2.0, 0.059), (1.0, 2.0, 2.0, -0.525),
        (0.7, 1.0, 1.0, 0.240), (0.9, 1.0, 1.0, 0.057), (1.5, 1.0, 1.0, -0.552)])
    def test_slope_probe_sees_one_over_p_minus_s(self, s, p, q, measured):
        # f_{j, 2^j - 1} peaks at |x| = 1, and its norm goes as
        # 2^{j(s - 1/p)}: the slope of log2(1/norm) over j = 2..6 is 1/p - s,
        # also below s = 1/p, where point values see nothing
        grid = Grid1D.uniform(2.0 ** -14, 2.0)
        js = np.arange(2, 7)
        norms = [tb_norm(make_f_j_lambda(int(j), 2.0 ** j - 1.0).profile(grid, d=2),
                         SpaceParams(s, p, q, 2), J=12) for j in js]
        slope = float(np.polyfit(js, -np.log2(norms), 1)[0])
        assert slope == pytest.approx(measured, abs=1e-3)
        assert abs(slope - (1.0 / p - s)) <= 0.1

    @pytest.mark.parametrize("s, p, q, bound", [
        (1.0, 2.0, 2.0, 1.08), (1.5, 2.0, 2.0, 1.06), (1.5, 2.0, 1.0, 1.07),
        (0.5, 1.0, 1.0, 1.13), (1.0, 1.0, 2.0, 1.18), (0.3, 2.0, 2.0, 1.16)])
    def test_spread_against_the_fft_norm(self, s, p, q, bound):
        # max/min of tb_norm over the weighted FFT norm on six f_{j,lambda}
        # at J = 12, h = 2^-14: measured 1.037, 1.014, 1.025, 1.084, 1.126
        # and 1.111; each bound is the measurement plus about 0.05
        params = SpaceParams(s, p, q, 2)
        grid = Grid1D.uniform(2.0 ** -14, 4.0)
        ratios = []
        for j, lam in ((3, 4.0), (3, 8.0), (3, 16.0), (4, 8.0), (4, 16.0), (5, 16.0)):
            g = make_f_j_lambda(j, lam).profile(grid, d=2)
            ratios.append(tb_norm(g, params, J=12) / lp_besov_norm_1d(
                g, params, weighted=True, n_fft=2 ** 17, T=4.0))
        assert max(ratios) / min(ratios) <= bound


def single_atom_decomposition(grid, c):
    """c times the spline atom (1, 5) on grid, and its exact decomposition:
    the one coefficient c at slot (1, 5)."""
    g = spline_atom(1, 5, grid, d=2).scaled(c)
    level = np.zeros(6)
    level[5] = c
    return g, AtomicDecomposition(CoefficientGrid({0: np.zeros(1), 1: level}),
                                  SPEC_L2, grid, [0.0], values=g.values)


class TestTraceNorms:
    def test_single_atom_exact_value(self, fine_grid):
        # 3 times the spline atom (1, 5) with its one-atom decomposition
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        g, dec = single_atom_decomposition(fine_grid, 3.0)
        val = tb_norm(g, params, decomposition=dec)
        expected = 3.0 * 2.0 ** (1 * (1.0 - 2.0 / 2.0)) * (1 + 5) ** 0.5
        assert val == pytest.approx(expected, rel=1e-12)

    def test_tf_single_atom_exact_value(self, fine_grid):
        # single-entry grids make b and f coincide for every (p, q), so the
        # tf law matches the tb one exactly
        params = SpaceParams(1.0, 2.0, 3.0, 2)
        g, dec = single_atom_decomposition(fine_grid, 2.0)
        val = tf_norm(g, params, decomposition=dec)
        expected = 2.0 * 2.0 ** (1 * (1.0 - 2.0 / 2.0)) * (1 + 5) ** 0.5
        assert val == pytest.approx(expected, rel=1e-12)

    def test_tb_equals_tf_at_p_eq_q(self, fine_grid):
        params = SpaceParams(0.8, 1.7, 1.7, 2)
        spec = AtomSpec(1, -1, 0.8, 1.7)
        g = RadialProfile.from_callable(
            lambda t: bump((t - 1.2) / 0.6) + bump((t + 1.2) / 0.6), fine_grid, d=2)
        dec = decompose_profile(g, spec, J=8, track_history=False)
        b = tb_norm(g, params, decomposition=dec)
        f = tf_norm(g, params, decomposition=dec)
        assert f == pytest.approx(b, rel=1e-10)

    def test_decomposition_checked_by_its_own_spec(self):
        # f_{3,4} at s = 1, p = q = 2, d = 2: a given decomposition with
        # atoms of L = 0, below [s] + 1 = 2, is refused; an admissible
        # decomposition of g is read
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        g = make_f_j_lambda(3, 4.0).profile(Grid1D.uniform(2 ** -10, 1.0), d=2)
        low = AtomSpec(0, -1, 1.0, 2.0)
        dec = decompose_profile(g, low, J=8, raise_on_stall=False)
        ok = decompose_profile(g, AtomSpec.b_admissible(1.0, 2.0, 2), J=8,
                               raise_on_stall=False)
        for norm in (tb_norm, tf_norm):
            with pytest.raises(InvalidParameterError, match="L = 0"):
                norm(g, params, decomposition=dec)
            assert norm(g, params, decomposition=ok) == pytest.approx(
                norm(g, params, J=8), rel=1e-12)

    def test_decomposition_must_lie_on_the_profile_grid(self):
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        fam = make_f_j_lambda(3, 4.0)
        g = fam.profile(Grid1D.uniform(2 ** -10, 1.0), d=2)
        other = decompose_profile(fam.profile(Grid1D.uniform(2 ** -9, 1.0), d=2),
                                  AtomSpec.b_admissible(1.0, 2.0, 2), J=8,
                                  raise_on_stall=False)
        for norm in (tb_norm, tf_norm):
            with pytest.raises(InvalidParameterError, match="grid"):
                norm(g, params, decomposition=other)

    def test_decomposition_must_be_of_the_profile(self):
        # f_{2,3}'s decomposition on f_{3,4}'s grid read as f_{3,4}'s gave
        # f_{2,3}'s norm, 11.338, for f_{3,4}'s 7.195; a decomposition
        # of an equal copy of the values is read
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        spec = AtomSpec.b_admissible(1.0, 2.0, 2)
        grid = Grid1D.uniform(2 ** -10, 1.0)
        g = make_f_j_lambda(3, 4.0).profile(grid, d=2)
        h = make_f_j_lambda(2, 3.0).profile(grid, d=2)
        other = decompose_profile(h, spec, J=8, raise_on_stall=False)
        copy = decompose_profile(RadialProfile(grid, g.values.copy(), 2), spec,
                                 J=8, raise_on_stall=False)
        for norm in (tb_norm, tf_norm):
            assert norm(h, params, decomposition=other) == pytest.approx(
                11.338, abs=1e-3)
            with pytest.raises(InvalidParameterError, match="not one of g"):
                norm(g, params, decomposition=other)
            assert norm(g, params, decomposition=copy) == pytest.approx(
                7.195, abs=1e-3)

    @pytest.mark.parametrize("J", [-1, -4])
    def test_negative_J_raises(self, fine_grid, J):
        g = spline_atom(1, 5, fine_grid, d=2)
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        for call in (lambda: decompose_profile(g, SPEC_L2, J=J),
                     lambda: tb_norm(g, params, J=J),
                     lambda: tf_norm(g, params, J=J)):
            with pytest.raises(InvalidParameterError, match="J >= 0"):
                call()

    @pytest.mark.parametrize("J", [1.5, True, 8.0])
    def test_non_integer_J_raises(self, fine_grid, J):
        # 1.5 raised a raw TypeError
        g = spline_atom(1, 5, fine_grid, d=2)
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        for call in (lambda: decompose_profile(g, SPEC_L2, J=J),
                     lambda: tb_norm(g, params, J=J),
                     lambda: tf_norm(g, params, J=J)):
            with pytest.raises(InvalidParameterError, match="integer J >= 0"):
                call()

    def test_dilation_law_within_factor_two(self):
        # tb(g(t / 2^-m)) / tb(g) tracks 2^{m(s-d/p)} within factor 2 over m
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        grid = Grid1D.uniform(2.0 ** -13, 4.0)
        norms = []
        for m in range(0, 4):
            g = RadialProfile.from_callable(
                lambda t, m=m: bump((np.abs(t) * 2.0 ** m - 1.0) / 0.5), grid, d=2)
            norms.append(tb_norm(g, params, decomposition=decomposed(g, SPEC_L2, 10)))
        for m in range(1, 4):
            expected = norms[0] * 2.0 ** (m * (params.s - 2.0 / params.p))
            assert 0.5 * expected <= norms[m] <= 2.0 * expected

    def test_grows_toward_kink_smoothness(self):
        # max(0, 1 - t^2)^alpha lies in B^{1/p + alpha}_{p,inf}: the norm
        # grows as s approaches that edge from below
        alpha, p = 1.0, 2.0
        prof = RadialProfile.from_callable(
            lambda t: np.maximum(0.0, 1.0 - np.abs(t) ** 2) ** alpha,
            Grid1D.uniform(2e-4, 2.0), d=2)
        norms = []
        for eps in (0.6, 0.3, 0.15):
            s = 1.0 / p + alpha - eps
            dec = decomposed(prof, AtomSpec(2, -1, s, p), 9)
            norms.append(tb_norm(prof, SpaceParams(s, p, 2.0, 2), decomposition=dec))
        assert norms[0] < norms[1] < norms[2]


class TestTwoSidedSupportLaw:
    def test_dilated_annulus_exponent_law(self):
        # profiles supported in a <= |t| <= b with b/a fixed (dilation):
        # the trace-norm to 1-D-norm ratio follows a^{(d-1)/p}
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        ratios, avals = [], [1.0, 2.0, 4.0, 8.0]
        for a in avals:
            grid = Grid1D.uniform(2.0 ** -11 * max(1.0, a / 2), 2.6 * a)
            g = RadialProfile.from_callable(
                lambda t, a=a: bump((np.abs(t) / a - 1.5) / 0.5), grid, d=2)
            dd = tb_norm(g, params, decomposition=decomposed(g, SPEC_L2, 10))
            oned = lp_besov_norm_1d(g, params, weighted=False,
                                    n_fft=2 ** 15, T=2.6 * a)
            ratios.append(dd / oned)
        slope = float(np.polyfit(np.log2(avals), np.log2(ratios), 1)[0])
        assert slope == pytest.approx(0.5, abs=0.2)


class TestLpBesovNorm:
    def test_zero(self, fine_grid):
        g = RadialProfile.from_callable(lambda t: 0.0 * t, fine_grid, d=2)
        assert lp_besov_norm_1d(g, SpaceParams(1.0, 2.0, 2.0, 2)) == 0.0

    def test_band_sum_reconstructs(self, fine_grid):
        g = RadialProfile.from_callable(psi_cutoff, fine_grid, d=2)
        spec = dyadic_band_spectrum(g, n_fft=2 ** 15, T=4.0)
        assert np.max(np.abs(spec.bands.sum(axis=0) - g(spec.t))) <= 1e-8

    # J: the reference's top level, spec.J when None; above spec.J the
    # reference's bands are empty, since 2^spec.J covers the grid's spectrum
    @pytest.mark.parametrize("n_fft, J", [(2 ** 12, None), (2 ** 12 + 1, None),
                                          (3001, 14)])
    def test_bands_match_complex_fft_reference(self, n_fft, J):
        g = RadialProfile.from_callable(psi_cutoff, Grid1D.uniform(2 ** -9, 4.0),
                                        d=2)
        spec = dyadic_band_spectrum(g, n_fft=n_fft, T=4.0)
        vals = g(spec.t)
        ref = _complex_reference_bands(vals, spec.t, spec.J if J is None else J)
        assert spec.bands.shape == ref[:spec.J + 1].shape == (spec.J + 1, n_fft)
        assert np.max(np.abs(spec.bands - ref[:spec.J + 1])) <= 1e-13 * np.max(np.abs(vals))
        assert not np.any(ref[spec.J + 1:])

    def test_bands_match_direct_convolution_oracle(self):
        # direct spatial convolution of the band kernels for j = 0..3
        g = RadialProfile.from_callable(lambda t: np.exp(-2.0 * t ** 2),
                                        Grid1D.uniform(2 ** -8, 8.0), d=2)
        n = 2 ** 12
        spec = dyadic_band_spectrum(g, n_fft=n, T=8.0)
        t = spec.t
        h = t[1] - t[0]
        xi = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
        vals = g(t)
        for j in range(4):
            win = _lowpass_window(xi / 2.0 ** j) if j else _lowpass_window(xi)
            if j > 0:
                win = win - _lowpass_window(xi / 2.0 ** (j - 1))
            kernel = np.fft.ifft(win).real
            direct = np.convolve(np.roll(kernel, n // 2), vals,
                                 mode="same")
            a = np.linalg.norm(spec.bands[j]) * math.sqrt(h)
            b = np.linalg.norm(direct) * math.sqrt(h)
            assert a == pytest.approx(b, rel=0.1)

    @pytest.mark.parametrize("p", [1.5, 2.0, math.inf])
    @pytest.mark.parametrize("q", [1.0, math.inf])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_norm_of_stacked_bands_bit_for_bit(self, p, q, weighted):
        # lp_besov_norm_1d reduces each band as it is made, on the half line
        # t <= 0 against a table of the multiplicities times the weight; the
        # norm taken here from all n_fft points of the stacked bands of
        # dyadic_band_spectrum is a different rounding of the same sums.
        # Band masses differ in the last bit (17 of 39, by 1.2e-16 to
        # 2.9e-16), so at p != 2 the norms are held to 4 eps relative: on
        # this profile they are the same float (gap 0), but another BLAS or
        # summation order may round them apart.  At p = 2 the masses come
        # from shorter grids or the spectrum (Parseval): equal to 1e-14
        from scipy.special import logsumexp
        s, d = 0.7, 2
        g = RadialProfile.from_callable(
            lambda t: bump((t - 1.2) / 0.5) + bump((t + 1.2) / 0.5),
            Grid1D.uniform(2 ** -10, 3.0), d=d)
        spec = dyadic_band_spectrum(g, n_fft=2 ** 13, T=4.0)
        h = spec.t[1] - spec.t[0]
        w = np.abs(spec.t) ** (d - 1) if weighted else np.ones_like(spec.t)
        logs = []
        for j, band in enumerate(spec.bands):
            if math.isinf(p):
                nrm = float(np.max(np.abs(band)))
            else:
                nrm = float(np.sum(np.abs(band) ** p * w) * h) ** (1.0 / p)
            logs.append(j * s * math.log(2.0) + math.log(nrm))
        want = (math.exp(max(logs)) if math.isinf(q)
                else math.exp(logsumexp([q * v for v in logs]) / q))
        got = lp_besov_norm_1d(g, SpaceParams(s, p, q, d), weighted=weighted,
                               n_fft=2 ** 13, T=4.0)
        rtol = 1e-14 if p == 2 else 4.0 * np.finfo(float).eps
        assert abs(got - want) <= rtol * abs(want)

    def test_gaussian_finite_for_all_s(self):
        g = RadialProfile.from_callable(lambda t: np.exp(-t ** 2),
                                        Grid1D.uniform(2 ** -10, 8.0), d=2)
        for s in (-1.0, 0.0, 1.5, 3.0):
            v = lp_besov_norm_1d(g, SpaceParams(s, 2.0, 2.0, 2), n_fft=2 ** 14,
                                 T=8.0)
            assert math.isfinite(v) and v > 0

    def test_surrogate_consistency_spread(self):
        # tb_norm and the weighted LP norm agree up to constants on a fixed
        # smooth corpus: the max-min spread of the log-ratio is <= 1.5
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        grid = Grid1D.uniform(2.0 ** -12, 4.0)
        log_ratios = []
        corpus = [(0.8, 0.4), (1.2, 0.5), (1.6, 0.7), (0.6, 0.3), (2.0, 0.9),
                  (1.0, 0.25), (1.4, 0.45), (0.9, 0.6), (1.8, 0.5), (1.1, 0.35),
                  (0.7, 0.5), (1.3, 0.65), (1.5, 0.3), (2.2, 0.6), (0.5, 0.25),
                  (1.7, 0.8), (2.4, 0.7), (1.05, 0.55), (0.85, 0.45), (1.25, 0.4)]
        for c, w in corpus:
            g = RadialProfile.from_callable(
                lambda t, c=c, w=w: bump((t - c) / w) + bump((t + c) / w),
                grid, d=2)
            tb = tb_norm(g, params, decomposition=decomposed(g, SPEC_L2, 10))
            lp = lp_besov_norm_1d(g, params, weighted=True, n_fft=2 ** 15, T=4.0)
            log_ratios.append(math.log(tb / lp))
        spread = max(log_ratios) - min(log_ratios)
        assert spread <= 1.5


def _even_dft(X, n):
    return decompose._even_dft(X, n, np.empty(n // 2 + 1),
                               np.empty(n // 2 + n.bit_length()))


def _complex_fft_norm(g, params, weighted, n_fft, T):
    """lp_besov_norm_1d from the full complex spectrum of all n_fft samples,
    every window built on the whole xi axis, bands summed directly."""
    s, p, q, d = params.s, params.p, params.q, params.d
    t = -T + 2.0 * T * np.arange(n_fft) / n_fft
    h = t[1] - t[0]
    xi = 2.0 * math.pi * np.fft.fftfreq(n_fft, d=h)
    J = max(1, int(math.ceil(math.log2(np.max(np.abs(xi))))))
    low = [_lowpass_window(xi / 2.0 ** j) for j in range(J)] + [np.ones_like(xi)]
    full = np.fft.fft(g(t))
    w = np.abs(t) ** (d - 1) if weighted else 1.0
    total = 0.0
    for j in range(J + 1):
        band = np.fft.ifft(full * (low[j] - (low[j - 1] if j else 0.0))).real
        total += 2.0 ** (j * s * q) * (np.sum(np.abs(band) ** p * w) * h) ** (q / p)
    return total ** (1.0 / q)


CUT = decompose._FOLD_CUT


class TestEvenDft:
    # the fold's end at CUT and around it: 2 CUT + 4 folds once into an odd
    # quarter length, 2^13 + 8 twice, the second time on the strided twiddles
    @pytest.mark.parametrize("n", [2, 8, 1024, 2 ** 12 + 1, 2 ** 12 + 2, 3001,
                                   2 ** 17, CUT, 2 * CUT, 2 * CUT + 4,
                                   2 ** 13 + 8])
    def test_matches_irfft_of_real_spectrum(self, n):
        X = np.random.default_rng(n).standard_normal(n // 2 + 1)
        ref = np.fft.irfft(X, n)
        got = _even_dft(X, n)
        assert got.shape == (n // 2 + 1,)
        assert np.max(np.abs(got - ref[:n // 2 + 1])) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [8, 1024, 3001, 2 ** 12 + 2, 2 ** 17])
    def test_n_times_helper_is_forward_transform(self, n):
        x = np.random.default_rng(n).standard_normal(n // 2 + 1)
        mirrored = np.concatenate([x, x[(n - 1) // 2:0:-1]])
        ref = np.fft.rfft(mirrored).real
        got = n * _even_dft(x, n)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [2 * CUT + 4, 2 ** 13 + 8, 2 ** 17])
    def test_odd_outputs_are_scipy_dct3(self, n):
        # x[2r+1] is the DCT-III of z_f = X_f - X_{2m-f}, f < m, over n
        m = n // 4
        X = np.random.default_rng(n).standard_normal(n // 2 + 1)
        ref = scipy.fft.dct(X[:m] - X[2 * m:m:-1], type=3) / n
        got = _even_dft(X, n)[1::2]
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_no_transform_longer_than_half(self, monkeypatch):
        # at n_fft = 2^17 every transform of the norm, forward, per band and
        # of the weight tables, runs on at most n/2 points for p in
        # {1.5, 2, inf}, weighted or not: no full-length irfft or rfft
        lengths = []
        for module, name, length in [
                (np.fft, "irfft", lambda a, n=None, *args, **kw: n),
                (np.fft, "rfft", lambda a, *args, **kw: len(a)),
                (np.fft, "fft", lambda a, *args, **kw: len(a))]:
            def recording(*args, _f=getattr(module, name), _len=length, **kw):
                lengths.append(_len(*args, **kw))
                return _f(*args, **kw)
            monkeypatch.setattr(module, name, recording)
        n = 2 ** 17
        g = RadialProfile.from_callable(psi_cutoff, Grid1D.uniform(2 ** -12, 4.0),
                                        d=2)
        decompose._weight_plan.cache_clear()
        for p in (1.5, 2.0, math.inf):
            for weighted in (True, False):
                assert lp_besov_norm_1d(g, SpaceParams(1.0, p, 2.0, 2), n_fft=n,
                                        T=4.0, weighted=weighted) > 0
        assert lengths and max(lengths) <= n // 2

    @pytest.mark.parametrize("p, q", [(2.0, 2.0), (1.0, 1.0)])
    @pytest.mark.parametrize("shape", ["scaling-f-j-lambda", "support-shift-2",
                                       "support-shift-16"])
    def test_norm_matches_complex_fft_reference(self, shape, p, q):
        # the experiments' profiles, grids, n_fft, T and weighting
        if shape == "scaling-f-j-lambda":
            g = make_f_j_lambda(5, 16.0).profile(Grid1D.uniform(2 ** -14, 4.0), d=2)
            weighted, n_fft, T = True, 2 ** 17, 4.0
        else:
            tau = float(shape.rsplit("-", 1)[1])
            g = RadialProfile.from_callable(
                lambda t: bump((np.abs(t) - (tau + 0.5)) / 0.5),
                Grid1D.uniform(2 ** -11, tau + 2.0), d=2)
            weighted, n_fft, T = False, 2 ** 16, tau + 2.0
        params = SpaceParams(1.0, p, q, 2)
        got = lp_besov_norm_1d(g, params, weighted=weighted, n_fft=n_fft, T=T)
        want = _complex_fft_norm(g, params, weighted, n_fft, T)
        assert got == pytest.approx(want, rel=1e-12)


def _complex_reference_bands(vals, t, J):
    """Bands 0..J of the samples vals on the periodic grid t from their full
    complex spectrum, every window built on the whole xi axis."""
    xi = 2.0 * math.pi * np.fft.fftfreq(t.size, d=t[1] - t[0])
    low = [_lowpass_window(xi / 2.0 ** j) for j in range(J)] + [np.ones_like(xi)]
    full = np.fft.fft(vals)
    return np.array([np.fft.ifft(full * (low[j] - (low[j - 1] if j else 0.0))).real
                     for j in range(J + 1)])


def _stacked_l2_logs(spec, s, d, weighted):
    """log(2^{js} ||band_j||_2) of each nonzero stacked band, from its samples."""
    h = spec.t[1] - spec.t[0]
    w = np.abs(spec.t) ** (d - 1) if weighted else 1.0
    return [j * s * math.log(2.0) + 0.5 * math.log(np.sum(band ** 2 * w) * h)
            for j, band in enumerate(spec.bands) if np.any(band)]


PARSEVAL_PROFILES = {
    "bump-pair": lambda t: bump((t - 1.2) / 0.5) + bump((t + 1.2) / 0.5),
    # little signal in the low bands
    "oscillating": lambda t: np.cos(40.0 * t) * bump(t / 2.5),
}


class TestParsevalRoute:
    # n odd and even, around and above the fold cut; T from the grid (None)
    # or given, also off the powers of two, where the weight tables shared
    # by every T scale by T^{d-1}; a J above spec.J gives a reference with
    # more bands, whose extra bands are empty, so the norm does not change
    @pytest.mark.parametrize("n, T, J", [(2 ** 12 + 1, None, None),
                                         (3001, 4.0, 14), (2 ** 13, 4.0, None),
                                         (2 ** 15, None, 17), (2 ** 17, 4.0, None),
                                         (2 ** 13, 3.3, None), (3001, 5.0, 14)])
    @pytest.mark.parametrize("shape", sorted(PARSEVAL_PROFILES))
    def test_p2_norm_matches_stacked_bands(self, shape, n, T, J):
        g = RadialProfile.from_callable(PARSEVAL_PROFILES[shape],
                                        Grid1D.uniform(2 ** -10, 3.0), d=2)
        spec = dyadic_band_spectrum(g, n_fft=n, T=T)
        if J is not None:
            assert J > spec.J
            assert not np.any(_complex_reference_bands(g(spec.t), spec.t, J)[spec.J + 1:])
        s = 0.7
        for d in (1, 2, 3):
            for weighted in (True, False):
                logs = _stacked_l2_logs(spec, s, d, weighted)
                for q in (0.5, 1.0, 2.0, math.inf):
                    want = (math.exp(max(logs)) if math.isinf(q) else
                            math.exp(seqspaces._logsumexp([q * v for v in logs]) / q))
                    got = lp_besov_norm_1d(g, SpaceParams(s, 2.0, q, d),
                                           weighted=weighted, n_fft=n, T=T)
                    assert got == pytest.approx(want, rel=1e-13), (d, weighted, q)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_transform_count(self, monkeypatch, weighted):
        # on warm plans, for p in {1.5, 2, inf}, no _even_dft is longer than
        # n (no output longer than n//2 + 1).  p != 2: the spectrum and one
        # length-n transform per nonempty band, each sampled on the half
        # line.  p = 2 unweighted: the spectrum is the only transform;
        # weighted at T = 4: the spectrum and the 4 bands too wide for a grid
        # of n/2 points are the only irfft calls of length >= n/4
        n = 2 ** 17
        g = RadialProfile.from_callable(psi_cutoff, Grid1D.uniform(2 ** -12, 4.0),
                                        d=2)
        *_, bands = _dyadic_bands(*_fft_samples(g, n, 4.0))
        nonempty = sum(bool(np.any(X)) for _, _, X in bands)
        dfts, lengths = [], []
        even_dft, irfft = decompose._even_dft, np.fft.irfft

        def recording_dft(X, m, *args):
            dfts.append(m)
            return even_dft(X, m, *args)

        def recording_irfft(a, m=None, *args, **kw):
            lengths.append(m)
            return irfft(a, m, *args, **kw)

        for p in (1.5, 2.0, math.inf):
            norm = lambda g: lp_besov_norm_1d(g, SpaceParams(1.0, p, 2.0, 2),
                                              n_fft=n, T=4.0, weighted=weighted)
            want = norm(g)
            with monkeypatch.context() as patch:
                patch.setattr(decompose, "_even_dft", recording_dft)
                patch.setattr(np.fft, "irfft", recording_irfft)
                # equal samples on another object: the band norms of g's
                # call are not reused
                assert norm(_fresh_copy(g)) == want > 0
            assert max(dfts) == n
            if p != 2:
                assert dfts == [n] * (nonempty + 1)
            elif weighted:
                assert sum(length >= n // 4 for length in lengths) == 5
            else:
                assert dfts == [n]
            dfts.clear()
            lengths.clear()


def _windows_level_by_level(xi, J):
    """Band j's window on its slice [a, b) as the low-pass difference of
    levels j and j - 1, each built on its own slice."""
    out, prev_a, prev = [], 0, np.zeros(0)
    for j in range(J + 1):
        a, b = np.searchsorted(xi, [2.0 ** (j - 1) if j else 0.0, 2.0 ** (j + 1)])
        low = decompose._level_lowpass(xi[a:b], j) if j < J else np.ones(b - a)
        window, below = low.copy(), prev[a - prev_a:]
        window[:below.size] -= below
        prev_a, prev = a, low
        out.append((int(a), int(b), window))
    return out


def _clear_plans():
    decompose._band_plan.cache_clear()
    decompose._weight_plan.cache_clear()


class TestFftPlan:
    @pytest.mark.parametrize("n, T, J", [(2 ** 12, 4.0, None), (3001, 4.0, 14),
                                         (2 ** 12 + 1, 3.3, None), (255, 5.0, 9),
                                         (2 ** 17, 6.0, None), (64, 1.0, None),
                                         (2, 4.0, 0)])
    def test_windows_are_the_level_by_level_windows(self, n, T, J):
        h = float(np.diff(decompose._fft_grid(n, T, 2))[0])
        ramp, edges = decompose._band_plan(n, h)
        xi = 2.0 * math.pi * np.fft.rfftfreq(n, d=h)
        J_max = max(1, int(math.ceil(math.log2(xi[-1]))))
        assert len(edges) == J_max + 2
        J = J_max if J is None else J
        edges += (xi.size,) * (J + 2 - len(edges))
        for j, (a, b, window) in enumerate(_windows_level_by_level(xi, J)):
            mid = edges[j]
            assert (a, b) == (edges[j - 1] if j else 0, edges[j + 1])
            plan = np.concatenate([1.0 - ramp[a:mid], ramp[mid:b]])
            assert plan.tobytes() == window.tobytes(), j

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_warm_call_matches_cold(self, d):
        g = RadialProfile.from_callable(PARSEVAL_PROFILES["bump-pair"],
                                        Grid1D.uniform(2 ** -10, 3.0), d=2)

        def norms(cold):
            out = []
            for T in (4.0, 5.0, 4.0, 6.0):
                if cold:
                    _clear_plans()
                for p, weighted in ((2.0, True), (2.0, False), (1.5, True)):
                    v = lp_besov_norm_1d(g, SpaceParams(0.7, p, 1.0, d),
                                         weighted=weighted, n_fft=2 ** 13, T=T)
                    out.append(v.hex())
                out.append(dyadic_band_spectrum(g, n_fft=2 ** 12, T=T).bands.tobytes())
            return out

        cold = norms(cold=True)
        assert norms(cold=False) == cold

    def test_warm_weighted_call_one_transform_per_band(self, monkeypatch):
        n = 2 ** 17
        g = RadialProfile.from_callable(psi_cutoff, Grid1D.uniform(2 ** -12, 4.0),
                                        d=2)
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        bands = dyadic_band_spectrum(g, n_fft=n, T=4.0).bands
        nonempty = int(np.count_nonzero(np.any(bands != 0.0, axis=1)))
        want = lp_besov_norm_1d(g, params, n_fft=n, T=4.0)
        dfts = []
        even_dft = decompose._even_dft

        def recording(X, m, *args):
            dfts.append(m)
            return even_dft(X, m, *args)

        monkeypatch.setattr(decompose, "_even_dft", recording)
        assert lp_besov_norm_1d(_fresh_copy(g), params, n_fft=n, T=4.0) == want
        # the spectrum, then one per band: 13 narrow ones on M <= n/2 points
        # and 4 wide ones on the half line; none for the weight
        assert len(dfts) == nonempty + 1 == 18
        assert dfts[0] == n and dfts.count(n) == 5
        assert max(dfts[1:14]) <= n // 2

    @pytest.mark.parametrize("n", [2, 3, 3001, 2 ** 12, 2 ** 12 + 1])
    def test_unweighted_table_is_the_multiplicities(self, n):
        # table n of the weight |t/T|^0 = 1 on the half line t_k, k <= n//2:
        # t_0 = -T counts once, and so does t_{n/2} = 0 for even n; every
        # other t_k stands for t_k and t_{n-k}
        tables, slices = decompose._weight_plan(n, 0)
        want = np.full(n // 2 + 1, 2.0)
        want[0] = 1.0
        if n % 2 == 0:
            want[-1] = 1.0
        assert tables[slices[n]].tobytes() == want.tobytes()

    def test_caches_bounded_and_read_only(self):
        # the weight tables are keyed by (n, e): e = d - 1 weighted, and 0
        # unweighted, where d = 1's weighted norm shares them
        g = RadialProfile.from_callable(PARSEVAL_PROFILES["bump-pair"],
                                        Grid1D.uniform(2 ** -10, 3.0), d=2)
        for i in range(10):
            lp_besov_norm_1d(g, SpaceParams(0.7, 2.0, 2.0, 1 + i % 4),
                             n_fft=2 ** 12, T=2.0 + 0.5 * i)
        for plan in (decompose._band_plan, decompose._weight_plan):
            info = plan.cache_info()
            assert info.currsize == info.maxsize == decompose._PLAN_ENTRIES
        # the last three calls: d = 4, 1, 2, so e = 3, 0, 1
        info = decompose._weight_plan.cache_info()
        for e in (3, 0, 1):
            decompose._weight_plan(2 ** 12, e)
        assert decompose._weight_plan.cache_info().hits == info.hits + 3
        lp_besov_norm_1d(g, SpaceParams(0.7, 1.5, 2.0, 2), weighted=False,
                         n_fft=2 ** 12, T=6.5)
        assert decompose._weight_plan.cache_info().hits == info.hits + 4
        h = float(np.diff(decompose._fft_grid(2 ** 12, 6.5, 2))[0])
        ramp, _ = decompose._band_plan(2 ** 12, h)
        tables, _ = decompose._weight_plan(2 ** 12, 1)
        for arr in (ramp, tables):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestBandNormMemo:
    """lp_besov_norm_1d keeps the band norms of its last calls per live
    profile object, grid, route and p: a call that differs only in s and q
    recombines them, and every value is a fresh call's."""

    N = 2 ** 12

    @staticmethod
    def profile():
        return RadialProfile.from_callable(PARSEVAL_PROFILES["bump-pair"],
                                           Grid1D.uniform(2 ** -10, 3.0), d=2)

    @staticmethod
    def counted_transforms(monkeypatch):
        """The length of every _even_dft call, as it is made."""
        calls = []
        even_dft = decompose._even_dft
        monkeypatch.setattr(decompose, "_even_dft",
                            lambda X, m, *args: calls.append(m) or even_dft(X, m, *args))
        return calls

    def norm(self, g, s=0.7, p=2.0, q=1.0, d=2, weighted=True, n_fft=N, T=4.0):
        return lp_besov_norm_1d(g, SpaceParams(s, p, q, d), weighted=weighted,
                                n_fft=n_fft, T=T)

    @pytest.mark.parametrize("p", [1.5, 2.0, math.inf])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_s_q_sweep_equals_fresh_calls(self, monkeypatch, p, weighted):
        g = self.profile()
        calls = self.counted_transforms(monkeypatch)
        sq = [(s, q) for s in (-0.5, 0.7, 2.0) for q in (0.5, 1.0, 2.0, math.inf)]
        values = []
        for s, q in sq:
            values.append(self.norm(g, s=s, p=p, q=q, weighted=weighted))
            if len(values) == 1:
                first = len(calls)
        assert first > 0 and len(calls) == first   # only the first call transforms
        monkeypatch.undo()
        for (s, q), v in zip(sq, values):
            fresh = self.norm(_fresh_copy(g), s=s, p=p, q=q, weighted=weighted)
            assert v == fresh, (s, q)

    # weighted d = 1 and unweighted p = 2 both weigh by |t|^0, but round apart
    # (weight table against Parseval)
    @pytest.mark.parametrize("change", [
        {"p": 1.5}, {"T": 5.0}, {"n_fft": N + 1}, {"weighted": False},
        {"d": 3}, ({"d": 1}, {"weighted": False})])
    def test_another_key_misses(self, monkeypatch, change):
        first, second = change if isinstance(change, tuple) else ({}, change)
        g = self.profile()
        self.norm(g, **first)
        calls = self.counted_transforms(monkeypatch)
        v = self.norm(g, **second)
        assert calls and calls[0] == second.get("n_fft", self.N)
        monkeypatch.undo()
        assert v == self.norm(_fresh_copy(g), **second)

    def test_unweighted_key_has_no_dimension(self, monkeypatch):
        g = self.profile()
        v = self.norm(g, weighted=False, p=1.5, d=2)
        calls = self.counted_transforms(monkeypatch)
        assert self.norm(g, weighted=False, p=1.5, d=3) == v
        assert calls == []

    def test_samples_edited_in_place_miss(self):
        g = self.profile()
        before = self.norm(g)
        g.values[...] *= 2.0
        after = self.norm(g)
        assert after != before
        assert after == self.norm(_fresh_copy(g))

    def test_equal_profile_object_misses(self, monkeypatch):
        g = self.profile()
        v = self.norm(g)
        calls = self.counted_transforms(monkeypatch)
        assert self.norm(_fresh_copy(g)) == v
        assert calls

    def test_entries_die_with_the_profile(self):
        g = self.profile()
        self.norm(g)
        self.norm(g, p=1.5)
        mine = [memo for memo in decompose._band_norms.entries if memo.ref() is g]
        assert len(mine) == 2
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None
        assert not any(memo is m for memo in decompose._band_norms.entries
                       for m in mine)

    def test_at_most_plan_entries_held(self, monkeypatch):
        # a T-interleaved sweep like the benchmark's hits on every repeat
        g = self.profile()
        calls = self.counted_transforms(monkeypatch)
        misses = []
        for T in (4.0, 5.0, 4.0, 6.0, 4.0, 5.0, 6.0):
            before = len(calls)
            self.norm(g, T=T)
            misses.append(len(calls) > before)
        assert misses == [True, True, False, True, False, False, False]
        assert len(decompose._band_norms.entries) == decompose._PLAN_ENTRIES == 3
        self.norm(g, T=7.0)
        assert [memo.key[1] for memo in decompose._band_norms.entries] == [5.0, 6.0, 7.0]


class TestFftInputValidation:
    @pytest.fixture
    def bump_17(self):
        # nonzero out to |t| < 1.7
        return RadialProfile.from_callable(lambda t: bump((np.abs(t) - 1.2) / 0.5),
                                           Grid1D.uniform(2 ** -8, 3.0), d=2)

    def _calls(self, g, **kw):
        return [lambda: lp_besov_norm_1d(g, SpaceParams(1.0, 2.0, 2.0, 2), **kw),
                lambda: dyadic_band_spectrum(g, **kw)]

    @pytest.mark.parametrize("n_fft", [0, 1])
    def test_n_fft_below_two(self, bump_17, n_fft):
        for call in self._calls(bump_17, n_fft=n_fft, T=4.0):
            with pytest.raises(InvalidParameterError):
                call()

    @pytest.mark.parametrize("n_fft", [2.5, 4096.0, True])
    def test_n_fft_not_an_integer(self, bump_17, n_fft):
        # 2.5 and 4096.0 raised numpy's raw "n should be an integer"
        for call in self._calls(bump_17, n_fft=n_fft, T=4.0):
            with pytest.raises(InvalidParameterError, match="integer n_fft >= 2"):
                call()

    def test_numpy_integer_n_fft(self, bump_17):
        # the same floats as a Python int, at p = 2 and p != 2 (on another
        # profile object, which computes its own band norms)
        for p in (2.0, 1.5):
            params = SpaceParams(1.0, p, 2.0, 2)
            assert lp_besov_norm_1d(bump_17, params, n_fft=np.int64(2 ** 12), T=4.0) \
                == lp_besov_norm_1d(_fresh_copy(bump_17), params, n_fft=2 ** 12, T=4.0)

    @pytest.mark.parametrize("T", [0.0, -4.0, math.inf, math.nan])
    def test_T_not_finite_positive(self, bump_17, T):
        for call in self._calls(bump_17, n_fft=2 ** 10, T=T):
            with pytest.raises(InvalidParameterError):
                call()

    def test_T_inside_support(self, bump_17):
        for call in self._calls(bump_17, n_fft=2 ** 10, T=1.0):
            with pytest.raises(InvalidParameterError):
                call()
        # T reaching the last nonzero node is accepted
        for call in self._calls(bump_17, n_fft=2 ** 10, T=1.7):
            call()


class TestSobolevNorms:
    def test_cone_closed_form(self):
        # g = max(0, 1-r), p = 1, d = 3: 2(int (1-t) t^2 + int t^2) = 5/6
        g = RadialProfile.from_callable(lambda t: np.maximum(0.0, 1.0 - t),
                                        Grid1D.uniform(2e-4, 1.5), d=3)
        assert sobolev_radial_norm_1(g, 1, 3) == pytest.approx(5.0 / 6.0, rel=1e-3)

    def test_zero(self):
        g = RadialProfile.from_callable(lambda t: 0.0 * t,
                                        Grid1D.uniform(0.01, 1.0), d=2)
        assert sobolev_radial_norm_1(g, 1, 2) == 0.0

    def test_gradient_reduction_oracle_d2(self):
        # first-order norm's derivative term equals the full 2-D gradient
        # norm divided by the surface constant (w-100 route)
        from radialfs.core import radial_gradient_identity_check
        ev = lambda r: bump((np.asarray(r, float) - 1.0) / 0.5) \
            + bump((np.asarray(r, float) + 1.0) / 0.5)
        g = RadialProfile.from_callable(ev, Grid1D.uniform(5e-4, 2.0), d=2)
        rep = radial_gradient_identity_check(g, 2, 2, evaluator=ev)
        assert rep.ratio == pytest.approx(1.0, abs=1e-4)

    def test_p_below_one_rejected(self):
        g = RadialProfile.from_callable(lambda t: t ** 2,
                                        Grid1D.uniform(0.01, 1.0), d=2)
        with pytest.raises(InvalidParameterError):
            sobolev_radial_norm_1(g, 0.5, 2)
