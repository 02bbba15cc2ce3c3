import math
import warnings

import numpy as np
import pytest
import scipy.fft

from radialfs import decompose, seqspaces
from radialfs.bump import bump, psi_cutoff
from radialfs.core import Grid1D, RadialProfile, weighted_lp_norm
from radialfs.covering import AtomSpec, validate_even_atom
from radialfs.decompose import (_eval_capture, _lowpass_window,
                                atom_normalization, decompose_profile,
                                dyadic_band_spectrum, lp_besov_norm_1d,
                                sobolev_radial_norm_1, tb_norm,
                                template_atom_profile, template_atom_values,
                                tf_norm)
from radialfs.errors import DecompositionError, InvalidParameterError
from radialfs.families import make_f_j_lambda
from radialfs.spaces import SpaceParams

SPEC_L2 = AtomSpec(2, -1, 1.0, 2.0)


@pytest.fixture(scope="module")
def fine_grid():
    return Grid1D.uniform(2.0 ** -12, 4.0)


class TestDecomposeProfile:
    def test_single_atom_reproduced_exactly(self, fine_grid):
        atom = template_atom_profile(2, 3, fine_grid, L=2, d=2)
        dec = decompose_profile(atom, SPEC_L2, J=8)
        assert dec.coefficients.levels[2][3] == pytest.approx(1.0, rel=1e-12)
        crosstalk = max((abs(v) for jk, v in dec.coefficients.items()
                         if jk != (2, 3)), default=0.0)
        assert crosstalk < 1e-3  # exact zero by the collocation geometry
        assert crosstalk == 0.0

    def test_zero_profile_empty(self, fine_grid):
        g = RadialProfile.from_callable(lambda t: 0.0 * t, fine_grid, d=2)
        dec = decompose_profile(g, SPEC_L2, J=5)
        assert len(dec.coefficients) == 0
        assert dec.residual_norm == 0.0

    def test_psi_cutoff_residual_rate(self, fine_grid):
        # convergence-rate oracle: average contraction factor over j = 0..8,
        # frozen as the regression bound (measured 2.03 on this corpus)
        g = RadialProfile.from_callable(psi_cutoff, fine_grid, d=2)
        dec = decompose_profile(g, SPEC_L2, J=9)
        h = dec.residual_history
        rates = [h[i] / h[i + 1] for i in range(9)]
        avg = float(np.prod(rates) ** (1.0 / len(rates)))
        assert avg >= 2.0

    def test_reconstruction_tolerance(self, fine_grid):
        g = RadialProfile.from_callable(psi_cutoff, fine_grid, d=2)
        dec = decompose_profile(g, SPEC_L2, J=12)
        rel = dec.residual_norm / weighted_lp_norm(g, 2.0, 2)
        assert rel <= 1e-4

    def test_every_atom_validates(self, fine_grid):
        g = RadialProfile.from_callable(
            lambda t: bump((t - 1.0) / 0.7) + bump((t + 1.0) / 0.7), fine_grid, d=2)
        dec = decompose_profile(g, SPEC_L2, J=6)
        checked = 0
        for (j, k), _ in list(dec.coefficients.items())[:25]:
            ap = dec.atom_profile(j, k)
            interval = (2.0 ** -j,) if k == 0 else \
                (2.0 ** -j * k, 2.0 ** -j * (k + 1))
            assert validate_even_atom(ap, interval, SPEC_L2.L).ok
            checked += 1
        assert checked > 0

    def test_stall_diagnostic(self):
        # noise finer than the level budget cannot be captured: the residual
        # stalls (grows between J-2 and J) and the diagnostic raises
        rng = np.random.default_rng(0)
        grid = Grid1D.uniform(2.0 ** -12, 2.0)
        vals = rng.standard_normal(grid.size)
        g = RadialProfile(grid, 0.5 * (vals + vals[::-1]), 2)
        with pytest.raises(DecompositionError):
            decompose_profile(g, SPEC_L2, J=4)

    def test_csv_export(self, fine_grid, tmp_path):
        atom = template_atom_profile(1, 2, fine_grid, L=2, d=2)
        dec = decompose_profile(atom, SPEC_L2, J=4)
        path = tmp_path / "dec.csv"
        dec.to_csv(path)
        lines = open(path).read().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "j,k,coefficient"


def from_scratch_decomposition(g, spec, J):
    """Level-by-level cascade that re-evaluates every captured level on the
    whole grid after each level; returns the per-level coefficient arrays and
    the residual norm after each level."""
    t = g.grid.nodes
    outer = float(np.abs(t).max())
    n0 = atom_normalization(spec.L)
    d, p = g.dim_context or 2, max(1.0, spec.p)
    levels, history = {}, []
    for j in range(J + 1):
        k_max = int(math.ceil(outer * 2.0 ** j)) + 1
        ks = np.arange(0, k_max + 1) if j == 0 else np.arange(1, k_max + 1, 2)
        pts = 2.0 ** (-j) * ks
        coeffs = np.zeros(k_max + 1)
        coeffs[ks] = (g(pts) - _eval_capture(levels, pts, spec.L)) * n0
        levels[j] = coeffs
        res = g.values - _eval_capture(levels, t, spec.L)
        history.append(weighted_lp_norm(
            RadialProfile(g.grid, 0.5 * (res + res[::-1])), p, d))
    return levels, history


# Profiles that exercise each edge of the window (a - h - 1, b + h + 1).  On
# the 0.9-grid the annulus's last nonzero node is b = 104.4, and g(105) is
# nonzero, so the level-0 atom at 105 reaches 105.5 > b + 1: a window without
# the h term, or with a margin of 1/2 in place of 1 + h, loses coefficients.
WINDOW_CASES = {
    "thin-annulus-at-104": lambda: RadialProfile.from_callable(
        lambda t: bump((t - 104.0) / 0.6), Grid1D.uniform(0.9, 108.0), d=2),
    "two-pieces": lambda: RadialProfile.from_callable(
        lambda t: bump((t - 1.0) / 0.3) + 0.5 * bump((t - 4.5) / 0.4),
        Grid1D.uniform(2.0 ** -6, 6.0), d=2),
    "touches-origin": lambda: RadialProfile.from_callable(
        lambda t: bump(t / 0.8), Grid1D.composite(J=6, h=0.05, T=4.0), d=2),
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
        Grid1D.log_spaced(2.0 ** -9, 4.0, 700), d=2),
}


def _assert_half_line_window_visits(monkeypatch, g, J=8):
    """Run decompose_profile(g) recording every _add_level call: all points
    lie in the window and on t >= 0, and per level the grid calls (those not
    made by _eval_capture) visit distinct nodes, at most (n + 1) / 2."""
    add_level, eval_capture = decompose._add_level, decompose._eval_capture
    seen, on_grid, in_capture = [], {}, []

    def recording(out, t, j, coeffs, n0):
        seen.append(t.copy())
        if not in_capture:
            on_grid.setdefault(j, []).append(t.copy())
        add_level(out, t, j, coeffs, n0)

    def capture(*args):
        in_capture.append(True)
        try:
            return eval_capture(*args)
        finally:
            in_capture.pop()

    monkeypatch.setattr(decompose, "_add_level", recording)
    monkeypatch.setattr(decompose, "_eval_capture", capture)
    dec = decompose_profile(g, SPEC_L2, J=J, raise_on_stall=False)
    r = np.abs(g.grid.nodes[g.values != 0.0])
    h = float(np.max(np.diff(g.grid.nodes)))
    lo, hi = r.min() - h - 1.0, r.max() + h + 1.0
    points = np.concatenate(seen)
    assert points.size > 0 and len(dec.coefficients) > 0
    assert np.all((points >= 0.0) & (points > lo) & (points < hi))
    assert sorted(on_grid) == list(range(J + 1))
    for parts in on_grid.values():
        nodes = np.concatenate(parts)
        assert nodes.size <= (g.grid.size + 1) // 2
        assert np.unique(nodes).size == nodes.size


class TestIncrementalCapture:
    @pytest.mark.parametrize("J", [5, 10])
    @pytest.mark.parametrize("track_history", [True, False])
    def test_matches_from_scratch_recomputation(self, J, track_history):
        # h = 2^-8: at J = 10 the collocation points fall between grid nodes
        g = RadialProfile.from_callable(
            lambda t: bump((np.abs(t) - 1.1) / 0.7) + 0.3 * psi_cutoff(t),
            Grid1D.uniform(2.0 ** -8, 3.0), d=2)
        dec = decompose_profile(g, SPEC_L2, J=J, raise_on_stall=False,
                                track_history=track_history)
        levels, history = from_scratch_decomposition(g, SPEC_L2, J)
        assert list(dec.coefficients.levels) == list(levels)
        for j in levels:
            assert np.array_equal(dec.coefficients.levels[j], levels[j])
        assert dec.residual_history == (history if track_history else history[-1:])
        assert dec.residual_norm == history[-1]
        expected = {(j, k): float(v) for j, arr in levels.items()
                    for k, v in enumerate(arr) if v != 0.0}
        assert dict(dec.coefficients.items()) == expected

    def test_reconstruction_is_the_sum_of_atoms(self):
        # independent of the localized per-level evaluation: sum every
        # captured atom over the whole grid
        g = RadialProfile.from_callable(psi_cutoff, Grid1D.uniform(2.0 ** -7, 2.0),
                                        d=2)
        dec = decompose_profile(g, SPEC_L2, J=4, raise_on_stall=False)
        # the grid and points past its edge, beyond every level's last slot
        t = np.concatenate([g.grid.nodes, np.linspace(2.0, 9.0, 701)])
        direct = sum(v * template_atom_values(j, k, t, SPEC_L2.L)
                     for (j, k), v in dec.coefficients.items())
        rec = dec.reconstruction(t)
        assert np.max(np.abs(rec - direct)) <= 1e-13 * np.max(np.abs(direct))

    @pytest.mark.parametrize("J", [0, 1, 8])
    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_bit_identical_to_dense_cascade(self, case, J):
        g = WINDOW_CASES[case]()
        dec = decompose_profile(g, SPEC_L2, J=J, raise_on_stall=False)
        levels, history = from_scratch_decomposition(g, SPEC_L2, J)
        assert list(dec.coefficients.levels) == list(levels)
        for j in levels:
            assert dec.coefficients.levels[j].tobytes() == levels[j].tobytes()
        assert [v.hex() for v in dec.residual_history] == [v.hex() for v in history]
        expected = {(j, k): float(v) for j, arr in levels.items()
                    for k, v in enumerate(arr) if v != 0.0}
        assert dict(dec.coefficients.items()) == expected
        assert (len(expected) == 0) == (case == "zero")

    @pytest.mark.parametrize("grid", ["uniform", "log-spaced"])
    def test_node_values_read_from_the_captured_sum(self, monkeypatch, grid):
        # collocation points on grid nodes take the captured sum's floats;
        # only points between nodes are evaluated by _eval_capture: on
        # h = 2^-6 those of the levels j > 6, on the log-spaced grid nearly all
        if grid == "uniform":
            g = RadialProfile.from_callable(
                lambda t: bump((np.abs(t) - 1.1) / 0.7) + 0.3 * psi_cutoff(t),
                Grid1D.uniform(2.0 ** -6, 3.0), d=2)
        else:
            g = WINDOW_CASES["log-spaced"]()
        nodes = set(np.abs(g.grid.nodes).tolist())
        evaluated = []
        eval_capture = decompose._eval_capture

        def recording(levels, t, L):
            evaluated.append((len(levels), np.asarray(t).copy()))
            return eval_capture(levels, t, L)

        monkeypatch.setattr(decompose, "_eval_capture", recording)
        J = 9
        dec = decompose_profile(g, SPEC_L2, J=J, raise_on_stall=False)
        monkeypatch.undo()
        assert evaluated and not any(nodes & set(t.tolist()) for _, t in evaluated)
        if grid == "uniform":
            assert sorted(j for j, _ in evaluated) == [7, 8, 9]
        levels, history = from_scratch_decomposition(g, SPEC_L2, J)
        for j in levels:
            assert dec.coefficients.levels[j].tobytes() == levels[j].tobytes()
        assert [v.hex() for v in dec.residual_history] == [v.hex() for v in history]

    def test_add_level_sees_only_the_window(self, monkeypatch):
        # a thin annulus far out: the cascade touches the 2.6-wide window,
        # not the 16385-node grid
        g = RadialProfile.from_callable(lambda t: bump((t - 100.0) / 0.3),
                                        Grid1D.uniform(2.0 ** -6, 128.0), d=2)
        _assert_half_line_window_visits(monkeypatch, g)

    def test_add_level_visits_the_half_line_once(self, monkeypatch):
        # the window holds 0 and the whole grid: each level still visits only
        # the (n + 1) / 2 nodes t >= 0
        g = RadialProfile.from_callable(lambda t: bump(t / 1.5),
                                        Grid1D.uniform(2.0 ** -6, 2.0), d=2)
        _assert_half_line_window_visits(monkeypatch, g)

    def test_lattice_half_points_raise_no_warning(self):
        # on h = 2^-6 every (k + 1/2) 2^-j with j <= 5 is a node, where the
        # level kernel meets |u| = 1 and divides by 0 on its way to exp(-inf)
        g = RadialProfile.from_callable(psi_cutoff, Grid1D.uniform(2.0 ** -6, 3.0),
                                        d=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = decompose_profile(g, SPEC_L2, J=8, raise_on_stall=False)
            out = np.zeros(8)
            decompose._add_level(out, (np.arange(8) + 0.5) / 8.0, 3,
                                 np.ones(10), 1.0)
        assert out.tobytes() == np.zeros(8).tobytes()
        levels, history = from_scratch_decomposition(g, SPEC_L2, 8)
        for j in levels:
            assert dec.coefficients.levels[j].tobytes() == levels[j].tobytes()
        assert [v.hex() for v in dec.residual_history] == [v.hex() for v in history]


class TestTraceNorms:
    def test_single_atom_exact_value(self, fine_grid):
        # odd k: the slot is native to its level (even k aliases coarser slots)
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        atom = template_atom_profile(1, 5, fine_grid, L=2, d=2)
        val = tb_norm(atom.scaled(3.0), params, spec=SPEC_L2, J=6)
        expected = 3.0 * 2.0 ** (1 * (1.0 - 2.0 / 2.0)) * (1 + 5) ** 0.5
        assert val == pytest.approx(expected, rel=1e-12)

    def test_tf_single_atom_exact_value(self, fine_grid):
        # single-entry grids make b and f coincide for every (p, q), so the
        # tf law matches the tb one exactly
        params = SpaceParams(1.0, 2.0, 3.0, 2)
        atom = template_atom_profile(1, 5, fine_grid, L=2, d=2)
        val = tf_norm(atom.scaled(2.0), params, spec=SPEC_L2, J=6)
        expected = 2.0 * 2.0 ** (1 * (1.0 - 2.0 / 2.0)) * (1 + 5) ** 0.5
        assert val == pytest.approx(expected, rel=1e-12)

    def test_tb_equals_tf_at_p_eq_q(self, fine_grid):
        params = SpaceParams(0.8, 1.7, 1.7, 2)
        spec = AtomSpec(1, -1, 0.8, 1.7)
        g = RadialProfile.from_callable(
            lambda t: bump((t - 1.2) / 0.6) + bump((t + 1.2) / 0.6), fine_grid, d=2)
        dec = decompose_profile(g, spec, J=8, track_history=False)
        b = tb_norm(g, params, spec=spec, decomposition=dec)
        f = tf_norm(g, params, spec=spec, decomposition=dec)
        assert f == pytest.approx(b, rel=1e-10)

    def test_decomposition_checked_by_its_own_spec(self):
        # f_{3,4} at s = 1, p = q = 2, d = 2: atoms with L = 0, below
        # [s] + 1 = 2, are refused whether passed as spec or as the spec of a
        # given decomposition; an admissible decomposition of g is read
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        g = make_f_j_lambda(3, 4.0).profile(Grid1D.uniform(2 ** -10, 1.0), d=2)
        low = AtomSpec(0, -1, 1.0, 2.0)
        dec = decompose_profile(g, low, J=8, raise_on_stall=False)
        ok = decompose_profile(g, AtomSpec.b_admissible(1.0, 2.0, 2), J=8,
                               raise_on_stall=False)
        for norm in (tb_norm, tf_norm):
            with pytest.raises(InvalidParameterError, match="L = 0"):
                norm(g, params, spec=low, J=8)
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

    @pytest.mark.parametrize("J", [-1, -4])
    def test_negative_J_raises(self, fine_grid, J):
        g = template_atom_profile(1, 5, fine_grid, L=2, d=2)
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        for call in (lambda: decompose_profile(g, SPEC_L2, J=J),
                     lambda: tb_norm(g, params, J=J),
                     lambda: tf_norm(g, params, J=J)):
            with pytest.raises(InvalidParameterError, match="J >= 0"):
                call()

    def test_dilation_law_within_factor_two(self):
        # tb(g(t / 2^-m)) / tb(g) tracks 2^{m(s-d/p)} within factor 2 over m
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        grid = Grid1D.uniform(2.0 ** -13, 4.0)
        norms = []
        for m in range(0, 4):
            g = RadialProfile.from_callable(
                lambda t, m=m: bump((np.abs(t) * 2.0 ** m - 1.0) / 0.5), grid, d=2)
            norms.append(tb_norm(g, params, spec=SPEC_L2, J=10))
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
            norms.append(tb_norm(prof, SpaceParams(s, p, 2.0, 2),
                                 spec=AtomSpec(2, -1, s, p), J=9))
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
            dd = tb_norm(g, params, spec=SPEC_L2, J=10)
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
        assert spec.reconstruction_error(g(spec.t)) <= 1e-8

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

    def test_band_csv_export(self, tmp_path):
        g = RadialProfile.from_callable(psi_cutoff, Grid1D.uniform(2 ** -8, 4.0),
                                        d=2)
        spec = dyadic_band_spectrum(g, n_fft=2 ** 10, T=4.0)
        path = tmp_path / "bands.csv"
        spec.to_csv(path)
        header = open(path).readline().strip()
        assert header.startswith("t,band_0")
        assert header.endswith(f"band_{spec.J}")

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
        # lp_besov_norm_1d reduces each band as it is made; the norm taken
        # from the stacked bands of dyadic_band_spectrum is the same float.
        # At p = 2 it sums each band's mass from its spectrum (Parseval), a
        # different rounding of the same sum: equal to 1e-14
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
        if p == 2:
            assert got == pytest.approx(want, rel=1e-14)
        else:
            assert got.hex() == want.hex()

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
            tb = tb_norm(g, params, spec=SPEC_L2, J=10)
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
        # at n_fft = 2^17 every transform of the norm, forward and per band,
        # runs on at most n/2 points: no full-length irfft or rfft
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
        assert lp_besov_norm_1d(g, SpaceParams(1.0, 2.0, 2.0, 2), n_fft=n,
                                T=4.0) > 0
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
    def test_p2_transform_count(self, monkeypatch, weighted):
        # unweighted: the spectrum is the only transform; weighted at T = 4:
        # the spectrum, the 4 bands too wide for a grid of n/2 points and,
        # on the first call for the grid, the weight's spectrum are the only
        # irfft calls of length >= n/4 (was 18)
        dfts, lengths = [], []
        even_dft, irfft = decompose._even_dft, np.fft.irfft

        def recording_dft(X, n, *args):
            dfts.append(n)
            return even_dft(X, n, *args)

        def recording_irfft(a, n=None, *args, **kw):
            lengths.append(n)
            return irfft(a, n, *args, **kw)

        monkeypatch.setattr(decompose, "_even_dft", recording_dft)
        monkeypatch.setattr(np.fft, "irfft", recording_irfft)
        n = 2 ** 17
        g = RadialProfile.from_callable(psi_cutoff, Grid1D.uniform(2 ** -12, 4.0),
                                        d=2)
        assert lp_besov_norm_1d(g, SpaceParams(1.0, 2.0, 2.0, 2), n_fft=n, T=4.0,
                                weighted=weighted) > 0
        if weighted:
            assert sum(length >= n // 4 for length in lengths) <= 6
        else:
            assert dfts == [n]


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
        ramp, edges, xi_max = decompose._band_plan(n, h)
        xi = 2.0 * math.pi * np.fft.rfftfreq(n, d=h)
        J_max = max(1, int(math.ceil(math.log2(xi[-1]))))
        assert xi_max == xi[-1] and len(edges) == J_max + 2
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
        assert lp_besov_norm_1d(g, params, n_fft=n, T=4.0) == want
        # the spectrum, then one per band: 13 narrow ones on M <= n/2 points
        # and 4 wide ones on the half line; none for the weight
        assert len(dfts) == nonempty + 1 == 18
        assert dfts[0] == n and dfts.count(n) == 5
        assert max(dfts[1:14]) <= n // 2

    def test_caches_bounded_and_read_only(self):
        g = RadialProfile.from_callable(PARSEVAL_PROFILES["bump-pair"],
                                        Grid1D.uniform(2 ** -10, 3.0), d=2)
        for i in range(10):
            lp_besov_norm_1d(g, SpaceParams(0.7, 2.0, 2.0, 1 + i % 4),
                             n_fft=2 ** 12, T=2.0 + 0.5 * i)
        for plan in (decompose._band_plan, decompose._weight_plan):
            info = plan.cache_info()
            assert info.currsize == info.maxsize == decompose._PLAN_ENTRIES
        h = float(np.diff(decompose._fft_grid(2 ** 12, 6.5, 2))[0])
        ramp, _, _ = decompose._band_plan(2 ** 12, h)
        tables, _ = decompose._weight_plan(2 ** 12, 2)
        for arr in (ramp, tables):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


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
