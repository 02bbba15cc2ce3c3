import math

import numpy as np
import pytest

from radialfs import decompose
from radialfs.bump import bump, psi_cutoff
from radialfs.core import Grid1D, RadialProfile, weighted_lp_norm
from radialfs.covering import AtomSpec, validate_even_atom
from radialfs.decompose import (_eval_capture, _lowpass_window,
                                atom_normalization, decompose_profile,
                                dyadic_band_spectrum, lp_besov_norm_1d,
                                sobolev_radial_norm_1, sobolev_radial_norm_2,
                                sobolev_radial_norm_2m, tb_norm,
                                template_atom_profile, template_atom_values,
                                tf_norm)
from radialfs.errors import (DecompositionError, InvalidParameterError,
                             ResolutionError)
from radialfs.spaces import SpaceParams

SPEC_L2 = AtomSpec(2, -1, 1.0, 2.0)


@pytest.fixture(scope="module")
def fine_grid():
    return Grid1D.uniform(2.0 ** -12, 4.0)


class TestDecomposeProfile:
    def test_single_atom_reproduced_exactly(self, fine_grid):
        atom = template_atom_profile(2, 3, fine_grid, L=2, d=2)
        dec = decompose_profile(atom, SPEC_L2, J=8)
        assert dec.coefficients.get(2, 3) == pytest.approx(1.0, rel=1e-12)
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
        for (j, k) in list(dec.coefficients.data)[:25]:
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
            decompose_profile(g, SPEC_L2, J=4, tol=1e-12)

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
}


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
        assert list(dec._levels) == list(levels)
        for j in levels:
            assert np.array_equal(dec._levels[j], levels[j])
        assert dec.residual_history == (history if track_history else history[-1:])
        assert dec.residual_norm == history[-1]
        expected = {(j, k): float(v) for j, arr in levels.items()
                    for k, v in enumerate(arr) if v != 0.0}
        assert dec.coefficients.data == expected

    def test_reconstruction_is_the_sum_of_atoms(self):
        # independent of the localized per-level evaluation: sum every
        # captured atom over the whole grid
        g = RadialProfile.from_callable(psi_cutoff, Grid1D.uniform(2.0 ** -7, 2.0),
                                        d=2)
        dec = decompose_profile(g, SPEC_L2, J=4, raise_on_stall=False)
        t = g.grid.nodes
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
        assert list(dec._levels) == list(levels)
        for j in levels:
            assert dec._levels[j].tobytes() == levels[j].tobytes()
        assert [v.hex() for v in dec.residual_history] == [v.hex() for v in history]
        expected = {(j, k): float(v) for j, arr in levels.items()
                    for k, v in enumerate(arr) if v != 0.0}
        assert dec.coefficients.data == expected
        assert (len(expected) == 0) == (case == "zero")

    def test_add_level_sees_only_the_window(self, monkeypatch):
        # a thin annulus far out: the cascade touches the 2.6-wide window,
        # not the 16385-node grid
        g = RadialProfile.from_callable(lambda t: bump((t - 100.0) / 0.3),
                                        Grid1D.uniform(2.0 ** -6, 128.0), d=2)
        seen, add_level = [], decompose._add_level

        def recording(out, t, j, coeffs, n0):
            seen.append(np.abs(t))
            add_level(out, t, j, coeffs, n0)

        monkeypatch.setattr(decompose, "_add_level", recording)
        dec = decompose_profile(g, SPEC_L2, J=8, raise_on_stall=False)
        r = np.abs(g.grid.nodes[g.values != 0.0])
        h = float(np.max(np.diff(g.grid.nodes)))
        lo, hi = r.min() - h - 1.0, r.max() + h + 1.0
        points = np.concatenate(seen)
        assert points.size > 0 and len(dec.coefficients) > 0
        assert np.all((points > lo) & (points < hi))


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

    @pytest.mark.parametrize("n_fft, J", [(2 ** 12, None), (2 ** 12 + 1, None),
                                          (3001, 14)])
    def test_bands_match_complex_fft_reference(self, n_fft, J):
        g = RadialProfile.from_callable(psi_cutoff, Grid1D.uniform(2 ** -9, 4.0),
                                        d=2)
        spec = dyadic_band_spectrum(g, n_fft=n_fft, T=4.0, J=J)
        # full complex spectrum, every window built on the whole xi axis
        vals = g(spec.t)
        xi = 2.0 * math.pi * np.fft.fftfreq(n_fft, d=spec.t[1] - spec.t[0])
        low = [_lowpass_window(xi / 2.0 ** j) for j in range(spec.J)]
        low.append(np.ones_like(xi))
        full = np.fft.fft(vals)
        ref = np.array([np.fft.ifft(full * (low[j] - (low[j - 1] if j else 0.0))).real
                        for j in range(spec.J + 1)])
        assert spec.bands.shape == ref.shape == (spec.J + 1, n_fft)
        assert np.max(np.abs(spec.bands - ref)) <= 1e-13 * np.max(np.abs(vals))

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
        # from the stacked bands of dyadic_band_spectrum is the same float
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
        assert got.hex() == want.hex()

    def test_gaussian_finite_for_all_s(self):
        g = RadialProfile.from_callable(lambda t: np.exp(-t ** 2),
                                        Grid1D.uniform(2 ** -10, 8.0), d=2)
        for s in (-1.0, 0.0, 1.5, 3.0):
            v = lp_besov_norm_1d(g, SpaceParams(s, 2.0, 2.0, 2), n_fft=2 ** 14,
                                 T=8.0)
            assert math.isfinite(v) and v > 0

    def test_resolution_error(self):
        g = RadialProfile.from_callable(lambda t: np.exp(-t ** 2),
                                        Grid1D.uniform(0.1, 2.0), d=2)
        with pytest.raises(ResolutionError):
            lp_besov_norm_1d(g, SpaceParams(1.0, 2.0, 2.0, 2), n_fft=256, T=2.0,
                             J=2)

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
        assert sobolev_radial_norm_2(g, 1, 2) == 0.0

    def test_gradient_reduction_oracle_d2(self):
        # first-order norm's derivative term equals the full 2-D gradient
        # norm divided by the surface constant (w-100 route)
        from radialfs.core import radial_gradient_identity_check
        ev = lambda r: bump((np.asarray(r, float) - 1.0) / 0.5) \
            + bump((np.asarray(r, float) + 1.0) / 0.5)
        g = RadialProfile.from_callable(ev, Grid1D.uniform(5e-4, 2.0), d=2)
        rep = radial_gradient_identity_check(g, 2, 2, evaluator=ev)
        assert rep.ratio == pytest.approx(1.0, abs=1e-4)

    def test_w2m_quadratic(self):
        # m = 1, g = r^2, d = 3: D_r g = 6 on the support window
        g = RadialProfile.from_callable(lambda t: t ** 2,
                                        Grid1D.uniform(1e-3, 1.0), d=3)
        val = sobolev_radial_norm_2m(g, 2.0, 3, m=1)
        l2 = weighted_lp_norm(g, 2.0, 3)
        const = RadialProfile.from_callable(lambda t: 6.0 * np.ones_like(t),
                                            g.grid, d=3)
        assert val == pytest.approx(l2 + weighted_lp_norm(const, 2.0, 3), rel=1e-6)

    def test_m_zero_rejected(self):
        g = RadialProfile.from_callable(lambda t: t ** 2,
                                        Grid1D.uniform(0.01, 1.0), d=2)
        with pytest.raises(InvalidParameterError):
            sobolev_radial_norm_2m(g, 2.0, 2, m=0)

    def test_m2_polynomial_against_symbolic_oracle(self):
        # compactly supported polynomial (1 - r^2)_+^5 (C^4 at |r| = 1).
        # With u = r^2 and d = 3: for phi = H(u), D_r phi = 6H' + 4uH''.
        # First pass gives H = -30(1-u)^4 + 80u(1-u)^3; applying the rule
        # again: D_r^2 g = 1200(1-u)^3 - 4800u(1-u)^2 + 1920u^2(1-u).
        d = 3
        g = RadialProfile.from_callable(
            lambda t: np.maximum(0.0, 1.0 - t ** 2) ** 5,
            Grid1D.uniform(5e-4, 1.2), d=d)
        val = sobolev_radial_norm_2m(g, 2.0, d, m=2)
        l2 = weighted_lp_norm(g, 2.0, d)

        def dr2(t):
            u = np.minimum(t ** 2, 1.0)
            inside = t ** 2 < 1.0
            return np.where(inside, 1200 * (1 - u) ** 3
                            - 4800 * u * (1 - u) ** 2
                            + 1920 * u ** 2 * (1 - u), 0.0)

        oracle = RadialProfile.from_callable(dr2, g.grid, d=d)
        assert val == pytest.approx(l2 + weighted_lp_norm(oracle, 2.0, d),
                                    rel=1e-3)

    def test_p_below_one_rejected(self):
        g = RadialProfile.from_callable(lambda t: t ** 2,
                                        Grid1D.uniform(0.01, 1.0), d=2)
        with pytest.raises(InvalidParameterError):
            sobolev_radial_norm_1(g, 0.5, 2)
