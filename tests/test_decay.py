import math

import numpy as np
import pytest

from radialfs.bump import bump
from radialfs.core import Grid1D, RadialProfile
import radialfs.decay as decay_module
import radialfs.decompose as decompose_module
from radialfs.decay import (UPPER_TRAIN_CENTERS, _decay4_upper_shared,
                            _far_weighted_sup, _surrogate_norm, bump_train,
                            check_decay2, check_decay4, check_lim1,
                            classification_table, fit_decay_exponent,
                            fit_loglog)
from radialfs.errors import InvalidParameterError, OutOfHypothesisError
from radialfs.experiments import (UPPER_ROUTE_BRACKETS, ExperimentConfig,
                                  run_experiment)
from radialfs.families import make_f_alpha_sigma
from radialfs.spaces import SpaceParams, fig2_region


class TestFitDecay:
    def test_exact_power_law(self):
        g = RadialProfile.from_callable(
            lambda t: np.where(np.abs(t) >= 1.0,
                               np.abs(np.where(t == 0, 1.0, t)) ** -2.0, 1.0),
            Grid1D.uniform(0.01, 600.0))
        fit = fit_decay_exponent(g, [2.0 ** r for r in range(1, 9)])
        # every annulus sup sits at its inner radius, on the power law itself
        assert np.allclose(fit.amplitudes, fit.radii ** -2.0, rtol=1e-10, atol=0.0)
        assert fit.decay_exponent == pytest.approx(2.0, abs=1e-10)

    def test_compact_support_undefined(self):
        g = RadialProfile.from_callable(lambda t: bump(t), Grid1D.uniform(0.01, 80.0))
        with pytest.raises(InvalidParameterError):
            fit_decay_exponent(g, [2.0, 4.0, 8.0, 16.0])

    def test_needs_four_radii(self):
        g = RadialProfile.from_callable(lambda t: np.exp(-np.abs(t)),
                                        Grid1D.uniform(0.01, 40.0))
        with pytest.raises(InvalidParameterError):
            fit_decay_exponent(g, [2.0, 4.0, 8.0])

    def test_bump_train_exponent(self):
        beta = 1.5
        centers = [1.5 * 2.0 ** m for m in range(1, 8)]
        g = bump_train(beta, centers)
        fit = fit_decay_exponent(g, [1.1 * 2.0 ** m for m in range(1, 8)])
        assert fit.decay_exponent == pytest.approx(beta, abs=0.05)

    def test_loglog_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            fit_loglog([1.0, 2.0], [1.0, 0.0])


def _count_decompositions(monkeypatch):
    """Count every decompose_profile call, through decay or through the norms."""
    calls = []
    original = decompose_module.decompose_profile

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(decompose_module, "decompose_profile", counted)
    monkeypatch.setattr(decay_module, "decompose_profile", counted)
    return calls


def _same_report(a, b):
    return (np.array_equal(a.radii, b.radii) and np.array_equal(a.ratios, b.ratios)
            and a.band == b.band and a.upper_band == b.upper_band
            and np.array_equal(a.upper_ratios, b.upper_ratios))


class TestDecay4:
    def test_out_of_hypothesis_raises(self):
        with pytest.raises(OutOfHypothesisError):
            check_decay4([SpaceParams(0.2, 2.0, 2.0, 2)])

    def test_out_of_hypothesis_cell_raises_before_any_decomposition(self, monkeypatch):
        calls = _count_decompositions(monkeypatch)
        with pytest.raises(OutOfHypothesisError):
            check_decay4([SpaceParams(0.5, 2.0, 1.0, 2), SpaceParams(0.2, 2.0, 2.0, 2)])
        assert calls == []

    def test_no_cell_raises(self):
        with pytest.raises(InvalidParameterError):
            check_decay4([])

    def test_ratio_band_scale_stable(self):
        rep, = check_decay4([SpaceParams(0.5, 2.0, 1.0, 2)],
                            radii=[4.0, 16.0, 64.0, 256.0])
        # the constant is scale stable: two decades change it by <= factor 4
        assert rep.band <= 4.0

    def test_upper_route_single_constant(self):
        # sup_{|x|>=1} |x|^{(d-1)/p} |f| / norm over the fixed corpus stays
        # inside decay-infinity's frozen brackets: largest ratio and band
        # 0.180 and 4.87 at p = 1, 0.370 and 2.22 at p = 2
        cells = [(d, p) for d in (2, 3) for p in UPPER_ROUTE_BRACKETS]
        reports = check_decay4([SpaceParams(1.0 / p, p, 1.0, d) for d, p in cells],
                               radii=[4.0, 16.0, 64.0])
        for (d, p), rep in zip(cells, reports):
            c_max, band_max = UPPER_ROUTE_BRACKETS[p]
            assert float(rep.upper_ratios.max()) <= c_max
            assert rep.upper_band <= band_max

    def test_each_cell_equals_its_one_cell_call(self):
        # B and F cells, two dimensions and three values of (d-1)/p: one
        # decomposition per witness gives every cell the floats of its own call
        cells = [SpaceParams(1.0, 1.0, 1.0, 2), SpaceParams(0.5, 2.0, 1.0, 3),
                 SpaceParams(0.75, 2.0, 2.0, 2, "F"), SpaceParams(1.0, 1.0, 1.0, 3, "F"),
                 SpaceParams(0.75, 2.0, 1.0, 2)]
        radii = [4.0, 16.0, 64.0]
        reports = check_decay4(cells, radii=radii)
        assert len(reports) == len(cells)
        for params, rep in zip(cells, reports):
            alone, = check_decay4([params], radii=radii)
            assert _same_report(rep, alone), params

    def test_one_decomposition_per_distinct_witness(self, monkeypatch, tmp_path):
        # decay-infinity's four cells: 7 lower-route witnesses, f_{1,7},
        # f_{1,31}, the ring, and one bump train per (d-1)/p in {1, 1/2, 2};
        # and 11 norms per cell: 7 lower-route witnesses and 4 upper ones
        calls = _count_decompositions(monkeypatch)
        norms = []
        original = decay_module.tb_norm
        monkeypatch.setattr(decay_module, "tb_norm",
                            lambda *a, **k: norms.append(a[1]) or original(*a, **k))
        assert run_experiment(ExperimentConfig("decay-infinity",
                                               output_dir=tmp_path)).passed
        assert len(calls) == 13
        assert len(norms) == 44 and len(set(norms)) == 4

    @pytest.mark.parametrize("d, band", [(2, 4.909), (3, 4.408)])
    def test_upper_band_settles_in_J(self, d, band):
        # at p = 1 the band reads 4.905 -> 4.909 (d = 2) and 4.404 -> 4.408
        # (d = 3) from J = 10 to J = 12
        params = SpaceParams(1.0, 1.0, 1.0, d)
        corpus = [bump_train(d - 1.0, UPPER_TRAIN_CENTERS)] + _decay4_upper_shared()
        bands = []
        for J in (10, 12):
            upper = [_far_weighted_sup(prof, d, 1.0)
                     / _surrogate_norm(prof.restrict_dim(d), params, J=J)
                     for prof in corpus]
            bands.append(max(upper) / min(upper))
        assert bands[1] == pytest.approx(band, abs=1e-3)
        assert abs(bands[1] / bands[0] - 1.0) < 0.05

    def test_zero_witness_trivially_bounded(self):
        # a zero witness contributes nothing to the sup side of the bound
        grid = Grid1D.uniform(2.0 ** -8, 4.0)
        zero = RadialProfile.from_callable(lambda t: 0.0 * t, grid, d=2)
        t = np.abs(zero.grid.nodes)
        weighted = t[t >= 1.0] ** 0.5 * np.abs(zero.values[t >= 1.0])
        assert float(np.max(weighted, initial=0.0)) == 0.0

    def test_unboundedness_witness_diverges_under_refinement(self):
        # translated singular bumps g_0(. - |x_j|) with summable weights:
        # the sampled sup近 x_j grows beyond any fixed bound as the grid refines
        fam = make_f_alpha_sigma(1.0, 0.0)   # psi |log|x||, unbounded at 0
        x1, alpha = 4.0, 2.0

        def witness(t):
            t = np.abs(np.asarray(t, float))
            return fam(t - x1) / max(x1, 1.0) ** alpha

        sups = []
        for h in (1e-3, 1e-4, 1e-5, 1e-6):
            t = x1 + np.arange(1, 50) * h
            sups.append(float(np.max(np.abs(witness(t)))))
        # divergence trend (the sup is infinite only in the limit): each
        # refinement strictly increases the sampled sup, log-rate growth
        assert all(b > a for a, b in zip(sups, sups[1:]))
        assert sups[-1] >= 1.8 * sups[0]


class TestSurrogateNorm:
    def test_f_scale_uses_f_admissible_atoms(self):
        # q < min(1, p) raises the F-scale moment order above the B-scale one
        # (sigma_{p,q} > sigma_p): the F-admissible atoms need M = 1, which
        # the moment-free spline atoms cannot serve, so the surrogate raises
        # where the B-scale one at the same (s, p, q) is served
        from radialfs.covering import AtomSpec
        from radialfs.families import make_f_j_lambda
        params = SpaceParams(0.5, 2.0, 0.5, 2, "F")
        assert AtomSpec.f_admissible(0.5, 2.0, 0.5, 2).M == 1
        prof = make_f_j_lambda(3, 4.0).profile(Grid1D.uniform(2.0 ** -10, 1.0), d=2)
        with pytest.raises(InvalidParameterError, match="no moments"):
            _surrogate_norm(prof, params, J=6)
        val = _surrogate_norm(prof, SpaceParams(0.5, 2.0, 0.5, 2), J=6)
        assert math.isfinite(val) and val > 0


class TestDecay2:
    def test_fitted_exponent(self):
        rep = check_decay2(SpaceParams(0.75, 2.0, 2.0, 2), r_range=range(2, 11))
        assert abs(rep.fitted_exponent - rep.expected_exponent) <= 0.05

    def test_lower_bound_value_identity(self):
        # 2^{-r(s-d/p)} f_{2+r,3}(x) = |x|^{s-d/p} at |x| = 2^{-r}, exactly
        from radialfs.families import make_f_j_lambda
        s, d, p, r = 0.75, 2, 2.0, 3
        fam = make_f_j_lambda(2 + r, 3.0)
        x = 2.0 ** -r
        lhs = 2.0 ** (-r * (s - d / p)) * float(fam(np.array([x]))[0])
        assert lhs == pytest.approx(x ** (s - d / p), rel=1e-14)

    def test_out_of_hypothesis(self):
        with pytest.raises(OutOfHypothesisError):
            check_decay2(SpaceParams(1.2, 2.0, 1.0, 2))  # s > d/p

    def test_blowup_degrades_as_s_approaches_d_over_p(self):
        # measured blow-up exponent tends to 0 as s moves up to d/p
        e1 = check_decay2(SpaceParams(0.6, 2.0, 1.0, 2),
                          r_range=range(2, 8)).fitted_exponent
        e2 = check_decay2(SpaceParams(0.9, 2.0, 1.0, 2),
                          r_range=range(2, 8)).fitted_exponent
        assert e2 < e1
        assert e2 == pytest.approx(0.1, abs=0.05)


class TestLim1:
    def test_extremal_witness_band(self):
        rep = check_lim1(SpaceParams(1.0, 2.0, math.inf, 2), r_range=range(4, 13))
        assert rep.band <= 2.0

    def test_bounded_function_ratio_vanishes(self):
        # for bounded f the log factor kills the ratio as |x| -> 0
        params = SpaceParams(1.0, 2.0, 2.0, 2)
        rep = check_lim1(params, r_range=range(4, 13), witness=(0.0, 1.0))
        assert rep.ratios[-1] < rep.ratios[0]

    def test_interior_witness_bounded(self):
        # (alpha, sigma) = (1 - 1/q, 2/q) lies inside U_q: bounded ratio
        q = 2.0
        rep = check_lim1(SpaceParams(1.0, 2.0, q, 2), r_range=range(4, 13),
                         witness=(1.0 - 1.0 / q, 2.0 / q))
        assert rep.band <= 8.0   # frozen from the sweep oracle run

    def test_hypothesis_checked(self):
        with pytest.raises(OutOfHypothesisError):
            check_lim1(SpaceParams(1.0, 2.0, 1.0, 2))  # q <= 1 in B-scale
        with pytest.raises(OutOfHypothesisError):
            check_lim1(SpaceParams(0.7, 2.0, math.inf, 2))  # s != d/p


class TestClassificationMap:
    def test_fig2_examples(self):
        region = fig2_region(2)
        header, rows = classification_table(region, (0.5, 2.5, 0.05, 2.0), 5)
        assert header == ("inv_p", "s", "invalid", "singular", "decay", "no-decay")
        assert len(rows) == 25
        # one flag per row, and no point of the rectangle is invalid
        assert all(sum(flags) == 1 and flags[0] == 0 for _, _, *flags in rows)
        labels = {(round(ip, 3), round(s, 3)): header[2 + flags.index(1)]
                  for ip, s, *flags in rows}
        assert labels[(1.0, 1.025)] == "decay"
        assert labels[(2.0, 0.05)] == "singular"

    def test_strauss_consistency(self):
        # d = 2, 3 at p = 2, s = 1 (H^1): measured exponent (d-1)/2 +- 0.1
        for d in (2, 3):
            centers = [1.5 * 2.0 ** m for m in range(1, 8)]
            g = bump_train((d - 1) / 2.0, centers)
            fit = fit_decay_exponent(g, [1.1 * 2.0 ** m for m in range(1, 8)])
            assert fit.decay_exponent == pytest.approx((d - 1) / 2.0, abs=0.1)
