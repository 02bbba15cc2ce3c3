import math

import numpy as np
import pytest

from radialfs.bump import bump
from radialfs.core import Grid1D, RadialProfile
from radialfs.decay import (bump_train, check_decay2, check_decay4,
                            check_lim1, classification_map,
                            fit_decay_exponent, fit_loglog)
from radialfs.errors import InvalidParameterError, OutOfHypothesisError
from radialfs.families import make_f_alpha_sigma
from radialfs.spaces import SpaceParams, fig2_region


class TestFitDecay:
    def test_exact_power_law(self):
        g = RadialProfile.from_callable(
            lambda t: np.where(np.abs(t) >= 1.0,
                               np.abs(np.where(t == 0, 1.0, t)) ** -2.0, 1.0),
            Grid1D.uniform(0.01, 600.0))
        fit = fit_decay_exponent(g, [2.0 ** r for r in range(1, 9)])
        assert fit.decay_exponent == pytest.approx(2.0, abs=1e-6)
        assert fit.residual_rms <= 1e-10

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


class TestDecay4:
    def test_out_of_hypothesis_raises(self):
        with pytest.raises(OutOfHypothesisError):
            check_decay4(SpaceParams(0.2, 2.0, 2.0, 2))

    def test_ratio_band_scale_stable(self):
        rep = check_decay4(SpaceParams(0.5, 2.0, 1.0, 2),
                           radii=[4.0, 16.0, 64.0, 256.0])
        # the constant is scale stable: two decades change it by <= factor 4
        assert rep.band <= 4.0

    def test_upper_route_single_constant(self):
        # sup_{|x|>=1} |x|^{(d-1)/p} |f| / norm over the fixed corpus stays
        # inside brackets frozen from the first oracle run
        for d in (2, 3):
            for p, (c_max, band_max) in ((1.0, (0.01, 20.0)),
                                         (2.0, (0.12, 6.0))):
                rep = check_decay4(SpaceParams(1.0 / p, p, 1.0, d),
                                   radii=[4.0, 16.0, 64.0])
                assert float(rep.upper_ratios.max()) <= c_max
                assert rep.upper_band <= band_max

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
        # (sigma_{p,q} > sigma_p); the surrogate must use F-admissible atoms
        from radialfs.covering import AtomSpec
        from radialfs.decay import _surrogate_norm
        from radialfs.decompose import tf_norm
        from radialfs.families import make_f_j_lambda
        params = SpaceParams(0.5, 2.0, 0.5, 2, "F")
        prof = make_f_j_lambda(3, 4.0).profile(Grid1D.uniform(2.0 ** -10, 1.0), d=2)
        val = _surrogate_norm(prof, params, J=6)
        spec = AtomSpec.f_admissible(0.5, 2.0, 0.5, 2)
        assert val == tf_norm(prof, params, spec=spec, J=6)
        assert math.isfinite(val) and val > 0


class TestDecay2:
    def test_exact_witness_cancellation(self):
        rep = check_decay2(SpaceParams(0.75, 2.0, 2.0, 2), r_range=range(2, 8))
        assert float(rep.upper_ratios.max()) <= 1.0 + 1e-12

    def test_fitted_exponent(self):
        rep = check_decay2(SpaceParams(0.75, 2.0, 2.0, 2), r_range=range(2, 11))
        assert rep.exponent_error <= 0.05

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
        rows = classification_map(region, (0.5, 2.5, 0.05, 2.0), 5)
        labels = {(round(ip, 3), round(s, 3)): lab for ip, s, lab in rows}
        assert region.label(1.0, 1.0) == "decay"
        assert region.label(2.0, 0.1) == "singular"
        assert len(rows) == 25
        assert all(lab in ("decay", "no-decay", "singular") for _, _, lab in rows)

    def test_strauss_consistency(self):
        # d = 2, 3 at p = 2, s = 1 (H^1): measured exponent (d-1)/2 +- 0.1
        for d in (2, 3):
            centers = [1.5 * 2.0 ** m for m in range(1, 8)]
            g = bump_train((d - 1) / 2.0, centers)
            fit = fit_decay_exponent(g, [1.1 * 2.0 ** m for m in range(1, 8)])
            assert fit.decay_exponent == pytest.approx((d - 1) / 2.0, abs=0.1)
