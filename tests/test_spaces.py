import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radialfs.errors import InvalidParameterError, OutOfHypothesisError
from radialfs.spaces import (SpaceParams, embeds_in_Linfty, fig2_region, in_U,
                             in_U_t, sigma_p, sigma_pq, trace_lands_in_Sprime,
                             weighted_Lp_in_Sprime)

INF = math.inf


class TestSpaceParams:
    @pytest.mark.parametrize("s", [math.nan, INF, -INF])
    def test_non_finite_s_rejected(self, s):
        with pytest.raises(InvalidParameterError):
            SpaceParams(s, 2.0, 2.0, 2)

    @pytest.mark.parametrize("d", [2.5, 2.0, True])
    def test_non_integral_d_rejected(self, d):
        with pytest.raises(InvalidParameterError):
            SpaceParams(1.0, 2.0, 2.0, d)

    @pytest.mark.parametrize("d", [2, np.int64(2), np.int32(3)],
                             ids=["int", "int64", "int32"])
    def test_python_and_numpy_integer_d_accepted(self, d):
        assert SpaceParams(1.0, 2.0, 2.0, d).d == d

    @pytest.mark.parametrize("d", [2.5, math.nan, True, 0])
    @pytest.mark.parametrize("call", [
        lambda d: SpaceParams(1.0, 2.0, 2.0, d), lambda d: sigma_p(0.5, d),
        lambda d: sigma_pq(0.5, 1.0, d), lambda d: weighted_Lp_in_Sprime(3.0, d)],
        ids=["SpaceParams", "sigma_p", "sigma_pq", "weighted_Lp_in_Sprime"])
    def test_every_caller_checks_d_alike(self, call, d):
        # Python and numpy integers >= 1 pass; a bool, float or NaN raises
        call(3)
        call(np.int64(3))
        with pytest.raises(InvalidParameterError, match="d must be an integer >= 1"):
            call(d)


class TestSigma:
    def test_sigma_p_vanishes_at_one(self):
        assert sigma_p(1.0, 5) == 0.0

    def test_sigma_p_half(self):
        assert sigma_p(0.5, 2) == 2.0

    def test_sigma_p_two_thirds(self):
        assert sigma_p(2.0 / 3.0, 3) == pytest.approx(1.5)

    def test_sigma_pq_trivial(self):
        assert sigma_pq(2.0, 2.0, 3) == 0.0

    def test_sigma_pq_q_branch(self):
        assert sigma_pq(1.0, 0.5, 2) == 2.0

    def test_sigma_pq_p_branch(self):
        assert sigma_pq(0.5, 1.0, 2) == 2.0

    def test_invalid_p(self):
        with pytest.raises(InvalidParameterError):
            sigma_p(0.0, 2)

    @given(p=st.floats(0.1, 10), q=st.floats(0.1, 10), d=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_sigma_p_below_sigma_pq(self, p, q, d):
        assert sigma_p(p, d) <= sigma_pq(p, q, d) + 1e-15


class TestInU:
    def test_borderline_f11inf(self):
        assert in_U(SpaceParams(1.0, 1.0, INF, 2, "F"))

    def test_borderline_b_q1(self):
        assert in_U(SpaceParams(0.5, 2.0, 1.0, 2, "B"))

    def test_borderline_b_q2_fails(self):
        assert not in_U(SpaceParams(0.5, 2.0, 2.0, 2, "B"))

    @given(s=st.floats(0.1, 5), ds=st.floats(0.01, 3),
           p=st.floats(0.3, 5), q=st.floats(0.3, 5))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_s(self, s, ds, p, q):
        if in_U(SpaceParams(s, p, q, 2, "B")):
            assert in_U(SpaceParams(s + ds, p, q, 2, "B"))


class TestEmbedsLinfty:
    def test_above_line(self):
        assert embeds_in_Linfty(SpaceParams(2.0, 2.0, 2.0, 3, "B"))

    def test_b_boundary_q1(self):
        assert embeds_in_Linfty(SpaceParams(1.5, 2.0, 1.0, 3, "B"))

    def test_f_boundary_p2_fails(self):
        assert not embeds_in_Linfty(SpaceParams(1.5, 2.0, 2.0, 3, "F"))

    def test_boundary_sharpness_in_q(self):
        # at s = d/p the B-scale embedding holds iff q <= 1
        assert embeds_in_Linfty(SpaceParams(1.5, 2.0, 1.0, 3, "B"))
        assert not embeds_in_Linfty(SpaceParams(1.5, 2.0, 2.0, 3, "B"))


class TestTraceLands:
    def test_b_boundary_q1(self):
        assert trace_lands_in_Sprime(SpaceParams(1.0, 1.0, 1.0, 2, "B"))

    def test_below_threshold(self):
        assert not trace_lands_in_Sprime(SpaceParams(0.9, 1.0, 1.0, 2, "B"))

    def test_f_boundary_small_p(self):
        # s = d/p - 1 = 3 with p = 1/2 <= 1
        assert trace_lands_in_Sprime(SpaceParams(3.0, 0.5, 1.0, 2, "F"))

    def test_out_of_hypothesis_raises(self):
        # B-case hypothesis is s > sigma_p(d) = 2 for p = 1/2
        with pytest.raises(OutOfHypothesisError):
            trace_lands_in_Sprime(SpaceParams(1.5, 0.5, 1.0, 2, "B"))

    def test_antitone_in_inv_p_on_hypothesis_region(self):
        # fixing s, q: truth can only switch from True to False as 1/p grows
        # (the walk stops where the hypothesis region ends)
        s, q, d = 1.0, 1.0, 2
        prev = True
        for inv_p in np.linspace(0.2, 1.8, 17):
            try:
                val = trace_lands_in_Sprime(SpaceParams(s, 1.0 / inv_p, q, d, "B"))
            except OutOfHypothesisError:
                break
            assert prev or not val
            prev = val

    @given(s=st.floats(0.05, 4), ds=st.floats(0.0, 2), q=st.floats(0.3, 4))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_s_on_hypothesis_region(self, s, ds, q):
        p = 1.0
        try:
            lo = trace_lands_in_Sprime(SpaceParams(s, p, q, 2, "B"))
            hi = trace_lands_in_Sprime(SpaceParams(s + ds, p, q, 2, "B"))
        except OutOfHypothesisError:
            return
        if lo:
            assert hi


class TestWeightedLp:
    def test_strict_inequality(self):
        assert weighted_Lp_in_Sprime(3.0, 2)
        assert not weighted_Lp_in_Sprime(2.0, 2)  # equality excluded
        assert not weighted_Lp_in_Sprime(1.0, 3)


class TestUt:
    def test_t1_branch(self):
        assert in_U_t(0.0, 1.0, 1.0)
        assert not in_U_t(0.0, 0.0, 1.0)

    def test_t_infinity_branch(self):
        assert in_U_t(1.0, 0.0, INF)
        assert not in_U_t(1.0, -0.1, INF)

    def test_interior_t(self):
        assert in_U_t(0.5, 0.6, 2.0)
        assert not in_U_t(0.5, 0.5, 2.0)

    def test_invalid_t(self):
        with pytest.raises(InvalidParameterError):
            in_U_t(0.0, 0.0, 0.5)

    @pytest.mark.parametrize("alpha, sigma, t", [
        (0.5, 0.6, math.nan), (math.nan, 0.6, 2.0), (0.5, math.nan, 2.0),
        (math.nan, 0.0, INF), (0.0, math.nan, 1.0)])
    def test_nan_raises(self, alpha, sigma, t):
        # every comparison with NaN is False, so each branch used to answer
        # False
        with pytest.raises(InvalidParameterError):
            in_U_t(alpha, sigma, t)

    def test_t_infinity_is_limit_of_finite_t(self):
        # for alpha < 1 the t = inf classification is the pointwise limit of
        # the finite-t branch, checked on a grid of (alpha, sigma)
        for alpha in np.linspace(-1.0, 0.99, 41):
            for sigma in np.linspace(-2.0, 2.0, 21):
                assert in_U_t(alpha, sigma, INF) == in_U_t(alpha, sigma, 1e9)


class TestRegions:
    def test_fig2_examples(self):
        region = fig2_region(2)
        assert region.label(1.0, 1.0) == "decay"       # W^1_1 boundary point
        assert region.label(2.0, 0.1) == "singular"    # below d(1/p - 1)
        assert region.label(0.01, 1.0) == "decay"

    def test_classifier_total_and_deterministic(self):
        region = fig2_region(2)
        assert region.label(1.5, 0.2) == region.label(1.5, 0.2)
