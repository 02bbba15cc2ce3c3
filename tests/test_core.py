import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from radialfs.bump import bump, psi_cutoff
from radialfs.core import (Grid1D, RadialProfile, _gradient_identity_reports,
                           radial_gradient_identity_check, sphere_area,
                           weighted_lp_norm)
from radialfs.errors import EvennessError, InvalidParameterError
from radialfs.traceext import RadialGridField


class TestGrid1D:
    def test_uniform_is_even_and_increasing(self):
        g = Grid1D.uniform(0.1, 2.0)
        assert np.all(np.diff(g.nodes) > 0)
        assert np.array_equal(g.nodes, -g.nodes[::-1])

    def test_too_few_nodes_rejected(self):
        with pytest.raises(InvalidParameterError):
            Grid1D(np.array([0.0]))

    def test_non_monotone_rejected(self):
        with pytest.raises(InvalidParameterError):
            Grid1D(np.array([0.0, 2.0, 1.0]))

    def test_even_flag_enforced(self):
        with pytest.raises(EvennessError):
            Grid1D(np.array([-1.0, 0.0, 2.0]))

    def test_composite_n_per_sets_level_density(self):
        # 0, 2^-3, 16 nodes on each of 3 levels and 2 tail nodes, mirrored
        assert Grid1D.composite(J=2, h=0.5, T=2.0).nodes.size == 103

    def test_composite_resolves_origin_and_tail(self):
        g = Grid1D.composite(J=8, h=0.05, T=4.0)
        # the spacing of the interval that ends at the first node >= t
        spacing = lambda t: float(np.diff(g.nodes)[np.searchsorted(g.nodes, t) - 1])
        assert spacing(2.0 ** -8) < 2.0 ** -8
        assert spacing(3.0) == pytest.approx(0.05)


class TestWeightedLpNorm:
    def test_annulus_indicator_closed_form(self):
        # 2 * int_1^2 t^2 dt = 14/3
        g = RadialProfile.from_callable(
            lambda t: ((t >= 1) & (t <= 2)).astype(float),
            Grid1D.uniform(1e-4, 2.5), d=3)
        assert weighted_lp_norm(g, 1, 3) == pytest.approx(14.0 / 3.0, rel=1e-3)

    def test_zero_profile(self):
        g = RadialProfile.from_callable(lambda t: 0.0 * t, Grid1D.uniform(0.01, 1.0))
        assert weighted_lp_norm(g, 2, 2) == 0.0

    def test_psi_bump_against_adaptive_quadrature(self):
        # independent adaptive-quadrature oracle at 1e-8, value frozen below
        oracle, err = quad(lambda t: psi_cutoff(t) ** 2 * t, 0.0, 1.5,
                           epsabs=1e-10, epsrel=1e-10)
        oracle = (2.0 * oracle) ** 0.5
        assert err < 1e-8
        g = RadialProfile.from_callable(psi_cutoff, Grid1D.uniform(2e-4, 2.0), d=2)
        val = weighted_lp_norm(g, 2, 2)
        assert val == pytest.approx(oracle, rel=1e-6)
        assert val == pytest.approx(1.2047245481199398, rel=1e-6)  # frozen baseline

    def test_p_infinity_is_max(self):
        g = RadialProfile.from_callable(lambda t: np.exp(-t), Grid1D.uniform(0.01, 3.0))
        assert weighted_lp_norm(g, math.inf, 2) == pytest.approx(1.0)

    def test_missing_dimension_raises(self):
        g = RadialProfile.from_callable(lambda t: t, Grid1D.uniform(0.1, 1.0))
        with pytest.raises(InvalidParameterError):
            weighted_lp_norm(g, 2)

    @given(c=st.floats(-50, 50), p=st.floats(0.5, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, c, p):
        g = RadialProfile.from_callable(lambda t: np.cos(t) * (np.abs(t) < 2),
                                        Grid1D.uniform(0.01, 2.5), d=2)
        base = weighted_lp_norm(g, p, 2)
        assert weighted_lp_norm(g.scaled(c), p, 2) == pytest.approx(
            abs(c) * base, rel=1e-12, abs=1e-12)


class TestLpNormRd:
    # ||g(|.|)||_{L_p(R^d)} = (omega_{d-1} / 2)^{1/p} * weighted_lp_norm(g, p, d):
    # the even profile's weighted integral over R counts each radius twice
    def test_unit_disc_area(self):
        prof = RadialProfile.from_callable(lambda t: (t <= 1).astype(float),
                                           Grid1D.uniform(1e-4, 1.3), d=2)
        val = weighted_lp_norm(prof, 1, 2) * (sphere_area(2) / 2)
        assert val == pytest.approx(math.pi, rel=1e-3)

    def test_unit_ball_volume(self):
        prof = RadialProfile.from_callable(lambda t: (t <= 1).astype(float),
                                           Grid1D.uniform(1e-4, 1.3), d=3)
        val = weighted_lp_norm(prof, 1, 3) * (sphere_area(3) / 2)
        assert val == pytest.approx(4.0 * math.pi / 3.0, rel=1e-3)

    def test_bump_against_2d_tensor_oracle(self):
        prof = RadialProfile.from_callable(psi_cutoff, Grid1D.uniform(2e-4, 2.0), d=2)
        val = weighted_lp_norm(prof, 2, 2) * (sphere_area(2) / 2) ** (1 / 2)
        # 2-D tensor quadrature oracle
        ax = np.linspace(-1.6, 1.6, 1601)
        xx, yy = np.meshgrid(ax, ax)
        h = ax[1] - ax[0]
        oracle = (np.sum(psi_cutoff(np.sqrt(xx ** 2 + yy ** 2)) ** 2) * h * h) ** 0.5
        assert val == pytest.approx(oracle, rel=1e-5)

    def test_surface_constants(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi)
        assert sphere_area(3) == pytest.approx(4 * math.pi)


_DIM_PROFILE = RadialProfile.from_callable(lambda t: bump((t - 0.5) / 0.3)
                                           + bump((t + 0.5) / 0.3),
                                           Grid1D.uniform(0.05, 1.0))


@pytest.mark.parametrize("d", [2.5, 2.9, 2.0, True, math.nan, 0])
@pytest.mark.parametrize("call", [
    lambda d: weighted_lp_norm(_DIM_PROFILE, 2, d),
    lambda d: sphere_area(d),
    lambda d: _DIM_PROFILE.restrict_dim(d),
    lambda d: radial_gradient_identity_check(_DIM_PROFILE, 1, d, n_grid=21),
    lambda d: RadialGridField(d, _DIM_PROFILE)],
    ids=["weighted_lp_norm", "sphere_area", "dim_context",
         "radial_gradient_identity_check", "RadialGridField"])
def test_every_dimension_is_an_integer(call, d):
    # int(d) would run 2.5 and 2.9 as d = 2 and True as d = 1; a Python or
    # numpy integer gives the same value
    assert call(2) == call(np.int64(2))
    with pytest.raises(InvalidParameterError, match="d must be an integer >= 1"):
        call(d)


class TestGradientIdentity:
    def test_smooth_bump_d2(self):
        ev = lambda r: bump((np.asarray(r, float) - 1.0) / 0.6) \
            + bump((np.asarray(r, float) + 1.0) / 0.6)
        prof = RadialProfile.from_callable(ev, Grid1D.uniform(5e-4, 2.0), d=2)
        rep = radial_gradient_identity_check(prof, 1, 2, evaluator=ev)
        assert rep.ratio == pytest.approx(1.0, abs=1e-4)

    def test_zero_profile_ratio_one(self):
        prof = RadialProfile.from_callable(lambda t: 0.0 * t,
                                           Grid1D.uniform(0.01, 1.0), d=2)
        rep = radial_gradient_identity_check(prof, 1, 2)
        assert rep.ratio == 1.0

    def test_cone_closed_form(self):
        # g = max(0, 1-r), d=3, p=1: radial route equals vol(B) = 4 pi/3 exactly
        ev = lambda r: np.maximum(0.0, 1.0 - np.asarray(r, float))
        prof = RadialProfile.from_callable(ev, Grid1D.uniform(2e-4, 1.3), d=3)
        rep = radial_gradient_identity_check(prof, 1, 3, evaluator=ev, n_grid=200)
        assert rep.rhs_radial == pytest.approx(4 * math.pi / 3, rel=1e-3)
        # tensor route integrates a discontinuous |grad|; first-order accurate
        assert rep.ratio == pytest.approx(1.0, abs=2e-2)

    def test_p_below_one_rejected(self):
        prof = RadialProfile.from_callable(lambda t: 0.0 * t,
                                           Grid1D.uniform(0.01, 1.0), d=2)
        with pytest.raises(InvalidParameterError):
            radial_gradient_identity_check(prof, 0.5, 2)
        with pytest.raises(InvalidParameterError):
            _gradient_identity_reports(prof, (2.0, 0.5), 2)

    @pytest.mark.parametrize("d, n_grid", [(2, 301), (3, 60)])
    def test_reports_for_several_p_match_single_calls(self, d, n_grid):
        # one gradient field reduced for every p: the floats of one call per p
        ev = lambda r: bump((np.asarray(r, float) - 0.9) / 0.35) \
            + bump((np.asarray(r, float) + 0.9) / 0.35)
        prof = RadialProfile.from_callable(ev, Grid1D.uniform(5e-4, 1.6), d=d)
        ps = (1.0, 1.5, 2.0)
        reps = _gradient_identity_reports(prof, ps, d, evaluator=ev, n_grid=n_grid)
        assert reps == [radial_gradient_identity_check(prof, p, d, evaluator=ev,
                                                       n_grid=n_grid) for p in ps]

    @staticmethod
    def _full_cube_lhs(feval, T, d, p, n_grid, fd_step):
        """Brute-force tensor route: every x_1-slab of the full axis, no fold."""
        axis = np.linspace(-T, T, n_grid)
        h = axis[1] - axis[0]
        mesh_rest = np.meshgrid(*([axis] * (d - 1)), indexing="ij")
        rest_sq = sum(m ** 2 for m in mesh_rest)
        total = 0.0
        for x1 in axis:
            grad_sq = ((feval(np.sqrt((x1 + fd_step) ** 2 + rest_sq))
                        - feval(np.sqrt((x1 - fd_step) ** 2 + rest_sq)))
                       / (2.0 * fd_step)) ** 2
            for m in mesh_rest:
                other = rest_sq - m ** 2
                di = (feval(np.sqrt(x1 ** 2 + other + (m + fd_step) ** 2))
                      - feval(np.sqrt(x1 ** 2 + other + (m - fd_step) ** 2))
                      ) / (2.0 * fd_step)
                grad_sq += di ** 2
            total += float(np.sum(np.sqrt(grad_sq) ** p))
        return (total * h ** d) ** (1.0 / p)

    def _assert_fold_matches_full_cube(self, prof, evaluator, d, p, n_grid):
        # fd_step = 1e-3: the central difference carries rounding noise of
        # about eps / fd_step per node, and np.linspace is not bit-for-bit
        # symmetric, so at the default 1e-5 the reference's own one-ulp
        # asymmetry moves these tiny sums by up to ~1e-12.
        fd_step = 1e-3
        support = np.abs(prof.grid.nodes[np.abs(prof.values) > 1e-13])
        T = float(support.max()) * 1.05 + 0.25
        rep = radial_gradient_identity_check(prof, p, d, evaluator=evaluator,
                                             n_grid=n_grid, fd_step=fd_step)
        feval = prof if evaluator is None else evaluator
        want = self._full_cube_lhs(feval, T, d, p, n_grid, fd_step)
        assert abs(rep.lhs_tensor - want) <= 1e-12 * want

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("n_grid", [15, 16])
    def test_orthant_fold_matches_full_cube(self, d, p, n_grid):
        # Odd n_grid puts a node at 0 (multiplicity 1 per zero coordinate).
        c, w = 1.2, 0.8
        ev = lambda r: bump((np.asarray(r, float) - c) / w) \
            + bump((np.asarray(r, float) + c) / w)
        prof = RadialProfile.from_callable(ev, Grid1D.uniform(5e-4, c + 2 * w), d=d)
        self._assert_fold_matches_full_cube(prof, ev, d, p, n_grid)

    def test_chamber_fold_over_several_blocks(self):
        # d = 3, n_grid = 61: the chamber holds C(33, 3) = 5456 nodes against
        # a block cap of 61^2 = 3721, so two blocks of whole x_1-slabs, the
        # last one partial.  The last block holds the outermost x_1-slabs,
        # which a compactly supported bump leaves at zero; a Gaussian keeps
        # its gradient nonzero on every slab, so no block can go missing
        # unseen.
        d, n_grid = 3, 61
        m = (n_grid + 1) // 2
        assert n_grid ** (d - 1) < math.comb(m + d - 1, d) < 2 * n_grid ** (d - 1)
        ev = lambda r: np.exp(-np.asarray(r, float) ** 2)
        prof = RadialProfile.from_callable(ev, Grid1D.uniform(5e-4, 3.0), d=d)
        self._assert_fold_matches_full_cube(prof, ev, d, 1.5, n_grid)

    @pytest.mark.parametrize("d,n_grid", [(2, 40), (3, 31)])
    def test_chamber_fold_on_profile_interpolation(self, d, n_grid):
        # evaluator=None: the tensor route evaluates the profile's own
        # piecewise-linear interpolation
        prof = RadialProfile.from_callable(
            lambda r: bump((r - 1.0) / 0.7) + bump((r + 1.0) / 0.7),
            Grid1D.uniform(0.01, 2.0), d=d)
        self._assert_fold_matches_full_cube(prof, None, d, 2, n_grid)

    @pytest.mark.parametrize("d,n_grid", [(2, 61), (2, 40), (3, 61), (3, 40)])
    def test_chamber_work_and_block_size(self, d, n_grid):
        # Every tensor-route call sees at most one full-cube slab of points,
        # and the route evaluates 2d difference terms per chamber node.
        sizes = []

        def ev(r):
            r = np.asarray(r, float)
            sizes.append(r.size)
            return bump((r - 1.2) / 0.8) + bump((r + 1.2) / 0.8)

        prof = RadialProfile.from_callable(ev, Grid1D.uniform(0.01, 2.8), d=d)
        sizes.clear()
        radial_gradient_identity_check(prof, 1.5, d, evaluator=ev, n_grid=n_grid)
        # the radial route's two difference quotients come first
        assert sizes[:2] == [prof.grid.nodes.size] * 2
        tensor = sizes[2:]
        m = (n_grid + 1) // 2
        assert max(tensor) <= n_grid ** (d - 1)
        assert sum(tensor) == 2 * d * math.comb(m + d - 1, d)

    def test_coarse_grid_reports_failure(self):
        # Negative control: an under-resolved tensor grid must miss the
        # 1e-4 identity by far (measured |ratio - 1| = 3.9e-2).
        c, w = 0.9, 0.35
        ev = lambda r: bump((np.asarray(r, float) - c) / w) \
            + bump((np.asarray(r, float) + c) / w)
        prof = RadialProfile.from_callable(ev, Grid1D.uniform(5e-4, c + 2 * w), d=3)
        rep = radial_gradient_identity_check(prof, 1, 3, evaluator=ev, n_grid=16)
        assert abs(rep.ratio - 1.0) > 1e-2
