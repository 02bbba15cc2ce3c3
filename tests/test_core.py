import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from radialfs.bump import annulus_shape, bump, psi_cutoff
from radialfs.core import (_RUN_NODES, Grid1D, RadialProfile, _gradient_identity_reports,
                           _permutations, radial_gradient_identity_check, sphere_area,
                           weighted_lp_norm)
from radialfs.errors import EvennessError, InvalidParameterError
from radialfs.experiments import SOBOLEV_SHAPES, _sobolev_evaluator
from radialfs.families import make_f_j_lambda
from radialfs.traceext import RadialGridField


def composite_grid(J: int, h: float, T: float) -> Grid1D:
    """Dyadic refinement on (0, 1] (levels j = 0..J) plus a uniform tail on [1, T].

    Level j places 16 nodes on (2^{-j-1}, 2^{-j}], so the local spacing
    tracks the dyadic scale near the origin; the tail has spacing h.
    """
    parts = [np.array([0.0, 2.0 ** (-J - 1)])]
    for j in range(J, -1, -1):
        parts.append(np.linspace(2.0 ** (-j - 1), 2.0 ** -j, 17)[1:])
    parts.append(1.0 + np.arange(1, int(round((T - 1) / h)) + 1) * h)
    half = np.unique(np.concatenate(parts))
    return Grid1D(np.concatenate([-half[:0:-1], half]))


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

    @pytest.mark.parametrize("h, T", [(math.nan, 1.0), (0.1, math.nan),
                                      (0.1, math.inf), (math.inf, 1.0)])
    def test_uniform_needs_finite_spacing_and_extent(self, h, T):
        # NaN raised a raw ValueError and an infinite T an OverflowError
        with pytest.raises(InvalidParameterError, match="finite"):
            Grid1D.uniform(h, T)


class TestFromCallable:
    GRIDS = {
        "uniform": Grid1D.uniform(0.01, 1.5),
        "composite": composite_grid(J=4, h=0.1, T=2.0),
        "even-count": Grid1D(np.array([-1.7, -0.9, -0.3, -0.05, 0.05, 0.3, 0.9, 1.7])),
    }

    @staticmethod
    def _f(t):
        return bump((t - 0.6) / 0.5) + np.exp(-t) * np.cos(3.0 * t)

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_one_call_on_the_half_line_equals_the_full_grid(self, name):
        grid = self.GRIDS[name]
        n = grid.nodes.size
        calls = []

        def f(t):
            calls.append(t.copy())
            return self._f(t)

        prof = RadialProfile.from_callable(f, grid, d=2)
        assert len(calls) == 1
        assert calls[0].tobytes() == np.abs(grid.nodes[n // 2:]).tobytes()
        assert not np.any(np.signbit(calls[0]))
        assert prof.values.tobytes() == self._f(np.abs(grid.nodes)).tobytes()
        assert prof.dim_context == 2

    def test_negative_zero_middle_node_arrives_as_positive_zero(self):
        grid = Grid1D(np.array([-1.0, -0.0, 1.0]))
        seen = []
        RadialProfile.from_callable(lambda t: seen.append(t.copy()) or 1.0 + t, grid)
        assert seen[0].tobytes() == np.array([0.0, 1.0]).tobytes()

    @pytest.mark.parametrize("f", [lambda t: 1.0, lambda t: t[:-1],
                                   lambda t: np.concatenate([t, t]),
                                   lambda t: t[:, None]],
                             ids=["scalar", "short", "doubled", "column"])
    def test_misshapen_result_raises(self, f):
        with pytest.raises(InvalidParameterError):
            RadialProfile.from_callable(f, self.GRIDS["uniform"])


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

    @given(c=st.floats(-50, 50), p=st.floats(0.5, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, c, p):
        g = RadialProfile.from_callable(lambda t: np.cos(t) * (np.abs(t) < 2),
                                        Grid1D.uniform(0.01, 2.5), d=2)
        base = weighted_lp_norm(g, p, 2)
        assert weighted_lp_norm(g.scaled(c), p, 2) == pytest.approx(
            abs(c) * base, rel=1e-12, abs=1e-12)


@lru_cache(maxsize=None)
def _annulus_moment(k: int, p: float) -> float:
    """A_k = integral u^k a(u)^p du over R, a = annulus_shape, by scipy's
    adaptive quadrature with the plateau edges as breakpoints (estimate
    below 7e-14); a is even, so odd moments vanish."""
    if k % 2:
        return 0.0
    value, err = quad(lambda u: u ** k * annulus_shape(u) ** p, 0.5, 2.0,
                      points=[0.75, 1.5], epsabs=0.0, epsrel=1e-13, limit=200)
    assert err < 1e-13
    return 2.0 * value


def _annulus_closed_form_gap(norm, d: int, j: int, lam: float, p: float) -> float:
    """Relative gap between norm(f_{j,lambda}, p, d)^p and its closed form.

    With u = 2^j |t| - lambda over both signs of t,
    ||f_{j,lambda}||^p = 2^{1-jd} integral a(u)^p (u + lambda)^{d-1} du:
    2^{1-2j} lambda A_0 at d = 2, 2^{1-3j} (lambda^2 A_0 + A_2) at d = 3.
    """
    A0, A2 = _annulus_moment(0, p), _annulus_moment(2, p)
    exact = (2.0 ** (1 - 2 * j) * lam * A0 if d == 2
             else 2.0 ** (1 - 3 * j) * (lam ** 2 * A0 + A2))
    prof = make_f_j_lambda(j, lam).profile(
        Grid1D.uniform(2.0 ** -14, (lam + 2.5) * 2.0 ** -j))
    return abs(norm(prof, p, d) ** p - exact) / exact


# The trapezoid rule is spectrally accurate on the smooth, compactly
# supported integrand: the gaps read at most 6.3e-16 at h = 2^-14, and the
# moments' quadrature estimate is below 3e-14 relative.
ANNULUS_CLOSED_FORM_RTOL = 1e-12
ANNULUS_CASES = [(d, j, lam, p) for d in (2, 3) for j, lam in
                 [(3, 4.0), (2, 16.0), (5, 16.0), (4, 64.0)]
                 for p in (1.0, 1.5, 2.0)]


class TestAnnulusClosedForm:
    @pytest.mark.parametrize("d, j, lam, p", ANNULUS_CASES)
    def test_weighted_lp_norm_of_f_j_lambda(self, d, j, lam, p):
        gap = _annulus_closed_form_gap(weighted_lp_norm, d, j, lam, p)
        assert gap <= ANNULUS_CLOSED_FORM_RTOL

    def test_closed_form_fails_with_the_weight_raised(self):
        # mutant: the weight |t|^d in place of |t|^{d-1} scales the integral
        # by about (lambda + u) 2^-j, so every gap reads 0.09 to 3.1
        raised = lambda g, p, d: weighted_lp_norm(g, p, d + 1)
        gaps = [_annulus_closed_form_gap(raised, *case) for case in ANNULUS_CASES]
        assert min(gaps) > 0.05


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
    lambda d: RadialProfile(_DIM_PROFILE.grid, _DIM_PROFILE.values, dim_context=d),
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_tiny_profile_keeps_its_ratio(self, d):
        # the support threshold is relative to max |g|, so a bump scaled by
        # 1e-14 keeps its tensor grid and its ratio
        ev = lambda r: bump((np.asarray(r, float) - 0.9) / 0.35)
        tiny = lambda r: 1e-14 * ev(r)
        grid = Grid1D.uniform(5e-4, 1.6)
        want = radial_gradient_identity_check(
            RadialProfile.from_callable(ev, grid, d=d), 2, d, evaluator=ev, n_grid=60)
        got = radial_gradient_identity_check(
            RadialProfile.from_callable(tiny, grid, d=d), 2, d, evaluator=tiny, n_grid=60)
        assert got.lhs_tensor > 0.0
        assert got.ratio == pytest.approx(want.ratio, abs=1e-12)

    def test_zero_profile_with_a_nonzero_evaluator_reads_ratio_zero(self):
        # the tensor side sees no support, the radial side differentiates the
        # evaluator: the two disagree, and the report must say so
        ev = lambda r: bump((np.asarray(r, float) - 0.9) / 0.35)
        prof = RadialProfile.from_callable(lambda t: 0.0 * t,
                                           Grid1D.uniform(5e-4, 1.6), d=2)
        rep = radial_gradient_identity_check(prof, 1, 2, evaluator=ev)
        assert rep.lhs_tensor == 0.0 and rep.rhs_radial > 1.0
        assert rep.ratio == 0.0

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

    def test_infinite_p_rejected(self):
        # (total h^d)^(1/p) is 1.0 for every total at p = inf: on e^{-r^2}
        # at d = 2, n_grid = 301 the oracle reported lhs 1.0 against rhs 0.858
        ev = lambda r: np.exp(-np.asarray(r, float) ** 2)
        prof = RadialProfile.from_callable(ev, Grid1D.uniform(5e-4, 3.0))
        with pytest.raises(InvalidParameterError, match="finite p"):
            radial_gradient_identity_check(prof, math.inf, 2, evaluator=ev, n_grid=301)
        with pytest.raises(InvalidParameterError, match="finite p"):
            _gradient_identity_reports(prof, (2.0, math.inf), 2, evaluator=ev,
                                       n_grid=301)

    @pytest.mark.parametrize("n_grid", [0, 1, 2.5, True, -3])
    def test_n_grid_must_be_an_integer_of_two_or_more(self, n_grid):
        # 0 and 1 raised a raw IndexError, 2.5 a raw TypeError
        ev = lambda r: np.exp(-np.asarray(r, float) ** 2)
        prof = RadialProfile.from_callable(ev, Grid1D.uniform(5e-4, 3.0))
        with pytest.raises(InvalidParameterError, match="n_grid >= 2"):
            radial_gradient_identity_check(prof, 2.0, 2, evaluator=ev, n_grid=n_grid)
        assert radial_gradient_identity_check(prof, 2.0, 2, evaluator=ev,
                                              n_grid=np.int64(2)).lhs_tensor >= 0.0

    @pytest.mark.parametrize("fd_step", [0.0, -1e-5, math.nan, math.inf])
    def test_fd_step_must_be_finite_and_positive(self, fd_step):
        # on e^{-r^2}, d = 2, n_grid = 101: nan gave lhs_tensor nan, inf gave
        # 0.0 (ratio 0), and 0 divided by zero
        ev = lambda r: np.exp(-np.asarray(r, float) ** 2)
        prof = RadialProfile.from_callable(ev, Grid1D.uniform(5e-4, 3.0))
        with pytest.raises(InvalidParameterError, match="fd_step > 0"):
            _gradient_identity_reports(prof, (2.0,), 2, evaluator=ev, n_grid=101,
                                       fd_step=fd_step)
        with pytest.raises(InvalidParameterError, match="fd_step > 0"):
            radial_gradient_identity_check(prof, 2.0, 2, n_grid=101, fd_step=fd_step)

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

    @staticmethod
    def _live_nodes(prof, d, n_grid, fd_step=1e-5):
        """Chamber nodes x_1 >= ... >= x_d >= 0 inside the shell: g's samples
        on t >= 0 vanish up to r_in and from r_out on, and a node is live
        when (r_in - 2 fd)^2 < |x|^2 < (r_out + 2 fd)^2."""
        n = prof.grid.nodes.size
        r, vals = np.abs(prof.grid.nodes[n // 2:]), prof.values[n // 2:]
        nonzero = np.flatnonzero(vals)
        r_out = r[nonzero[-1] + 1] if nonzero[-1] + 1 < r.size else math.inf
        r_in = r[nonzero[0] - 1] if nonzero[0] > 0 else 0.0
        T = float(np.abs(prof.grid.nodes[np.abs(prof.values) > 1e-13]).max()) * 1.05 + 0.25
        half = np.linspace(-T, T, n_grid)[n_grid // 2:]
        if n_grid % 2:
            half[0] = 0.0
        mesh = np.meshgrid(*([half] * d), indexing="ij")
        chamber = np.all([a >= b for a, b in zip(mesh, mesh[1:])], axis=0)
        r2 = sum(x ** 2 for x in mesh)[chamber]
        live = r2 < (r_out + 2 * fd_step) ** 2
        if r_in - 2 * fd_step > 0:
            live &= r2 > (r_in - 2 * fd_step) ** 2
        return int(np.count_nonzero(live))

    @pytest.mark.parametrize("d,n_grid", [(2, 61), (2, 40), (2, 1000), (3, 61), (3, 40)])
    def test_chamber_work_and_block_size(self, d, n_grid):
        # The route evaluates 2d difference terms per live chamber node (both
        # pairs have dead nodes near the origin and beyond c + w), and no
        # evaluation exceeds a run of _RUN_NODES nodes (at d = 2, n_grid = 1000
        # the slabs up to c + w hold 80-91k chamber nodes, so two runs).
        for c, w in SOBOLEV_SHAPES:
            sizes = []

            def ev(r):
                r = np.asarray(r, float)
                sizes.append(r.size)
                return bump((r - c) / w) + bump((r + c) / w)

            prof = RadialProfile.from_callable(ev, Grid1D.uniform(0.01, c + 2 * w), d=d)
            sizes.clear()
            radial_gradient_identity_check(prof, 1.5, d, evaluator=ev, n_grid=n_grid)
            # the radial route's two difference quotients come first
            assert sizes[:2] == [prof.grid.nodes.size] * 2
            tensor = sizes[2:]
            assert max(tensor) <= _RUN_NODES
            live = self._live_nodes(prof, d, n_grid)
            assert 0 < live < math.comb((n_grid + 1) // 2 + d - 1, d)
            assert sum(tensor) == 2 * d * live

    def test_coarse_grid_reports_failure(self):
        # Negative control: an under-resolved tensor grid must miss the
        # 1e-4 identity by far (measured |ratio - 1| = 3.9e-2).
        c, w = 0.9, 0.35
        ev = lambda r: bump((np.asarray(r, float) - c) / w) \
            + bump((np.asarray(r, float) + c) / w)
        prof = RadialProfile.from_callable(ev, Grid1D.uniform(5e-4, c + 2 * w), d=3)
        rep = radial_gradient_identity_check(prof, 1, 3, evaluator=ev, n_grid=16)
        assert abs(rep.ratio - 1.0) > 1e-2


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("c, w", SOBOLEV_SHAPES)
def test_sobolev_evaluator_is_the_bump_pair_on_the_oracles_radii(c, w, d):
    # sobolev-reduction drops the bump at -c; that is exact only while every
    # radius the oracle evaluates, r >= 0, keeps (r + c)/w >= 1 (bump's
    # support is open), so a shape with c < w fails here
    one = _sobolev_evaluator(c, w)
    compared = []

    def ev(r):
        r = np.asarray(r, float)
        got = one(r)
        pair = bump((r - c) / w) + bump((r + c) / w)
        compared.append((r.size, got.tobytes() == pair.tobytes()))
        return got

    prof = RadialProfile.from_callable(ev, Grid1D.uniform(5e-4, c + 2 * w), d=d)
    _gradient_identity_reports(prof, (1.0, 2.0), d, evaluator=ev)
    assert sum(size for size, _ in compared) > prof.grid.nodes.size
    assert all(same for _, same in compared)


def _whole_chamber_lhs(g, ps, d, evaluator, n_grid, fd_step=1e-5):
    """lhs_tensor per p from the chamber loop that evaluates every chamber
    node, dead or live: blocks of whole x_1-slabs of at most n_grid^(d-1)
    nodes, one np.sum per block and p."""
    t = g.grid.nodes
    support = np.abs(t[np.abs(g.values) > 1e-13])
    feval = evaluator if evaluator is not None else g
    T = float(support.max()) * 1.05 + 0.25
    full = np.linspace(-T, T, n_grid)
    h = full[1] - full[0]
    half = full[n_grid // 2:].copy()
    if n_grid % 2:
        half[0] = 0.0
    m = half.size
    rest = np.arange(m)[:, None] if d == 2 else np.column_stack(np.tril_indices(m))
    lead_rest = rest[:, 0]
    x_rest = half[rest]
    sq_rest = x_rest ** 2
    sum_rest = np.sum(sq_rest, axis=1)
    other_rest = np.zeros_like(sq_rest) if d == 2 else sq_rest[:, ::-1]
    mirror = np.where(half != 0.0, 2.0, 1.0)
    w_rest = np.prod(mirror[rest], axis=1)
    w_tie = w_rest * _permutations(np.column_stack([lead_rest, rest]))
    w_free = w_rest * _permutations(np.column_stack([np.full_like(lead_rest, m), rest]))
    counts = np.searchsorted(lead_rest, np.arange(m), side="right")
    cum = np.cumsum(counts)
    cap = n_grid ** (d - 1)
    totals, start, done = [0.0] * len(ps), 0, 0
    while start < m:
        stop = max(start + 1, int(np.searchsorted(cum, done + cap, side="right")))
        sizes = counts[start:stop]
        first = cum[start:stop] - sizes - done
        row = np.arange(cum[stop - 1] - done) - np.repeat(first, sizes)
        x1 = np.repeat(half[start:stop], sizes)
        sq1 = x1 ** 2
        grad_sq = 0.0
        for k in range(d):
            if k == 0:
                xk, other = x1, sum_rest[row]
            else:
                xk, other = x_rest[row, k - 1], sq1 + other_rest[row, k - 1]
            dk = (feval(np.sqrt((xk + fd_step) ** 2 + other))
                  - feval(np.sqrt((xk - fd_step) ** 2 + other))) / (2.0 * fd_step)
            grad_sq = grad_sq + dk ** 2
        weight = np.repeat(mirror[start:stop], sizes) * np.where(
            x1 == x_rest[row, 0], w_tie[row], w_free[row])
        grad = np.sqrt(grad_sq)
        for i, p in enumerate(ps):
            totals[i] += float(np.sum(weight * grad ** p))
        start, done = stop, int(cum[stop - 1])
    return [float((total * h ** d) ** (1.0 / p)) for p, total in zip(ps, totals)]


_PAIR = lambda r: bump((np.asarray(r, float) - 1.0) / 0.7) \
    + bump((np.asarray(r, float) + 1.0) / 0.7)
# name: (profile and evaluator callable, half-width of the profile's grid,
# whether the oracle gets the evaluator or the profile's interpolation)
_SHELL_CASES = {
    **{f"sobolev {c:g} {w:g}": (_sobolev_evaluator(c, w), c + 2 * w, True)
       for c, w in SOBOLEV_SHAPES},
    "bump pair, interpolated": (_PAIR, 2.0, False),
    "cone": (lambda r: np.maximum(0.0, 1.0 - np.asarray(r, float)), 1.3, True),
    "gaussian": (lambda r: np.exp(-np.asarray(r, float) ** 2), 3.0, True),
}


@pytest.mark.parametrize("name", sorted(_SHELL_CASES))
@pytest.mark.parametrize("d, n_grid", [(2, 800), (2, 801), (3, 160), (3, 161)])
def test_live_shell_gives_the_whole_chamber_floats(name, d, n_grid):
    # Dead nodes add +0.0, so evaluating only the live shell leaves every
    # block's np.sum, and the report, bit for bit.  The chambers hold 80-92k
    # nodes in blocks of n_grid^(d-1): the Gaussian, live everywhere, spans
    # two runs of at most 2^16 nodes in both d, and the (1.2, 0.8) pair two
    # in d = 3; the other shapes end within one run.  The bump pairs also
    # have dead nodes near the origin, the cone and the Gaussian none.
    f, T, with_evaluator = _SHELL_CASES[name]
    ev = f if with_evaluator else None
    prof = RadialProfile.from_callable(f, Grid1D.uniform(2e-3, T), d=d)
    ps = (1.0, 1.5, 2.0)
    want = [x.hex() for x in _whole_chamber_lhs(prof, ps, d, ev, n_grid)]
    reps = _gradient_identity_reports(prof, ps, d, evaluator=ev, n_grid=n_grid)
    assert [rep.lhs_tensor.hex() for rep in reps] == want
    assert [radial_gradient_identity_check(prof, p, d, evaluator=ev, n_grid=n_grid)
            .lhs_tensor.hex() for p in ps] == want
