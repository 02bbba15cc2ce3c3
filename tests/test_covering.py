import numpy as np
import pytest

from radialfs.bump import bump
from radialfs.core import Grid1D, RadialProfile
from radialfs.covering import (AtomSpec, build_covering, build_partition,
                               validate_even_atom, validate_spL_atom)
from radialfs.decompose import tb_norm, tf_norm
from radialfs.errors import InvalidParameterError
from radialfs.families import make_f_j_lambda
from radialfs.spaces import SpaceParams, sigma_p, sigma_pq


@pytest.fixture(scope="module")
def cov2():
    return build_covering(2, J=3, Kmax=10)


@pytest.fixture(scope="module")
def cov3():
    return build_covering(3, J=2, Kmax=8)


class TestCoveringGeometry:
    def test_origin_ball_single(self, cov2):
        assert cov2.count(0) == 1
        assert np.allclose(cov2.centers(0, 0), 0.0)

    def test_center_radii(self, cov2):
        for k in (1, 4, 7):
            radii = np.linalg.norm(cov2.centers(2, k), axis=1)
            assert np.allclose(radii, 2.0 ** -2 * (k + 0.5))

    def test_diameter(self, cov2):
        assert cov2.diameter(3) == 12.0 * 2.0 ** -3

    def test_count_caps(self, cov2, cov3):
        for k in range(11):
            assert cov2.count(k) <= (2 * k + 1)
        for k in range(9):
            assert cov3.count(k) <= (2 * k + 1) ** 2
        assert cov2.count(5) <= 11  # C(2,5) bound from the (2k+1)^{d-1} cap

    def test_self_similarity_exact(self, cov2):
        for k in (0, 3, 8):
            assert np.array_equal(cov2.centers(3, k), cov2.centers(0, k) * 2.0 ** -3)

    def test_monte_carlo_coverage(self, cov3):
        rng = np.random.default_rng(5)
        for j in (0, 2):
            for k in (2, 6):
                lo, hi = k * 2.0 ** -j, (k + 1) * 2.0 ** -j
                x = rng.standard_normal((10000, 3))
                x /= np.linalg.norm(x, axis=1, keepdims=True)
                x *= rng.uniform(lo, hi, 10000)[:, None]
                c = cov3.centers(j, k)
                dmin = np.min(np.linalg.norm(x[:, None, :] - c[None, :, :], axis=2),
                              axis=1)
                assert dmin.max() <= 6.0 * 2.0 ** -j

    def test_bounded_overlap_frozen_and_scale_invariant(self, cov2, cov3):
        # frozen level-0 census values; property (e) makes them j-independent
        n2 = cov2.overlap_bound(0)
        n3 = cov3.overlap_bound(0)
        assert n2 <= 20
        assert n3 <= 31
        assert cov2.overlap_bound(2) == n2

    def test_axis_property_f(self, cov2):
        # beyond K_axis, the inflated ball misses the x1-axis at every level
        K = cov2.K_axis
        assert K >= 1
        for j in (0, 2):
            for k in range(1, 11):
                ordered = cov2.axis_first_order(j, k)
                for ell, c in enumerate(ordered, start=1):
                    if ell > K:
                        dist = np.linalg.norm(c[1:])
                        assert dist >= 2.0 * cov2.diameter(j)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidParameterError):
            build_covering(4)

    def test_csv_export(self, cov2, tmp_path):
        path = tmp_path / "cov.csv"
        cov2.to_csv(path, level=0)
        header = open(path).readline().strip()
        assert header == "j,k,ell,x1,x2,radius"


class TestPartitionOfUnity:
    def test_sum_is_one_on_covered_region(self, cov2):
        # 1e5 random points within the covered region, in chunks
        pou = build_partition(cov2)
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            pts = rng.uniform(-4.0, 4.0, size=(5000, 2))
            worst = max(worst, float(np.abs(pou.sum_at(1, pts) - 1.0).max()))
        assert worst <= 1e-10

    def test_origin_ball_dominates_near_origin(self, cov2):
        # diameter-12 balls from annuli k <= 5 also cover the origin, so no
        # single-ball region exists in this realization; the origin bump is
        # the largest share there and the shares still sum to 1
        pou = build_partition(cov2)
        pts = np.array([[0.05, 0.0], [0.0, -0.1]])
        vals, idx = pou.evaluate(3, pts)
        i0 = idx.index((0, 1))
        assert np.all(vals[i0] == np.max(vals, axis=0))
        assert np.allclose(vals.sum(axis=0), 1.0, atol=1e-12)

    def test_derivative_bound_scales_dyadically(self, cov2):
        pou = build_partition(cov2)
        g0 = pou.gradient_sup(0, 2, 1)
        g3 = pou.gradient_sup(3, 2, 1)
        # frozen level-0 constant; exact 2^j scaling by self-similarity
        c1 = 0.0655  # frozen from the level-0 oracle run with 7% headroom
        assert g0 <= c1
        assert g3 / 2.0 ** 3 <= c1
        assert g3 / g0 == pytest.approx(8.0, rel=1e-9)

    def test_coverage_hole_raises(self, cov2):
        pou = build_partition(cov2)
        from radialfs.errors import CoverageError
        with pytest.raises(CoverageError):
            pou.sum_at(1, np.array([[50.0, 0.0]]))


class TestEvenAtomValidation:
    def test_template_atom_passes(self):
        from radialfs.decompose import template_atom_profile
        grid = Grid1D.uniform(2e-4, 2.0)
        g = template_atom_profile(0, 0, grid, L=2)
        rep = validate_even_atom(g, (1.0,), 2)
        assert rep.ok

    def test_template_atoms_pass_on_annulus_pairs(self):
        from radialfs.decompose import template_atom_profile
        grid = Grid1D.uniform(2e-4, 3.0)
        for (j, k) in ((0, 1), (1, 3), (2, 5)):
            g = template_atom_profile(j, k, grid, L=2)
            rep = validate_even_atom(g, (2.0 ** -j * k, 2.0 ** -j * (k + 1)), 2)
            assert rep.ok, (j, k, rep.detail)

    def test_dilated_bump_fails_first_derivative(self):
        # scaling the template up by 4 without renormalizing breaks the
        # |I|^{-n} derivative bounds at n = 1
        from radialfs.decompose import template_atom_profile
        grid = Grid1D.uniform(2e-4, 2.0)
        g = template_atom_profile(0, 0, grid, L=1).scaled(4.0)
        rep = validate_even_atom(g, (1.0,), 1)
        assert not rep.ok
        assert rep.detail["ratios"][1] > 1.0

    def test_traced_dim_atom_up_to_constant(self):
        # trace of a d-dim (s,p)-atom on a covering ball (scaled by
        # 2^{j(s-d/p)}): an even L-atom up to the constant 12^{s-d/p}
        from radialfs.bump import bump_derivative_sup
        s, p, d, j, L = 3.0, 2.0, 2, 2, 1
        r = 12.0 * 2.0 ** -j          # covering-ball diameter at level j
        k = 6                          # annulus far enough that a > 0 below
        center = 2.0 ** -j * (k + 0.5)
        tau = min((1.5 / 6.0) ** n / bump_derivative_sup(n) for n in range(L + 1))

        def dim_atom_on_axis(t):
            return (r ** (s - d / p) * tau
                    * bump((np.abs(t) - center) / (r / 2.0)))

        grid = Grid1D.uniform(5e-4, 4.0)
        g = RadialProfile.from_callable(
            lambda t: 2.0 ** (j * (s - d / p)) * dim_atom_on_axis(t), grid)
        interval = (center - r / 2.0, center + r / 2.0)
        const = 12.0 ** (s - d / p)
        assert validate_even_atom(g, interval, L, tol_factor=const).ok
        assert not validate_even_atom(g, interval, L).ok  # constant is needed

    def test_report_style_no_raise(self):
        grid = Grid1D.uniform(0.01, 2.0)
        g = RadialProfile.from_callable(lambda t: 100.0 * bump(t), grid)
        rep = validate_even_atom(g, (1.0,), 0)
        assert not rep.ok and rep.max_violation > 0


class TestSpLAtomValidation:
    @staticmethod
    def _tensor_sample(func, lo, hi, n, d):
        axes = [np.linspace(lo, hi, n)] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        return axes, func(*mesh)

    def test_moment_skipped_at_minus_one(self):
        spec = AtomSpec(1, -1, 1.0, 2.0)
        axes, vals = self._tensor_sample(
            lambda x, y: 0.1 * bump(np.sqrt(x ** 2 + y ** 2) / 0.4), -1.0, 1.0,
            201, 2)
        rep = validate_spL_atom(vals, axes, np.zeros(2), 0.5, spec)
        assert rep.ok
        assert not any(k.startswith("moment") for k in rep.detail)

    def test_zero_function_passes(self):
        spec = AtomSpec(2, 1, 1.0, 2.0)
        axes, vals = self._tensor_sample(lambda x, y: 0.0 * x, -1.0, 1.0, 101, 2)
        rep = validate_spL_atom(vals, axes, np.zeros(2), 0.5, spec)
        assert rep.ok

    def test_vanishing_moment_against_quadrature_oracle(self):
        # odd atom: zeroth moment vanishes; quadrature oracle confirms at 1e-8
        spec = AtomSpec(0, 0, 1.0, 2.0)

        def atom(x, y):
            r = np.sqrt(x ** 2 + y ** 2)
            return 0.05 * x * bump(r / 0.4)

        axes, vals = self._tensor_sample(atom, -1.0, 1.0, 401, 2)
        h = axes[0][1] - axes[0][0]
        oracle = float(np.sum(vals) * h * h)
        assert abs(oracle) <= 1e-8
        rep = validate_spL_atom(vals, axes, np.zeros(2), 0.5, spec)
        assert rep.ok

    def test_support_violation_detected(self):
        spec = AtomSpec(0, -1, 1.0, 2.0)
        axes, vals = self._tensor_sample(
            lambda x, y: np.ones_like(x), -2.0, 2.0, 101, 2)
        rep = validate_spL_atom(vals, axes, np.zeros(2), 0.25, spec)
        assert not rep.ok


class TestAtomSpecAdmissibility:
    def test_b_admissible_orders(self):
        spec = AtomSpec.b_admissible(1.3, 0.5, 2)
        # L >= [s]+1 = 2; M >= [sigma_p(2) - s] = [0.7] = 0
        assert spec.L >= 2 and spec.M >= 0

    def test_moment_free_for_large_s(self):
        spec = AtomSpec.b_admissible(2.0, 2.0, 2)
        assert spec.M == -1

    def test_required_moment_order_follows_sigma(self):
        # s = 0.5, p = 2, q = 0.5, d = 2: sigma_p = 0 asks for no moments,
        # sigma_pq = 2 asks for M >= 1, so the B-admissible spec serves the
        # B scale only
        spec = AtomSpec.b_admissible(0.5, 2.0, 2)
        assert spec.M == -1
        spec.require_admissible(0.5, 2.0, sigma_p(2.0, 2))
        with pytest.raises(InvalidParameterError):
            spec.require_admissible(0.5, 2.0, sigma_pq(2.0, 0.5, 2))
        prof = make_f_j_lambda(3, 4.0).profile(Grid1D.uniform(2.0 ** -8, 1.0), d=2)
        assert tb_norm(prof, SpaceParams(0.5, 2.0, 0.5, 2), spec=spec, J=3) > 0
        with pytest.raises(InvalidParameterError):
            tf_norm(prof, SpaceParams(0.5, 2.0, 0.5, 2, "F"), spec=spec, J=3)

    def test_invalid_orders(self):
        with pytest.raises(InvalidParameterError):
            AtomSpec(-1, -1, 1.0, 2.0)
