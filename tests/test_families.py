import math

import numpy as np
import pytest

from radialfs.bump import annulus_shape
from radialfs.core import Grid1D, weighted_lp_norm
from radialfs.errors import InvalidParameterError
from radialfs.families import (make_f_alpha, make_f_alpha_delta,
                               make_f_alpha_sigma, make_f_j_lambda,
                               make_psi_cutoff, parse_family)
from radialfs.spaces import in_U_t


class TestPsiCutoff:
    def test_plateaus(self):
        psi = make_psi_cutoff()
        assert psi(np.array([0.5]))[0] == 1.0
        assert psi(np.array([2.0]))[0] == 0.0

    def test_range(self):
        psi = make_psi_cutoff()
        t = np.linspace(-3, 3, 1001)
        v = psi(t)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)


class TestFAlpha:
    def test_evaluator_formula(self):
        alpha = 0.25
        fam = make_f_alpha(alpha)
        expected = float(annulus_shape(np.array([1.5]))[0]) * 0.5 ** (-alpha)
        assert fam(np.array([1.5]))[0] == pytest.approx(expected)

    def test_membership_metadata(self):
        fam = make_f_alpha(0.25, p=2.0)
        assert fam.membership["s"] == pytest.approx(0.25)
        assert math.isinf(fam.membership["q"])

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameterError):
            make_f_alpha(1.5)

    def test_weighted_lp_finite_by_refinement(self):
        # alpha p < 1: quadrature refinement converges (integrable ring)
        alpha, p, d = 0.3, 2.0, 2
        fam = make_f_alpha(alpha)
        vals = []
        for h in (4e-3, 2e-3, 1e-3):
            prof = fam.profile(fam.default_grid(h=h), d=d)
            vals.append(weighted_lp_norm(prof, p, d))
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
        assert vals[2] < 2.0 * vals[0]

    def test_grid_avoids_singularity(self):
        fam = make_f_alpha(0.5)
        grid = fam.default_grid(h=1e-3)
        assert np.all(np.abs(np.abs(grid.nodes) - 1.0) > 1e-12)


class TestFAlphaDelta:
    def test_log_damping(self):
        fam = make_f_alpha_delta(0.3, 1.0)
        base = make_f_alpha(0.3)
        t = np.array([1.0 + 1e-4])
        assert 0 < fam(t)[0] < base(t)[0]


class TestFJLambda:
    def test_value_one_at_center_radius(self):
        fam = make_f_j_lambda(3, 16.0)
        t = (1.0 + 16.0) * 2.0 ** -3
        assert fam(np.array([t]))[0] == 1.0

    def test_support_endpoints(self):
        fam = make_f_j_lambda(2, 8.0)
        lo, hi = fam.support
        assert lo == pytest.approx(6.0 * 2.0 ** -2)
        assert hi == pytest.approx(10.0 * 2.0 ** -2)
        eps = 1e-12
        assert fam(np.array([lo - 1e-3]))[0] == 0.0
        assert fam(np.array([hi + 1e-3]))[0] == 0.0

    def test_self_similarity_exact(self):
        lam = 5.0
        f1 = make_f_j_lambda(3, lam)
        f2 = make_f_j_lambda(4, lam)
        t = np.linspace(0.01, 1.0, 777)
        assert np.array_equal(f2(t), f1(2.0 * t))

    def test_lambda_restriction(self):
        with pytest.raises(InvalidParameterError):
            make_f_j_lambda(2, 2.0)
        with pytest.raises(InvalidParameterError):
            make_f_j_lambda(0, 5.0)

    def test_weighted_lp_scaling_law(self):
        # oracle value at (j, lambda) = (2, 8), then the exact scaling law
        d, p = 3, 1.0
        base = make_f_j_lambda(2, 8.0).profile(Grid1D.uniform(2e-4, 3.0), d=d)
        v0 = weighted_lp_norm(base, p, d)
        for j, lam in ((3, 8.0), (4, 8.0)):
            prof = make_f_j_lambda(j, lam).profile(Grid1D.uniform(2e-4, 3.0), d=d)
            v = weighted_lp_norm(prof, p, d)
            expected = v0 * 2.0 ** (-(j - 2) * d / p)
            assert v == pytest.approx(expected, rel=1e-6)


class TestFAlphaSigma:
    def test_membership_table(self):
        assert in_U_t(0.0, 1.0, 1.0)            # (0,1) in U_1
        assert in_U_t(1.0, 0.0, math.inf)       # (1,0) in U_inf
        assert not in_U_t(1.0, 0.0, 2.0)        # (1,0) not in U_2
        assert in_U_t(0.5, 0.6, 2.0)
        assert not in_U_t(0.5, 0.5, 2.0)
        assert in_U_t(-0.3, -5.0, 1.0)

    def test_evaluator_log_growth(self):
        fam = make_f_alpha_sigma(1.0, 0.0)
        r = np.array([2.0 ** -8])
        assert fam(r)[0] == pytest.approx(8.0 * math.log(2.0))

    @pytest.mark.parametrize("alpha, sigma", [(1.0, 2.0), (-0.5, 1.0),
                                              (0.5, 0.0), (2.0, -1.0)])
    def test_singular_points_and_neighbours(self, alpha, sigma):
        # log t = 0 at t = 1 and |log t| = 1 at the float 1/e: the evaluator
        # is exactly 0 there and finite at the neighbouring floats
        fam = make_f_alpha_sigma(alpha, sigma)
        for c in (1.0 / math.e, 1.0):
            near = [c]
            for toward in (0.0, 2.0):
                x = c
                for _ in range(4):
                    x = float(np.nextafter(x, toward))
                    near.append(x)
            v = fam(np.array(near))
            assert v[0] == 0.0 and fam(c) == 0.0
            assert np.all(np.isfinite(v))

    def test_evenness_and_cutoff(self):
        fam = make_f_alpha_sigma(0.5, 0.2)
        assert fam(np.array([1.7]))[0] == 0.0
        t = np.array([0.3, -0.3])
        v = fam(t)
        assert v[0] == v[1]


class TestDescriptors:
    def test_parse_roundtrip(self):
        fam = parse_family("f_j_lambda(j=3,lambda=16)")
        assert fam.params == {"j": 3, "lambda": 16.0}
        assert parse_family(fam.descriptor()).params == fam.params

    def test_parse_psi(self):
        assert parse_family("psi_cutoff").name == "psi_cutoff"

    @pytest.mark.parametrize("desc", ["nope(x=1)", "Phi_alpha(alpha=1)"])
    def test_unknown_family(self, desc):
        with pytest.raises(InvalidParameterError):
            parse_family(desc)
