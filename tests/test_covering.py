import numpy as np
import pytest

from radialfs.bump import bump
from radialfs.core import Grid1D, RadialProfile
from radialfs.covering import AtomSpec, validate_even_atom
from radialfs.decompose import tb_norm, tf_norm
from radialfs.errors import InvalidParameterError
from radialfs.families import make_f_j_lambda
from radialfs.spaces import SpaceParams, sigma_p, sigma_pq


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
