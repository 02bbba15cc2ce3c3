from typing import Dict, Tuple

import numpy as np
import pytest

from radialfs.bump import bump
from radialfs.core import Grid1D, RadialProfile, _gradients
from radialfs.covering import AtomSpec
from radialfs.decompose import decompose_profile, tb_norm, tf_norm
from radialfs.errors import InvalidParameterError
from radialfs.families import make_f_j_lambda
from radialfs.spaces import SpaceParams, sigma_p, sigma_pq


def validate_even_atom(g: RadialProfile, interval, L: int,
                       tol_factor: float = 1.0) -> Tuple[bool, Dict[int, float]]:
    """Check the even L-atom conditions against interval descriptor ``interval``.

    ``interval`` is (a,) for [-a, a] or (a, b) for [-b,-a] u [a,b].  Verifies
    sup |g^{(n)}| <= tol_factor * |I|^{-n} for 0 <= n <= L (finite
    differences) and the 3/2-dilated support inclusion; returns whether both
    hold and the ratio sup |g^{(n)}| / |I|^{-n} per order n.
    """
    t = g.grid.nodes
    if len(interval) == 1:
        a = float(interval[0])
        length = 2.0 * a
        supp_ok = np.abs(t) <= 1.5 * a
    else:
        a, b = float(interval[0]), float(interval[1])
        assert 0 < a < b
        length = 2.0 * (b - a)
        lo, hi = (3 * a - b) / 2.0, (3 * b - a) / 2.0
        supp_ok = (np.abs(t) >= lo) & (np.abs(t) <= hi)
    support_violation = float(np.max(np.abs(g.values[~supp_ok]), initial=0.0))
    ratios = {n: float(np.max(np.abs(dv))) / length ** (-n)
              for n, dv in enumerate(_gradients(g.values, t, L))}
    ok = support_violation <= 1e-12 and all(
        r <= tol_factor * (1.0 + 1e-6) for r in ratios.values())
    return ok, ratios


def cubic_bspline(x):
    """The centred cubic B-spline N, supported on [-2, 2]."""
    a = np.abs(np.asarray(x, dtype=float))
    return np.where(a < 1.0, 2.0 / 3.0 - a * a + 0.5 * a ** 3,
                    np.where(a < 2.0, (2.0 - a) ** 3 / 6.0, 0.0))


def spline_atom_values(j, k, t):
    """decompose_profile's atom of slot (j, k): N(2^j t - k) + N(2^j t + k),
    and N(2^j t) at k = 0."""
    u = 2.0 ** j * np.asarray(t, dtype=float)
    return cubic_bspline(u - k) + (cubic_bspline(u + k) if k else 0.0)


def spline_atom(j, k, grid, d=None):
    """The spline atom (j, k) sampled on grid."""
    return RadialProfile.from_callable(lambda t: spline_atom_values(j, k, t),
                                       grid, d=d)


def spline_atom_interval(j, k):
    """An interval descriptor whose dilation holds the support of atom (j, k):
    [-b, -a] u [a, b] with (a, b) = 2^-j (k - 1, k + 1) for k >= 2, and
    [-a, a] with 1.5 a = 2^-j (k + 2) for k <= 1."""
    if k >= 2:
        return (2.0 ** -j * (k - 1), 2.0 ** -j * (k + 1))
    return (2.0 ** -j * (k + 2) / 1.5,)


# The spline atoms are even 2-atoms up to this constant: on the intervals of
# spline_atom_interval, |I| <= 2^{2-j}, and sup |N^(n)| 4^n is 2/3, 8/3 and
# 32 for n = 0, 1, 2 (measured 31.99 at n = 2).
SPLINE_ATOM_CONSTANT = 32.0


class TestEvenAtomValidation:
    def test_template_atom_passes(self):
        # the template atom is decompose_profile's spline atom
        grid = Grid1D.uniform(2e-4, 2.0)
        ok, ratios = validate_even_atom(spline_atom(0, 0, grid),
                                        spline_atom_interval(0, 0), 2,
                                        SPLINE_ATOM_CONSTANT)
        assert ok, ratios

    def test_template_atoms_pass_on_annulus_pairs(self):
        grid = Grid1D.uniform(2e-4, 3.0)
        for (j, k) in ((0, 1), (0, 2), (1, 3), (2, 5)):
            ok, ratios = validate_even_atom(
                spline_atom(j, k, grid), spline_atom_interval(j, k), 2,
                SPLINE_ATOM_CONSTANT)
            assert ok, (j, k, ratios)
            # the constant is needed: the second derivative is 32 |I|^{-2}
            assert not validate_even_atom(spline_atom(j, k, grid),
                                          spline_atom_interval(j, k), 2)[0]

    def test_dilated_bump_fails_first_derivative(self):
        # scaling the spline atom up by 4 breaks the derivative bound of
        # order 1, 8/3 |I|^{-1}, that the unscaled atom meets
        grid = Grid1D.uniform(2e-4, 2.0)
        interval = spline_atom_interval(0, 2)
        assert validate_even_atom(spline_atom(0, 2, grid), interval, 1, 8.0 / 3.0)[0]
        ok, ratios = validate_even_atom(spline_atom(0, 2, grid).scaled(4.0),
                                        interval, 1, 8.0 / 3.0)
        assert not ok
        assert ratios[1] > 8.0 / 3.0

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
        assert validate_even_atom(g, interval, L, tol_factor=const)[0]
        assert not validate_even_atom(g, interval, L)[0]  # constant is needed


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
        dec = decompose_profile(prof, spec, J=3, raise_on_stall=False)
        assert tb_norm(prof, SpaceParams(0.5, 2.0, 0.5, 2), decomposition=dec) > 0
        with pytest.raises(InvalidParameterError):
            tf_norm(prof, SpaceParams(0.5, 2.0, 0.5, 2, "F"), decomposition=dec)

    def test_invalid_orders(self):
        with pytest.raises(InvalidParameterError):
            AtomSpec(-1, -1, 1.0, 2.0)
