import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as scipy_quad

from radialfs import experiments
from radialfs.bv import (QUAD_RTOL, RadonMeasure1D, bv_decay_check,
                         bv_dim_norm, bv_equivalence_check, bv_weighted_norm,
                         pairing_identity_residuals, quad,
                         smooth_bump_bv, staircase)
from radialfs.core import sphere_area
from radialfs.errors import InvalidParameterError, QuadratureError
from radialfs.experiments import (BV_DECAY_RTOL, ExperimentConfig, _bv_corpus,
                                  run_experiment)


class TestWeightedNorm:
    def test_indicator_closed_form(self):
        # 1_[0,1), d = 2: L1 part 1/2, jump 1 at t = 1: total 3/2
        g = staircase([(1.0, 1.0)])
        assert bv_weighted_norm(g, 2) == pytest.approx(1.5, rel=1e-12)

    def test_zero(self):
        g = staircase([(1.0, 0.0)])
        assert bv_weighted_norm(g, 2) == 0.0

    def test_two_step_against_quadrature_plus_jump_oracle(self):
        r1, a = 1.0, 2.0
        r2, b = 3.0, -1.0
        g = staircase([(r1, a), (r2, b)])
        l1, _ = scipy_quad(lambda t: abs(a) * t ** 2, 0, r1)
        l1b, _ = scipy_quad(lambda t: abs(b) * t ** 2, r1, r2)
        jumps = r1 ** 2 * abs(b - a) + r2 ** 2 * abs(0.0 - b)
        assert bv_weighted_norm(g, 3) == pytest.approx(l1 + l1b + jumps, rel=1e-10)

    def test_atom_locations_validated(self):
        with pytest.raises(InvalidParameterError):
            RadonMeasure1D(((0.0, 1.0),))
        with pytest.raises(InvalidParameterError):
            RadonMeasure1D(((2.0, 1.0), (1.0, 1.0)))


# The test functions' derivatives are exact, so the residuals are quadrature
# error: at most 6.7e-13 on these profiles.
PAIRING_TOL = 1e-11


def _perturbed(g, rel):
    """g with every mass of its derivative measure scaled by 1 + rel."""
    nu = g.derivative
    density = None if nu.density is None else (lambda t: (1.0 + rel) * nu.density(t))
    atoms = tuple((loc, (1.0 + rel) * mass) for loc, mass in nu.atoms)
    return dataclasses.replace(
        g, derivative=RadonMeasure1D(atoms, density, nu.density_support))


class TestPairingIdentity:
    def test_staircases(self):
        for steps in ([(1.0, 1.0)], [(0.5, 2.0), (1.5, -1.0), (3.0, 0.5)]):
            g = staircase(steps)
            assert np.abs(pairing_identity_residuals(g, 2)).max() <= PAIRING_TOL

    def test_smooth_bump(self):
        g = smooth_bump_bv(2.0, 0.5)
        assert np.abs(pairing_identity_residuals(g, 3)).max() <= PAIRING_TOL

    @pytest.mark.parametrize("g, d", [
        (staircase([(0.5, 2.0), (1.5, -1.0), (3.0, 0.5)]), 2),
        (smooth_bump_bv(2.0, 0.5), 3)], ids=["staircase", "bump"])
    def test_mass_off_by_1e8_fails(self, g, d):
        # negative control: a measure whose masses are 1e-8 too large no
        # longer pairs with g, which the bound must see
        assert np.abs(pairing_identity_residuals(_perturbed(g, 0.0), d)).max() <= PAIRING_TOL
        assert np.abs(pairing_identity_residuals(_perturbed(g, 1e-8), d)).max() > PAIRING_TOL


class TestEquivalence:
    def test_dim_norm_indicator_geometry(self):
        # unit disc: L1 part = area pi, variation = perimeter 2 pi
        g = staircase([(1.0, 1.0)])
        assert bv_dim_norm(g, 2) == pytest.approx(math.pi + 2 * math.pi, rel=1e-10)

    def test_ratio_in_frozen_bracket(self):
        # frozen bracket: the exact reduction gives ratio = omega_{d-1}
        for d in (2, 3):
            g = staircase([(1.0, 1.0), (2.0, -0.3)])
            rep = bv_equivalence_check(g, d)
            assert rep.ratio == pytest.approx(sphere_area(d), rel=1e-10)

    def test_zero_ratio_defined_one(self):
        g = staircase([(1.0, 0.0)])
        rep = bv_equivalence_check(g, 2)
        assert rep.ratio == 1.0

    def test_dilation_invariance(self):
        g = staircase([(0.7, 1.5), (2.0, -0.4)])
        base = bv_equivalence_check(g, 2).ratio
        for lam in (0.25, 1.0, 4.0):
            r = bv_equivalence_check(g.dilated(lam), 2).ratio
            assert abs(r - base) <= 1e-6

    def test_smooth_bump_gradient_reduction(self):
        # smooth parts: d-dim gradient norm equals omega_{d-1} int |g'| t^{d-1}
        g = smooth_bump_bv(2.0, 0.6)
        var_1d = g.derivative.weighted_total_variation(2)
        dim = bv_dim_norm(g, 2)
        l1, _ = scipy_quad(lambda r: abs(g(np.array([r]))[0]) * r, 0.0, 4.0, limit=200)
        assert dim - sphere_area(2) * l1 == pytest.approx(
            sphere_area(2) * var_1d, rel=1e-4)


class TestDecay:
    def test_single_step_exact_equality(self):
        for d in (2, 3):
            g = staircase([(2.0, 1.0)])
            rep = bv_decay_check(g, [2.0], d=d)
            assert abs(rep.lhs[0] - rep.tail_bound[0]) <= 1e-12
            assert rep.lhs[0] == pytest.approx(2.0 ** (d - 1))

    def test_zero_trivially_holds(self):
        g = staircase([(1.0, 0.0)])
        assert bv_decay_check(g, [0.5, 1.0], d=2).holds_with_tail

    @given(seed=st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_random_staircases_inequality_exact(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 11))
        radii = np.sort(rng.uniform(0.05, 9.0, n))
        vals = rng.normal(0.0, 2.0, n)
        g = staircase(list(zip(radii, vals)))
        rep = bv_decay_check(g, radii, d=d)
        assert rep.holds_with_tail

    def test_monotone_tail_equality_for_single_steps(self):
        # for monotone decreasing g vanishing at infinity, equality at steps
        g = staircase([(3.0, 2.0)])
        rep = bv_decay_check(g, [3.0], d=3)
        assert rep.lhs[0] == rep.tail_bound[0]

    def test_eventually_decreasing_tail(self):
        g = staircase([(1.0, 1.0), (2.0, 0.5), (4.0, 0.25)])
        radii = [4.0, 5.0, 8.0]
        vals = [r * abs(g.value_left(r + 1e-9)) for r in radii]
        assert vals[0] >= vals[-1]

    def test_experiment_passes_at_an_equality_roundoff_seed(self, tmp_path):
        # seed 5106: lhs exceeds the tail by 1.78e-15 (1.3e-16 relative) at a
        # staircase's last radius, where the two are equal in exact arithmetic
        res = run_experiment(ExperimentConfig("bv-decay", seed=5106,
                                              output_dir=tmp_path))
        worst = res.assertions[0]
        assert worst.name == "max_rel_violation_all_staircases"
        assert 0.0 < worst.measured <= BV_DECAY_RTOL and res.passed

    def test_experiment_fails_with_the_wrong_weight(self, tmp_path, monkeypatch):
        # mutant: lhs weighted by r^d in place of r^{d-1}
        def weighted_by_r_d(g, radii, d):
            rep = bv_decay_check(g, radii, d=d)
            return dataclasses.replace(rep, lhs=rep.lhs * rep.radii)

        monkeypatch.setattr(experiments, "bv_decay_check", weighted_by_r_d)
        res = run_experiment(ExperimentConfig("bv-decay", seed=5106,
                                              output_dir=tmp_path))
        worst = res.assertions[0]
        assert worst.measured > 1.0 and not worst.passed


class TestNormProperties:
    @given(c=st.floats(0.01, 50), seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, c, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        radii = np.sort(rng.uniform(0.2, 5.0, n))
        vals = rng.normal(0.0, 1.0, n)
        g = staircase(list(zip(radii, vals)))
        gc = staircase(list(zip(radii, c * vals)))
        assert bv_weighted_norm(gc, 2) == pytest.approx(c * bv_weighted_norm(g, 2),
                                                        rel=1e-9)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        radii = np.sort(rng.uniform(0.2, 5.0, 4))
        va = rng.normal(0.0, 1.0, 4)
        vb = rng.normal(0.0, 1.0, 4)
        a = staircase(list(zip(radii, va)))
        b = staircase(list(zip(radii, vb)))
        ab = staircase(list(zip(radii, va + vb)))
        assert bv_weighted_norm(ab, 2) <= (bv_weighted_norm(a, 2)
                                           + bv_weighted_norm(b, 2)) * (1 + 1e-9)


def _scipy_weighted_norm(g, d):
    """The weighted BV norm with every integral by scipy's adaptive quad."""
    def integral(f, a, b):
        return scipy_quad(lambda r: f(np.array([r]))[0], a, b, epsabs=0.0,
                          epsrel=1e-13, limit=400)[0]

    edges = (0.0,) + g.breaks
    total = sum(integral(lambda r: np.abs(g(r)) * r ** (d - 1), a, b)
                for a, b in zip(edges[:-1], edges[1:]))
    nu = g.derivative
    total += sum(loc ** (d - 1) * abs(mass) for loc, mass in nu.atoms)
    if nu.density is not None:
        total += integral(lambda r: np.abs(nu.density(r)) * r ** (d - 1),
                          *nu.density_support)
    return total


class TestQuadrature:
    """The composite Gauss-Legendre rule behind every BV integral."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("lam", [1.0, 0.25, 4.0])
    def test_corpus_matches_scipy_quad(self, d, lam):
        for g in _bv_corpus(np.random.default_rng(0)):
            g = g.dilated(lam)
            assert bv_weighted_norm(g, d) == pytest.approx(
                _scipy_weighted_norm(g, d), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_constant_staircase_pieces_exact(self, d):
        rng = np.random.default_rng(1)
        for _ in range(20):
            radii = np.sort(rng.uniform(0.05, 9.0, int(rng.integers(1, 8))))
            vals = rng.normal(0.0, 2.0, radii.size)
            g = staircase(list(zip(radii, vals)))
            inner = np.concatenate([[0.0], radii[:-1]])
            exact = float(np.sum(np.abs(vals) * (radii ** d - inner ** d)) / d)
            l1, err = quad(lambda r: np.abs(g(r)) * r ** (d - 1), (0.0,) + g.breaks)
            assert l1 == pytest.approx(exact, rel=1e-14, abs=0.0)
            assert err <= 1e-14 * exact

    def test_smooth_bump_estimate_within_tolerance(self):
        for d in (2, 3):
            g = smooth_bump_bv(2.0, 0.6)
            rep = bv_equivalence_check(g, d)
            assert 0.0 < rep.quad_error <= QUAD_RTOL * rep.weighted_norm
            dec = bv_decay_check(g, [1.5, 2.0, 2.5], d=d)
            assert 0.0 < dec.quad_error <= QUAD_RTOL * dec.norm

    def test_jump_inside_a_panel_raises(self):
        step = lambda t: np.where(t < 1.0 / 3.0, 1.0, 2.0)
        with pytest.raises(QuadratureError):
            quad(step, (0.0, 1.0))
        value, _ = quad(step, (0.0, 1.0 / 3.0, 1.0))   # the jump as an edge
        assert value == pytest.approx(5.0 / 3.0, rel=1e-14)
        nu = RadonMeasure1D((), step, (0.1, 1.0))
        with pytest.raises(QuadratureError):
            nu.weighted_total_variation(2)

    def test_endpoint_singularity_raises(self):
        with pytest.raises(QuadratureError):
            quad(lambda t: t ** -0.5, (0.0, 1.0))
        value, _ = quad(lambda t: t ** -0.5, (0.25, 1.0))
        assert value == pytest.approx(1.0, rel=1e-14)
