import dataclasses
import math
from typing import Callable, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from radialfs import experiments
from radialfs.bump import smoothstep
from radialfs.bv import BVProfile, RadonMeasure1D, bv_decay_check, staircase
from radialfs.errors import DivergenceError, InvalidParameterError
from radialfs.experiments import BV_DECAY_RTOL, ExperimentConfig, run_experiment


class TestWeightedNorm:
    def test_atom_locations_validated(self):
        with pytest.raises(InvalidParameterError):
            RadonMeasure1D(((0.0, 1.0),))
        with pytest.raises(InvalidParameterError):
            RadonMeasure1D(((2.0, 1.0), (1.0, 1.0)))
        # |mass| is summed per atom, so two atoms at one radius overstate
        # the variation whenever their masses differ in sign
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            RadonMeasure1D(((1.0, 1.0), (1.0, -2.0)))

    @pytest.mark.parametrize("atoms", [((math.nan, 1.0), (1.0, math.nan)),
                                       ((1.0, math.inf),), ((math.inf, 1.0),),
                                       ((1.0, -math.inf),)])
    def test_non_finite_atoms_refused(self, atoms):
        # a NaN location passed both the positivity and the order check, and
        # _tail(0, 2) read nan; an infinite mass made it inf
        with pytest.raises(InvalidParameterError, match="finite"):
            RadonMeasure1D(atoms)

    def test_repeated_step_radius_refused(self):
        # 1 on [0, 1) and 0 after, variation 1: atoms (1, 1) and (1, -2)
        # gave bv_decay_check a tail bound of 3.0 against 1.0
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            staircase([(1.0, 1.0), (1.0, 2.0)])
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            staircase([(0.5, 1.0), (2.0, 3.0), (2.0, -1.0)])

    @pytest.mark.parametrize("steps", [[(math.nan, 1.0)], [(1.0, math.nan)],
                                       [(1.0, 1.0), (math.inf, 2.0)],
                                       [(1.0, -math.inf)]],
                             ids=["nan-radius", "nan-value", "inf-radius",
                                  "inf-value"])
    def test_staircase_steps_must_be_finite(self, steps):
        # a NaN radius passed the sorted and positive checks
        with pytest.raises(InvalidParameterError, match="finite"):
            staircase(steps)


@pytest.mark.parametrize("d", [2.5, 2.0, True, math.nan, 0])
@pytest.mark.parametrize("call", [lambda g, d: bv_decay_check(g, [1.0], d=d)],
                         ids=["bv_decay_check"])
def test_every_bv_function_checks_d(call, d):
    # bv_decay_check(d=2.5) used to return a report
    g = staircase([(1.0, 1.0)])
    call(g, 2)
    call(g, np.int64(3))
    with pytest.raises(InvalidParameterError, match="d must be an integer >= 1"):
        call(g, d)


def _smoothstep_prime(u: np.ndarray) -> np.ndarray:
    """smoothstep'(u) = a c (u^-2 + (1-u)^-2) / (a + c)^2, a = e^{-1/u},
    c = e^{-1/(1-u)}; 0 off (0, 1).  a / u / u stays finite as u -> 0+."""
    out = np.zeros_like(u)
    inner = (u > 0.0) & (u < 1.0)
    ui = u[inner]
    a, c = np.exp(-1.0 / ui), np.exp(-1.0 / (1.0 - ui))
    out[inner] = (c * (a / ui / ui) + a * (c / (1.0 - ui) / (1.0 - ui))) / (a + c) ** 2
    return out


def _test_functions_c1c() -> List[Tuple[Callable, Callable, float]]:
    """Twelve C^1_c([0, inf)) test functions phi with phi(0) = 0, and phi'.

    Each is t^m * smoothstep((b - t) / (b/2)), m = 1..4, b in {1, 2, 4};
    returned as (phi, phi', outer support radius b), phi' in closed form.
    """
    out = []
    for m in range(1, 5):
        for b in (1.0, 2.0, 4.0):
            def phi(t, m=m, b=b):
                t = np.asarray(t, float)
                return t ** m * smoothstep((b - t) / (0.5 * b))

            def dphi(t, m=m, b=b):
                t = np.asarray(t, float)
                u = (b - t) / (0.5 * b)
                return (m * t ** (m - 1) * smoothstep(u)
                        - t ** m * _smoothstep_prime(u) * (2.0 / b))

            out.append((phi, dphi, b))
    return out


def pairing_identity_residuals(g: BVProfile, d: int) -> np.ndarray:
    """Residuals of int g(t) [phi(s) s^{d-1}]'(t) dt = -int phi t^{d-1} dnu.

    Evaluated against the fixed family of 12 C^1_c test functions, with
    their derivatives in closed form, and the left side by scipy's adaptive
    quad between the jumps; for a valid (profile, measure) pair the
    residuals are quadrature error.
    """
    res = []
    atol = 1e-3 * (1.0 + g.derivative._tail(0.0, d))
    locs, masses = np.array(g.derivative.atoms, dtype=float).reshape(-1, 2).T
    for phi, dphi, b in _test_functions_c1c():
        f = lambda t: float(g(np.array([t]))[0] * (dphi(t) * t ** (d - 1)
                                                   + phi(t) * (d - 1) * t ** (d - 2)))
        edges = (0.0, *(br for br in g.breaks if br < b), b)
        lhs = sum(quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
                  for lo, hi in zip(edges[:-1], edges[1:]))
        rhs = -float(np.sum(phi(locs) * locs ** (d - 1) * masses))
        scale = max(abs(lhs), abs(rhs), atol)
        res.append((lhs - rhs) / scale)
    return np.array(res)


# The test functions' derivatives are exact, so the residuals are quadrature
# error: at most 1.5e-14 on these staircases.
PAIRING_TOL = 1e-11


def _perturbed(g, rel):
    """g with every mass of its derivative measure scaled by 1 + rel."""
    atoms = tuple((loc, (1.0 + rel) * mass) for loc, mass in g.derivative.atoms)
    return dataclasses.replace(g, derivative=RadonMeasure1D(atoms))


class TestPairingIdentity:
    def test_staircases(self):
        for steps in ([(1.0, 1.0)], [(0.5, 2.0), (1.5, -1.0), (3.0, 0.5)]):
            g = staircase(steps)
            assert np.abs(pairing_identity_residuals(g, 2)).max() <= PAIRING_TOL

    @pytest.mark.parametrize("g, d", [
        (staircase([(0.5, 2.0), (1.5, -1.0), (3.0, 0.5)]), 2)], ids=["staircase"])
    def test_mass_off_by_1e8_fails(self, g, d):
        # negative control: a measure whose masses are 1e-8 too large no
        # longer pairs with g, which the bound must see
        assert np.abs(pairing_identity_residuals(_perturbed(g, 0.0), d)).max() <= PAIRING_TOL
        assert np.abs(pairing_identity_residuals(_perturbed(g, 1e-8), d)).max() > PAIRING_TOL


def holds_with_tail(rep) -> bool:
    """r^{d-1} |g(r)| <= integral_r^inf t^{d-1} d|nu| at every radius, to
    1e-12 relative."""
    return bool(np.all(rep.lhs <= rep.tail_bound * (1.0 + 1e-12)))


class TestDecay:
    def test_single_step_exact_equality(self):
        for d in (2, 3):
            g = staircase([(2.0, 1.0)])
            rep = bv_decay_check(g, [2.0], d=d)
            assert abs(rep.lhs[0] - rep.tail_bound[0]) <= 1e-12
            assert rep.lhs[0] == pytest.approx(2.0 ** (d - 1))

    def test_zero_trivially_holds(self):
        g = staircase([(1.0, 0.0)])
        assert holds_with_tail(bv_decay_check(g, [0.5, 1.0], d=2))

    @given(seed=st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_random_staircases_inequality_exact(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 11))
        radii = np.sort(rng.uniform(0.05, 9.0, n))
        vals = rng.normal(0.0, 2.0, n)
        g = staircase(list(zip(radii, vals)))
        assert holds_with_tail(bv_decay_check(g, radii, d=d))

    def test_monotone_tail_equality_for_single_steps(self):
        # for monotone decreasing g vanishing at infinity, equality at steps
        g = staircase([(3.0, 2.0)])
        rep = bv_decay_check(g, [3.0], d=3)
        assert rep.lhs[0] == rep.tail_bound[0]

    def test_profile_not_vanishing_at_infinity_raises(self):
        one = lambda r: np.ones_like(np.asarray(r, float))
        g = BVProfile((1.0,), (one, one), RadonMeasure1D())
        with pytest.raises(DivergenceError):
            bv_decay_check(g, [0.5], d=2)

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
    """Both sides of the decay bound are seminorms of the staircase: the
    tail variation integral_r^inf t^{d-1} d|nu| and r^{d-1} |g(r)|."""

    @given(c=st.floats(0.01, 50), seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, c, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        radii = np.sort(rng.uniform(0.2, 5.0, n))
        vals = rng.normal(0.0, 1.0, n)
        rep = bv_decay_check(staircase(list(zip(radii, vals))), radii, d=2)
        rep_c = bv_decay_check(staircase(list(zip(radii, c * vals))), radii, d=2)
        np.testing.assert_allclose(rep_c.tail_bound, c * rep.tail_bound, rtol=1e-9)
        np.testing.assert_allclose(rep_c.lhs, c * rep.lhs, rtol=1e-9)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        radii = np.sort(rng.uniform(0.2, 5.0, 4))
        va = rng.normal(0.0, 1.0, 4)
        vb = rng.normal(0.0, 1.0, 4)
        a, b, ab = (bv_decay_check(staircase(list(zip(radii, v))), radii, d=2)
                    for v in (va, vb, va + vb))
        assert np.all(ab.tail_bound <= (a.tail_bound + b.tail_bound) * (1 + 1e-9))
        assert np.all(ab.lhs <= (a.lhs + b.lhs) * (1 + 1e-9))
