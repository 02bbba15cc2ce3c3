import dataclasses
import math
from typing import Callable, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as scipy_quad

from radialfs import experiments
from radialfs.bump import smoothstep
from radialfs.bv import (QUAD_RTOL, BVProfile, RadonMeasure1D, bv_decay_check,
                         bv_dim_norm, bv_weighted_norm, quad, staircase)
from radialfs.core import sphere_area
from radialfs.errors import (DivergenceError, InvalidParameterError,
                             QuadratureError)
from radialfs.experiments import BV_DECAY_RTOL, ExperimentConfig, run_experiment


def smooth_bump_bv(center: float, width: float, height: float = 1.0) -> BVProfile:
    """A C^1 bump profile as a BVProfile (no jumps; density derivative)."""
    if center - width <= 0:
        raise InvalidParameterError("bump must stay inside R^+")

    def val(r):
        u = (np.asarray(r, float) - center) / width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out

    def dens(r):
        r = np.asarray(r, float)
        u = (r - center) / width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = (height * np.exp(1.0 - 1.0 / (1.0 - ui ** 2))
                       * (-2.0 * ui / (1.0 - ui ** 2) ** 2) / width)
        return out

    support = (center - width, center + width)
    return BVProfile((center + width,), (val, lambda r: np.zeros_like(np.asarray(r, float))),
                     RadonMeasure1D((), dens, support))


def dilated(g: BVProfile, lam: float) -> BVProfile:
    """g(./lam) with the derivative measure transported accordingly."""
    atoms = tuple((loc * lam, mass) for loc, mass in g.derivative.atoms)
    if g.derivative.density is None:
        dens, supp = None, (0.0, 0.0)
    else:
        base = g.derivative.density
        dens = lambda r: base(np.asarray(r) / lam) / lam
        supp = (g.derivative.density_support[0] * lam,
                g.derivative.density_support[1] * lam)
    pieces = tuple((lambda p: (lambda r: p(np.asarray(r) / lam)))(p)
                   for p in g.pieces)
    return BVProfile(tuple(b * lam for b in g.breaks), pieces,
                     RadonMeasure1D(atoms, dens, supp))


def bv_corpus(rng):
    """Eight seeded staircases of 1-7 steps on [0.2, 6] and two smooth bumps."""
    corpus = []
    for _ in range(8):
        n = int(rng.integers(1, 8))
        radii = np.sort(rng.uniform(0.2, 6.0, n))
        vals = rng.normal(0.0, 1.5, n)
        corpus.append(staircase(list(zip(radii, vals))))
    corpus.append(smooth_bump_bv(2.0, 0.7))
    corpus.append(smooth_bump_bv(4.0, 1.2, height=-2.0))
    return corpus


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

    @pytest.mark.parametrize("support", [(math.nan, 2.0), (0.5, math.nan),
                                         (0.5, math.inf), (2.0, 1.0)])
    def test_density_support_must_be_a_finite_interval(self, support):
        # a density of 1 on (nan, 2) was dropped: _tail(0, 2) read 0.0
        one = lambda t: np.ones_like(np.asarray(t, float))
        with pytest.raises(InvalidParameterError, match="finite support"):
            RadonMeasure1D((), one, support)

    def test_support_without_a_density_is_not_read(self):
        assert RadonMeasure1D(((1.0, 2.0),), None, (math.nan, 2.0))._tail(0.0, 2) == 2.0

    def test_repeated_step_radius_refused(self):
        # 1 on [0, 1) and 0 after, variation 1: atoms (1, 1) and (1, -2)
        # gave bv_weighted_norm(d=2) 3.5 against 1.5 for staircase([(1, 1)]),
        # and bv_decay_check a tail bound of 3.0 against 1.0
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
@pytest.mark.parametrize("call", [
    lambda g, d: bv_weighted_norm(g, d), lambda g, d: bv_dim_norm(g, d),
    lambda g, d: bv_decay_check(g, [1.0], d=d)],
    ids=["bv_weighted_norm", "bv_dim_norm", "bv_decay_check"])
def test_every_bv_function_checks_d(call, d):
    # bv_decay_check(d=2.5) used to return a report, and bv_weighted_norm
    # ran d = 2.0
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
    their derivatives in closed form; for a valid (profile, measure) pair the
    residuals are quadrature error, below 1e-12 relative on the staircases
    and smooth bumps of the tests.
    """
    res = []
    atol = 1e-3 * (1.0 + bv_weighted_norm(g, d))
    locs, masses = np.array(g.derivative.atoms, dtype=float).reshape(-1, 2).T
    for phi, dphi, b in _test_functions_c1c():
        lhs, _ = quad(lambda t: g(t) * (dphi(t) * t ** (d - 1)
                                        + phi(t) * (d - 1) * t ** (d - 2)),
                      (0.0, *(br for br in g.breaks if br < b), b))
        rhs = -float(np.sum(phi(locs) * locs ** (d - 1) * masses))
        if g.derivative.density is not None:
            a0, b0 = g.derivative.density_support
            val, _ = quad(lambda t: phi(t) * t ** (d - 1) * g.derivative.density(t),
                          (a0, min(b0, b)))
            rhs -= val
        scale = max(abs(lhs), abs(rhs), atol)
        res.append((lhs - rhs) / scale)
    return np.array(res)


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

    def test_smooth_bump_gradient_reduction(self):
        # smooth parts: d-dim gradient norm equals omega_{d-1} int |g'| t^{d-1}
        g = smooth_bump_bv(2.0, 0.6)
        var_1d = g.derivative._tail(0.0, 2)
        dim = bv_dim_norm(g, 2)
        l1, _ = scipy_quad(lambda r: abs(g(np.array([r]))[0]) * r, 0.0, 4.0, limit=200)
        assert dim - sphere_area(2) * l1 == pytest.approx(
            sphere_area(2) * var_1d, rel=1e-4)


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
        for g in bv_corpus(np.random.default_rng(0)):
            g = dilated(g, lam)
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
        # the bump's two integrals: its L1 part and its variation density
        g = smooth_bump_bv(2.0, 0.6)
        nu = g.derivative
        for d in (2, 3):
            for f, edges in (
                    (lambda r: np.abs(g(r)) * r ** (d - 1), (0.0,) + g.breaks),
                    (lambda r: np.abs(nu.density(r)) * r ** (d - 1),
                     nu.density_support)):
                value, err = quad(f, edges)
                assert 0.0 < err <= QUAD_RTOL * value

    def test_jump_inside_a_panel_raises(self):
        step = lambda t: np.where(t < 1.0 / 3.0, 1.0, 2.0)
        with pytest.raises(QuadratureError):
            quad(step, (0.0, 1.0))
        value, _ = quad(step, (0.0, 1.0 / 3.0, 1.0))   # the jump as an edge
        assert value == pytest.approx(5.0 / 3.0, rel=1e-14)
        nu = RadonMeasure1D((), step, (0.1, 1.0))
        with pytest.raises(QuadratureError):
            nu._tail(0.0, 2)

    def test_endpoint_singularity_raises(self):
        with pytest.raises(QuadratureError):
            quad(lambda t: t ** -0.5, (0.0, 1.0))
        value, _ = quad(lambda t: t ** -0.5, (0.25, 1.0))
        assert value == pytest.approx(1.0, rel=1e-14)
