import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from radialfs.core import Grid1D, ball_volume
from radialfs.covering import AtomSpec
from radialfs.decompose import AtomicDecomposition
from radialfs.errors import ResolutionError
from radialfs.seqspaces import (CoefficientGrid, _logsumexp, seq_norm_bpqd,
                                seq_norm_bspqd, seq_norm_fpqd, seq_norm_fspqd)
from radialfs.spaces import SpaceParams


def from_entries(entries):
    """The grid whose nonzero s_{j,k} are entries[(j, k)]."""
    K = 1 + max((k for _, k in entries), default=-1)
    levels = {}
    for (j, k), v in entries.items():
        levels.setdefault(j, np.zeros(K))[k] = v
    return CoefficientGrid(levels)


def random_grid(seed, J=5, K=15, density=0.5):
    rng = np.random.default_rng(seed)
    c = CoefficientGrid.random(rng, J, K, density)
    if not len(c):
        c = from_entries({(0, 0): 1.0})
    return c


class TestBNorm:
    def test_single_entry_is_one_for_all_params(self):
        c = from_entries({(0, 0): 1.0})
        for params in (SpaceParams(1.0, 2.0, 2.0, 2), SpaceParams(-0.3, 0.5, 4.0, 3),
                       SpaceParams(2.0, 1.0, math.inf, 1)):
            assert seq_norm_bspqd(c, params) == pytest.approx(1.0, rel=1e-14)

    def test_arithmetic_series(self):
        K = 5
        c = from_entries({(0, k): 1.0 for k in range(K)})
        assert seq_norm_bspqd(c, SpaceParams(1.0, 1.0, 2.0, 2)) == pytest.approx(
            K * (K + 1) / 2.0)

    def test_two_level_weight_cancellation(self):
        s, p, d = 1.0, 1.0, 2
        c = from_entries({(j, 0): 2.0 ** (-j * (s - d / p)) for j in (0, 1)})
        assert seq_norm_bspqd(c, SpaceParams(s, p, 1.0, d)) == pytest.approx(2.0)

    def test_plain_b_single_entry(self):
        assert seq_norm_bpqd(from_entries({(0, 0): 1.0}), 2.0, 2.0, 3) == 1.0

    def test_weight_change_of_variables(self):
        # b^s norm of c equals plain b norm of c' with c'_{j,k} = 2^{j(s-d/p)} c_{j,k}
        c = random_grid(1)
        s, p, q, d = 0.7, 1.5, 2.5, 2
        lhs = seq_norm_bspqd(c, SpaceParams(s, p, q, d))
        cp = CoefficientGrid({j: 2.0 ** (j * (s - d / p)) * a
                              for j, a in c.levels.items()})
        assert lhs == pytest.approx(seq_norm_bpqd(cp, p, q, d), rel=1e-12)

    def test_q_infinity_is_level_max(self):
        c = from_entries({(0, 0): 3.0, (1, 0): 5.0})
        val = seq_norm_bpqd(c, 1.0, math.inf, 2)
        assert val == pytest.approx(5.0)

    def test_overflow_control_large_J(self):
        c = from_entries({(j, 0): 1.0 for j in range(0, 3000, 150)})
        v = seq_norm_bspqd(c, SpaceParams(4.0, 0.25, 1.0, 3))
        assert math.isfinite(v) and v > 0


class TestFNorm:
    def test_single_entry_d2_p1(self):
        # inner function is chi on |t| <= 1: 2 int_0^1 t dt = 1
        c = from_entries({(0, 0): 1.0})
        assert seq_norm_fspqd(c, SpaceParams(0.5, 1.0, 2.0, 2)) == pytest.approx(1.0)

    def test_p_equals_q_matches_b(self):
        for seed in range(20):
            c = random_grid(seed, J=6, K=20)
            rng = np.random.default_rng(100 + seed)
            p = float(rng.uniform(0.3, 4.0))
            s = float(rng.uniform(-2.0, 2.0))
            d = int(rng.integers(1, 4))
            params = SpaceParams(s, p, p, d)
            b = seq_norm_bspqd(c, params)
            f = seq_norm_fspqd(c, params)
            assert f == pytest.approx(b, rel=1e-10)

    def test_direct_summation_oracle_p_eq_q_2(self):
        # disjoint annuli per level: norm^2 = sum 2^{2js} s^2 * 2^{-2j}(1+k) at d=2
        c = random_grid(7, J=4, K=12)
        s, d = 0.8, 2
        oracle = math.sqrt(sum(2.0 ** (2 * j * s) * v * v * 2.0 ** (-j * d) * (1 + k)
                               for (j, k), v in c.items()))
        val = seq_norm_fspqd(c, SpaceParams(s, 2.0, 2.0, d))
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_under_resolved_grid_rejected(self):
        c = from_entries({(6, 3): 1.0})
        grid = Grid1D.uniform(0.5, 2.0)
        with pytest.raises(ResolutionError):
            seq_norm_fspqd(c, SpaceParams(1.0, 2.0, 1.0, 2), grid)

    def test_fpqd_single_entry_sqrt_pi(self):
        c = from_entries({(0, 0): 1.0})
        assert seq_norm_fpqd(c, 2.0, 2.0, 2) == pytest.approx(math.sqrt(math.pi))

    def test_fpqd_p_eq_q_is_bpqd_times_ball_volume(self):
        c = random_grid(9, J=4, K=10)
        for d in (2, 3):
            p = 1.7
            f = seq_norm_fpqd(c, p, p, d)
            b = seq_norm_bpqd(c, p, p, d)
            assert f == pytest.approx(ball_volume(d) ** (1 / p) * b, rel=1e-10)

    def test_zero_grid(self):
        assert seq_norm_fpqd(CoefficientGrid({}), 2.0, 2.0, 2) == 0.0

    def test_q_infinity_sup_modification(self):
        c = random_grid(4, J=4, K=8)
        v_inf = seq_norm_fspqd(c, SpaceParams(0.5, 1.5, math.inf, 2))
        v_8 = seq_norm_fspqd(c, SpaceParams(0.5, 1.5, 8.0, 2))
        assert 0 < v_inf <= v_8 * (1 + 1e-12)
        w_inf = seq_norm_fpqd(c, 1.5, math.inf, 2)
        w_8 = seq_norm_fpqd(c, 1.5, 8.0, 2)
        assert 0 < w_inf <= w_8 * (1 + 1e-12)


class TestQuasiNormProperties:
    @given(c_scale=st.floats(0.01, 100), seed=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, c_scale, seed):
        c = random_grid(seed)
        params = SpaceParams(0.6, 1.2, 2.0, 2)
        base = seq_norm_bspqd(c, params)
        assert seq_norm_bspqd(c.scaled(c_scale), params) == pytest.approx(
            c_scale * base, rel=1e-12)

    @given(seed=st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_quasi_triangle(self, seed):
        rng = np.random.default_rng(seed)
        a = CoefficientGrid.random(rng, 4, 10, 0.6)
        b = CoefficientGrid.random(rng, 4, 10, 0.6)
        merged = CoefficientGrid({j: a.levels[j] + b.levels[j] for j in a.levels})
        p, q = 0.7, 0.9
        params = SpaceParams(0.5, p, q, 2)
        const = 2.0 ** max(0.0, 1.0 / min(p, q, 1.0) - 1.0)
        lhs = seq_norm_bspqd(merged, params)
        rhs = const * (seq_norm_bspqd(a, params) + seq_norm_bspqd(b, params))
        assert lhs <= rhs * (1 + 1e-12)

    @given(seed=st.integers(0, 30), q1=st.floats(0.3, 3), dq=st.floats(0.01, 5))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_q(self, seed, q1, dq):
        c = random_grid(seed)
        lo = seq_norm_bspqd(c, SpaceParams(0.5, 1.5, q1, 2))
        hi = seq_norm_bspqd(c, SpaceParams(0.5, 1.5, q1 + dq, 2))
        assert hi <= lo * (1 + 1e-12)

    @given(seed=st.integers(0, 30), J0=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_level_truncation_never_increases(self, seed, J0):
        c = random_grid(seed)
        params = SpaceParams(0.5, 1.5, 2.0, 2)
        assert seq_norm_bspqd(c.truncated(J0), params) <= \
            seq_norm_bspqd(c, params) * (1 + 1e-12)


class TestBruteForceOracle:
    @given(seed=st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_b_norm_matches_direct_formula(self, seed):
        # independent route: the displayed formula computed directly in
        # linear space (valid for moderate exponents), vs the log-space path
        c = random_grid(seed, J=5, K=12)
        rng = np.random.default_rng(1000 + seed)
        s_par = float(rng.uniform(-1.5, 1.5))
        p = float(rng.uniform(0.4, 3.0))
        q = float(rng.uniform(0.4, 3.0))
        d = int(rng.integers(1, 4))
        params = SpaceParams(s_par, p, q, d)
        inner = {}
        for (j, k), v in c.items():
            inner[j] = inner.get(j, 0.0) + (1 + k) ** (d - 1) * abs(v) ** p
        direct = sum(2.0 ** (j * (s_par - d / p) * q) * val ** (q / p)
                     for j, val in inner.items()) ** (1.0 / q)
        assert seq_norm_bspqd(c, params) == pytest.approx(direct, rel=1e-11)

    def test_fpqd_resolution_check(self):
        from radialfs.errors import ResolutionError
        c = from_entries({(6, 3): 1.0})
        with pytest.raises(ResolutionError):
            seq_norm_fpqd(c, 2.0, 2.0, 2, Grid1D.uniform(0.5, 2.0))


def dense_f_reference(c, level_log_weight, p, q, d, mass_log_extra):
    """f-type norm with every elementary interval tested against every entry."""
    ent = [(j, k, abs(v)) for (j, k), v in c.items()]
    los = np.array([2.0 ** -j * k for j, k, _ in ent])
    his = np.array([2.0 ** -j * (k + 1) for j, k, _ in ent])
    # level weight times the mass-normalized coefficient, in log space
    log_coef = np.array([
        level_log_weight(j) + math.log(a)
        + ((d - 1) * math.log1p(k) - math.log((2.0 / d) * ((k + 1.0) ** d - k ** d))) / p
        for j, k, a in ent])
    bps = np.unique(np.concatenate([los, his]))
    mids = 0.5 * (bps[:-1] + bps[1:])
    member = (mids[:, None] >= los[None, :]) & (mids[:, None] <= his[None, :])
    piece = np.where(member, log_coef[None, :], -np.inf)
    if math.isinf(q):
        inner = piece.max(axis=1)
    else:
        inner = logsumexp(q * piece, axis=1) / q
    keep = inner > -np.inf
    log_mass = np.log(2.0 / d) + np.log(bps[1:] ** d - bps[:-1] ** d) + mass_log_extra
    return math.exp(logsumexp(p * inner[keep] + log_mass[keep]) / p)


class TestDenseMembershipReference:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p, q", [(1.5, 0.7), (0.8, 2.5), (2.0, math.inf)])
    def test_f_norms_match_dense_reference(self, seed, d, p, q):
        c = random_grid(seed, J=6, K=20)
        s = 0.7
        f = seq_norm_fspqd(c, SpaceParams(s, p, q, d))
        ref = dense_f_reference(c, lambda j: j * s * math.log(2.0), p, q, d, 0.0)
        assert f == pytest.approx(ref, rel=1e-13, abs=0.0)
        f = seq_norm_fpqd(c, p, q, d)
        ref = dense_f_reference(c, lambda j: j * (d / p) * math.log(2.0), p, q, d,
                                math.log(ball_volume(d)))
        assert f == pytest.approx(ref, rel=1e-13, abs=0.0)


def float_bits(x):
    return [v.hex() for v in np.atleast_1d(np.asarray(x, dtype=float)).tolist()]


class TestLogSumExp:
    """The private log-sum-exp against scipy's, float for float."""

    ROWS = {
        "single": [[0.37]],
        "ties-at-max": [[2.5, -1.0, 2.5, 0.25, 2.5], [1.0, 1.0, 1.0, 1.0, 1.0]],
        "some-minus-inf": [[-np.inf, 3.0, -np.inf, -7.5, 2.999],
                           [-np.inf, -np.inf, -np.inf, -np.inf, -1e300]],
        "all-minus-inf": [[-np.inf, -np.inf, -np.inf], [-np.inf, 0.5, -np.inf],
                          [-np.inf, -np.inf, -np.inf]],
        "near-1e308": [[1.7e308, 1.7e308, 1.0e308, -1.7e308],
                       [1.79e308, 1.2e308, 1.5e308, 9e307]],
    }

    # scipy warns when -1.7e308 - 1.7e308 overflows to -inf; the values agree
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_matches_scipy_bit_for_bit(self, name):
        rows = np.array(self.ROWS[name], dtype=float)
        for row in rows:
            assert float_bits(_logsumexp(row)) == float_bits(logsumexp(row))
            assert float_bits(_logsumexp(list(row))) == float_bits(logsumexp(list(row)))
        got = _logsumexp(rows, axis=1)
        assert got.shape == (rows.shape[0],)
        assert float_bits(got) == float_bits(logsumexp(rows, axis=1))

    def test_matches_scipy_on_random_rows(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 40):
            rows = rng.standard_normal((6, n)) * 10.0 ** rng.uniform(-3, 3, (6, 1))
            rows[rng.random(rows.shape) < 0.3] = -np.inf
            rows[1] = np.round(rows[1])
            for row in rows:
                assert float_bits(_logsumexp(row)) == float_bits(logsumexp(row))
            assert float_bits(_logsumexp(rows, axis=1)) == float_bits(
                logsumexp(rows, axis=1))


class TestCsv:
    def test_roundtrip(self, tmp_path):
        c = random_grid(3)
        path = tmp_path / "c.csv"
        c.to_csv(path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["j", "k", "value"]
        assert [((int(j), int(k)), float(v)) for j, k, v in rows] == list(c.items())

    def test_random_draws_and_csv_bytes(self, tmp_path):
        # random draws the mask, then the values, and keeps the nonzero ones
        rng, direct = np.random.default_rng(12), np.random.default_rng(12)
        c = CoefficientGrid.random(rng, 3, 7, density=0.4)
        mask = direct.random((4, 8)) < 0.4
        vals = direct.standard_normal((4, 8))
        assert rng.bit_generator.state == direct.bit_generator.state
        assert list(c.items()) == [((int(j), int(k)), float(vals[j, k]))
                                   for j, k in zip(*np.nonzero(mask))]
        assert len(c) == int(mask.sum())
        # rows in ascending (j, k) whatever the level order; zeros left out
        c = CoefficientGrid({2: np.array([0.0, -1e-300, 0.0, 2.5]),
                             1: np.zeros(3),
                             0: np.array([0.1, 0.0, 1.0 / 3.0])})
        c.to_csv(tmp_path / "c.csv")
        rows = b"0,0,0.1\n0,2,0.3333333333333333\n2,1,-1e-300\n2,3,2.5\n"
        assert (tmp_path / "c.csv").read_bytes() == b"j,k,value\n" + rows
        dec = AtomicDecomposition(c, AtomSpec(2, -1, 1.0, 2.0), 2,
                                  Grid1D.uniform(0.25, 1.0), residual_norm=0.0,
                                  residual_history=[0.0])
        dec.to_csv(tmp_path / "dec.csv")
        assert (tmp_path / "dec.csv").read_bytes() == (
            b"# template=bump L=2 M=-1 s=1.0 p=2.0 J=2\nj,k,coefficient\n" + rows)
