import math

import numpy as np
import pytest

from radialfs.errors import InvalidParameterError, QuadratureError
from radialfs import wavelets
from radialfs.wavelets import (_BLOCK, _gauss_legendre, _generators,
                               _level_coeffs, _sphere_nodes, daubechies_filter,
                               spherical_mean_wavelet_coeffs, wavelet_table)


class TestWaveletTable:
    @pytest.mark.parametrize("name", ["db2", "db4", "db6"])
    def test_filter_orthonormality_conditions(self, name):
        h = daubechies_filter(name)
        assert h.sum() == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert np.sum(h * h) == pytest.approx(1.0, abs=1e-10)
        for k in range(1, h.size // 2):
            assert np.sum(h[2 * k:] * h[:-2 * k]) == pytest.approx(0.0, abs=1e-10)

    def test_scaling_function_partition(self):
        t = wavelet_table("db4")
        assert np.trapezoid(t.phi, t.grid) == pytest.approx(1.0, abs=1e-8)
        assert np.trapezoid(t.phi ** 2, t.grid) == pytest.approx(1.0, abs=1e-8)

    def test_psi_vanishing_moments(self):
        # db4 carries four vanishing moments; check the first two numerically
        t = wavelet_table("db4")
        for k in (0, 1):
            m = np.trapezoid(t.psi * t.grid ** k, t.grid)
            assert abs(m) <= 1e-8

    def test_orthogonality_of_shifts(self):
        t = wavelet_table("db4")
        sh = int(round(1.0 / t.step))
        inner = np.trapezoid(t.phi[:-sh] * t.phi[sh:], t.grid[:-sh])
        assert abs(inner) <= 1e-8

    @pytest.mark.parametrize("name", ["db2", "db4", "db6"])
    def test_shift_rows_match_eval(self, name):
        # row r, shift o holds phi and psi at hi - 1 + r step - o
        t = wavelet_table(name)
        lo, hi = t.support
        width = int(hi - lo) + 1
        assert t.shifts.shape == (2 ** 10 + 1, 2, width)
        x = hi - 1 + np.arange(2 ** 10 + 1)[:, None] * t.step - np.arange(width)
        for c, f in enumerate((t.eval_phi, t.eval_psi)):
            ref = f(x)
            assert np.max(np.abs(t.shifts[:, c] - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_unknown_filter(self):
        with pytest.raises(InvalidParameterError):
            daubechies_filter("haarish")


def _level_coeffs_reference(table, d, j, n_nodes):
    """<surface measure, Psi_{i,j,k}> by a direct loop over the nodes, each
    node adding to the whole k-box of every generator."""
    pts, w = _sphere_nodes(d, n_nodes)
    u = pts * 2.0 ** j
    lo, hi = table.support
    ks = [np.arange(math.floor(u[:, ax].min() - hi),
                    math.ceil(u[:, ax].max() - lo) + 1) for ax in range(d)]
    blocks = []
    for flags in _generators(d):
        acc = np.zeros(tuple(k.size for k in ks))
        for node, weight in zip(u, w):
            term = np.array(weight * 2.0 ** (j * d / 2.0))
            for ax in range(d):
                f = table.eval_psi if flags[ax] else table.eval_phi
                term = np.multiply.outer(term, f(node[ax] - ks[ax]))
            acc += term
        blocks.append(acc.ravel())
    return np.concatenate(blocks)


def _assert_matches_reference(d, name, j, n):
    table = wavelet_table(name)
    got = _level_coeffs(table, d, j, n)
    ref = _level_coeffs_reference(table, d, j, n)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestLevelCoeffs:
    @pytest.mark.parametrize("d,name", [(2, "db4"), (3, "db2")])
    @pytest.mark.parametrize("j", [0, 2])
    def test_matches_direct_sum(self, d, name, j):
        _assert_matches_reference(d, name, j, 200)

    @pytest.mark.parametrize("d,name,j,n,block", [
        (2, "db4", 2, 3 * _BLOCK + 37, _BLOCK),   # three full arcs and a part
        (3, "db2", 3, 200, _BLOCK),
        (3, "db2", 2, 200, 7),                     # rings of 20 in arcs 7, 7, 6
        (3, "db2", 1, 242, _BLOCK),                # n_u = 11: the equator pairs itself
        (3, "db4", 2, 242, 5),                     # rings of 22 in arcs 5, 5, 5, 5, 2
    ])
    def test_arcs_match_direct_sum(self, monkeypatch, d, name, j, n, block):
        monkeypatch.setattr(wavelets, "_BLOCK", block)
        _assert_matches_reference(d, name, j, n)

    @pytest.mark.parametrize("n", [1, 2, 8, 11, 63, 252, 400])
    def test_gauss_legendre_is_leggauss_and_symmetric(self, n):
        u, wu = _gauss_legendre(n)
        ref_u, ref_wu = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(u, ref_u) and np.array_equal(wu, ref_wu)
        assert not (u.flags.writeable or wu.flags.writeable)
        # the mirrored latitudes z = +-u share their rings bit for bit
        assert np.array_equal(u, -u[::-1]) and np.array_equal(wu, wu[::-1])

    def test_sphere_rule_integrates_area(self):
        pts, w = _sphere_nodes(3, 800)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-14)
        assert w.sum() == pytest.approx(4.0 * math.pi, rel=1e-13)
        # the cached Gauss-Legendre rule is shared, so it must be read-only
        u, wu = _gauss_legendre(20)
        assert not u.flags.writeable and not wu.flags.writeable


@pytest.fixture(scope="module")
def result():
    return spherical_mean_wavelet_coeffs(d=2, p=1.0, Jmax=4, wavelet="db4",
                                         nodes_per_unit=1500,
                                         richardson_tol=1e-5)


class TestSphericalMean:

    def test_count_growth(self, result):
        # cardinality of wavelets meeting the circle grows like 2^{j(d-1)}
        norm = result.counts / 2.0 ** result.levels
        assert norm.max() / norm.min() <= 2.0

    def test_coefficient_magnitude_bound(self, result):
        # |<f, Psi_{i,j,k}>| <= C 2^{jd/2} 2^{-j(d-1)}; C from the support
        # size: sup|Psi| times the arc length through one support box
        table = wavelet_table("db4")
        sup_psi = (max(np.abs(table.psi).max(), np.abs(table.phi).max())) ** 2
        width = table.support[1] - table.support[0]
        C = sup_psi * math.pi * width
        j = 4
        d = 2
        assert result.max_coeff[j] <= C * 2.0 ** (j * d / 2) * 2.0 ** (-j * (d - 1))

    def test_scaled_sums_bounded(self, result):
        assert result.boundedness_ratio() <= 3.0

    def test_quadrature_estimates_reported(self, result):
        assert np.all(result.quad_error <= 1e-5)

    def test_richardson_failure_raises(self):
        with pytest.raises(QuadratureError):
            spherical_mean_wavelet_coeffs(d=2, p=1.0, Jmax=1, wavelet="db4",
                                          nodes_per_unit=96,
                                          richardson_tol=1e-12)

    def test_d3_runs_and_counts_scale(self):
        # low-regularity integrand: the product sphere rule converges slowly,
        # so this smoke test runs at a percent-level Richardson tolerance
        res = spherical_mean_wavelet_coeffs(d=3, p=1.0, Jmax=2, wavelet="db2",
                                            nodes_per_unit=20000,
                                            richardson_tol=5e-2)
        norm = res.counts / 4.0 ** res.levels
        assert norm.max() / norm.min() <= 4.0
        assert math.isfinite(res.boundedness_ratio())

    def test_invalid_dimension(self):
        with pytest.raises(InvalidParameterError):
            spherical_mean_wavelet_coeffs(d=4)
