import itertools
import math

import numpy as np
import pytest

from radialfs.errors import InvalidParameterError, QuadratureError
from radialfs import wavelets
from radialfs.wavelets import (_BATCH_FLOATS, _BLOCK, _cascade, _gauss_legendre,
                               _level_coeffs, _sphere_rings,
                               daubechies_filter, spherical_mean_wavelet_coeffs,
                               wavelet_table)


def eval_phi(cascade, x):
    """phi of ``cascade`` (grid, phi, psi) at x by linear interpolation, 0
    off its support."""
    grid, phi, _ = cascade
    return np.interp(x, grid, phi, left=0.0, right=0.0)


def eval_psi(cascade, x):
    """psi of ``cascade`` (grid, phi, psi) at x by linear interpolation, 0
    off its support."""
    grid, _, psi = cascade
    return np.interp(x, grid, psi, left=0.0, right=0.0)


def _generators(d):
    """Per-axis psi flags for the 2^d - 1 tensor generators (all-phi excluded)."""
    return [tuple(bool((i >> axis) & 1) for axis in range(d)) for i in range(1, 2 ** d)]


def _sphere_nodes(d, n):
    """The unfolded product rule as ring-major (nodes, d) points and their
    weights: the rings of ``_sphere_rings``, each with every trapezoid angle
    2 pi (i + 1/2) / n_t."""
    z, radius, weight, _ = _sphere_rings(d, n)
    n_t = wavelets._ring_length(d, n)
    theta = 2.0 * math.pi * (np.arange(n_t) + 0.5) / n_t
    pts = np.empty((radius.size, n_t, d))
    pts[..., 0] = np.multiply.outer(radius, np.cos(theta))
    pts[..., 1] = np.multiply.outer(radius, np.sin(theta))
    if d == 3:
        pts[..., 2] = z[:, None]
    return pts.reshape(-1, d), np.repeat(weight, n_t)


def _images(d, n):
    """The node sets of ``_sphere_rings`` expanded into every image, the
    swapped ones included: the trapezoid index each image lands on, and its
    cos and sin."""
    n_t = wavelets._ring_length(d, n)
    index, cos, sin = [], [], []
    for c, s, (x_signs, y_signs), swap in _sphere_rings(d, n)[3]:
        points = [(c, s), (s, c)] if swap else [(c, s)]
        for (u, v), sx, sy in itertools.product(points, x_signs, y_signs):
            theta = np.arctan2(sy * v, sx * u) % (2.0 * math.pi)
            index.append(np.rint(theta * n_t / (2.0 * math.pi) - 0.5).astype(int) % n_t)
            cos.append(sx * u)
            sin.append(sy * v)
    return np.concatenate(index), np.concatenate(cos), np.concatenate(sin)


class TestWaveletTable:
    @pytest.mark.parametrize("name", ["db2", "db4", "db6"])
    def test_filter_orthonormality_conditions(self, name):
        h = daubechies_filter(name)
        assert h.sum() == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert np.sum(h * h) == pytest.approx(1.0, abs=1e-10)
        for k in range(1, h.size // 2):
            assert np.sum(h[2 * k:] * h[:-2 * k]) == pytest.approx(0.0, abs=1e-10)

    def test_scaling_function_partition(self):
        grid, phi, _ = _cascade("db4")
        assert np.trapezoid(phi, grid) == pytest.approx(1.0, abs=1e-8)
        assert np.trapezoid(phi ** 2, grid) == pytest.approx(1.0, abs=1e-8)

    def test_psi_vanishing_moments(self):
        # db4 carries four vanishing moments; check the first two numerically
        grid, _, psi = _cascade("db4")
        for k in (0, 1):
            m = np.trapezoid(psi * grid ** k, grid)
            assert abs(m) <= 1e-8

    def test_orthogonality_of_shifts(self):
        grid, phi, _ = _cascade("db4")
        sh = int(round(1.0 / (grid[1] - grid[0])))
        inner = np.trapezoid(phi[:-sh] * phi[sh:], grid[:-sh])
        assert abs(inner) <= 1e-8

    @pytest.mark.parametrize("name", ["db2", "db4", "db6"])
    def test_shift_rows_match_eval(self, name):
        # row r, shift o holds phi and psi at hi - 1 + r step - o
        t = wavelet_table(name)
        lo, hi = t.support
        width = int(hi - lo) + 1
        assert t.shifts.shape == (2 ** 10 + 1, 2, width)
        step = t.grid[1] - t.grid[0]
        x = hi - 1 + np.arange(2 ** 10 + 1)[:, None] * step - np.arange(width)
        for c, f in enumerate((eval_phi, eval_psi)):
            ref = f(_cascade(name), x)
            assert np.max(np.abs(t.shifts[:, c] - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_unknown_filter(self):
        with pytest.raises(InvalidParameterError):
            daubechies_filter("haarish")


def _level_coeffs_reference(name, d, j, n_nodes):
    """<surface measure, Psi_{i,j,k}> by a direct sum over the nodes, each
    node adding to the whole k-box of every generator."""
    table, cascade = wavelet_table(name), _cascade(name)
    pts, w = _sphere_nodes(d, n_nodes)
    u = pts * 2.0 ** j
    lo, hi = table.support
    ks = [np.arange(math.floor(u[:, ax].min() - hi),
                    math.ceil(u[:, ax].max() - lo) + 1) for ax in range(d)]
    axes = "abc"[:d]
    terms = "n," + ",".join("n" + a for a in axes) + "->" + axes
    blocks = []
    for flags in _generators(d):
        factors = [(eval_psi if flags[ax] else eval_phi)(cascade, u[:, ax, None] - ks[ax])
                   for ax in range(d)]
        blocks.append(np.einsum(terms, w * 2.0 ** (j * d / 2.0), *factors).ravel())
    return np.concatenate(blocks)


def _assert_matches_reference(d, name, j, n):
    table = wavelet_table(name)
    got = _level_coeffs(table, d, j, n)
    ref = _level_coeffs_reference(name, d, j, n)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestLevelCoeffs:
    @pytest.mark.parametrize("d,name", [(2, "db4"), (3, "db2")])
    @pytest.mark.parametrize("j", [0, 2])
    def test_matches_direct_sum(self, d, name, j):
        _assert_matches_reference(d, name, j, 200)

    @pytest.mark.parametrize("d,name,j,n", [
        # n_t = 126 = 2 mod 4: a node on the y axis in every ring
        (3, "db2", 0, 8000),
        # an odd circle: the node at pi stands for itself
        (2, "db4", 3, 1001),
        # n_t = 12, 20 and 252 = 4 mod 8: swapped nodes and a node on the
        # diagonal; n_t = 2000 = 0 mod 8: swapped nodes only
        (2, "db4", 1, 12),
        (2, "db4", 3, 2000),
        (3, "db2", 1, 200),
        (3, "db2", 0, 32000),
    ])
    def test_folds_match_direct_sum(self, d, name, j, n):
        _assert_matches_reference(d, name, j, n)

    @pytest.mark.parametrize("d,name,j,n,block,budget,rings", [
        # an odd circle: 786 nodes stand for (x, +-y) in arcs 512, 274, and
        # the node at pi for itself; each arc a batch of the one ring
        pytest.param(2, "db4", 2, 3 * _BLOCK + 37, _BLOCK, _BATCH_FLOATS, [1],
                     id="2-db4-2-1573-512"),
        # rings of 20: 2 swapped nodes and the node on the diagonal
        pytest.param(3, "db2", 3, 200, _BLOCK, _BATCH_FLOATS, [5],
                     id="3-db2-3-200-512"),
        # swapped arcs 1, 1
        pytest.param(3, "db2", 2, 200, 1, _BATCH_FLOATS, [5], id="3-db2-2-200-7"),
        # rings of 28: swapped arcs 2, 1 and the node on the diagonal
        pytest.param(3, "db2", 2, 392, 2, _BATCH_FLOATS, [7], id="3-db2-2-392-2"),
        # n_u = 11: the equator pairs itself; rings of 22, 5 quarter nodes
        # and the node on the y axis
        pytest.param(3, "db2", 1, 242, _BLOCK, _BATCH_FLOATS, [6],
                     id="3-db2-1-242-512"),
        # quarter arcs 2, 2, 1
        pytest.param(3, "db4", 2, 242, 2, _BATCH_FLOATS, [6], id="3-db4-2-242-5"),
        # budgets of a few rings' floats (568, 1592, 816 and 2296 per ring
        # here): 5 pairs with an uneven last batch, 6 pairs of swapped arcs
        # 2, 1 in uneven batches, the equator in the last batch, and the
        # equator alone with quarters longer than an arc (a ring of
        # n_t = 0 mod 4 has an even n_u, so no equator)
        pytest.param(3, "db2", 2, 200, _BLOCK, 2 * 568, [2, 2, 1],
                     id="3-db2-2-200-512-batches-2-2-1"),
        pytest.param(3, "db4", 1, 288, 2, 4 * 1592, [4, 2],
                     id="3-db4-1-288-2-batches-4-2"),
        pytest.param(3, "db2", 1, 242, _BLOCK, 4 * 816, [4, 2],
                     id="3-db2-1-242-512-batches-4-2"),
        pytest.param(3, "db4", 2, 242, 2, 5 * 2296, [5, 1],
                     id="3-db4-2-242-5-batches-5-1"),
    ])
    def test_arcs_match_direct_sum(self, monkeypatch, d, name, j, n, block,
                                   budget, rings):
        monkeypatch.setattr(wavelets, "_BLOCK", block)
        monkeypatch.setattr(wavelets, "_BATCH_FLOATS", budget)
        nodes = []
        factor_matrix = wavelets._factor_matrix

        def recording(rows, slope, first, *args):
            nodes.append(first.size)
            return factor_matrix(rows, slope, first, *args)

        monkeypatch.setattr(wavelets, "_factor_matrix", recording)
        _assert_matches_reference(d, name, j, n)
        # (nodes, x images, y images) of each node set of a ring
        n_t = wavelets._ring_length(d, n)
        if n_t % 2:
            layout = [(n_t // 2, 1, 2), (1, 1, 1)]
        elif n_t % 4:
            layout = [(n_t // 4, 2, 2), (1, 1, 2)]
        else:
            layout = [(n_t // 8, 2, 2)] + [(1, 2, 2)] * (n_t % 8 // 4)
        # batches of the given ring counts, each over every node set and its
        # arcs, one factor matrix per x image, then per y image
        assert nodes == [r * min(block, size - a0) for r in rings
                         for size, sx, sy in layout
                         for a0 in range(0, size, block) for _ in range(sx + sy)]
        # a node is located once per image sign on each axis, and a swapped
        # image is located not at all: a ring of n_t = 2 mod 4 locates n_t
        # rows and one more for the node on the y axis, located once in x
        # and twice in y; a ring of n_t = 0 mod 4 locates 4 rows per node
        # below the diagonal, n_t / 2 in all when n_t = 0 mod 8, and 4 for
        # the node on the diagonal when n_t = 4 mod 8
        if d == 3:
            per_ring = n_t + 1 if n_t % 4 else 4 * (n_t // 8 + n_t % 8 // 4)
            assert sum(nodes) == sum(rings) * per_ring

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


    @pytest.mark.parametrize("d,n", [(2, n) for n in (*range(1, 9), 12, 16)] + [
        (3, 200), (3, 242), (3, 338), (3, 4000), (3, 8000), (3, 64000)])
    def test_node_sets_are_the_trapezoid_rule(self, d, n):
        # circles of n = 1 .. 8, 12 and 16 cover every n mod 8, and rings of
        # n_t = 20, 22, 26, 88, 126 and 356 cover every even n_t mod 8 at d = 3
        n_t = wavelets._ring_length(d, n)
        index, cos, sin = _images(d, n)
        assert np.array_equal(np.sort(index), np.arange(n_t))
        # the unfolded rule rounds its angles 2 pi (i + 1/2) / n_t, so its
        # nodes carry about an ulp of an angle up to 2 pi; the images are
        # exact negatives and swaps of angles below pi
        theta = 2.0 * math.pi * (np.arange(n_t) + 0.5) / n_t
        tol = 2.0 * np.spacing(2.0 * math.pi)
        assert np.max(np.abs(cos - np.cos(theta[index]))) <= tol
        assert np.max(np.abs(sin - np.sin(theta[index]))) <= tol
        _, _, weight, _ = _sphere_rings(d, n)
        assert weight.sum() * index.size == pytest.approx(
            2.0 * math.pi * (d - 1), rel=1e-13)

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
        _, phi, psi = _cascade("db4")
        sup_psi = (max(np.abs(psi).max(), np.abs(phi).max())) ** 2
        width = table.support[1] - table.support[0]
        C = sup_psi * math.pi * width
        j = 4
        d = 2
        assert result.max_coeff[j] <= C * 2.0 ** (j * d / 2) * 2.0 ** (-j * (d - 1))

    def test_scaled_sums_bounded(self, result):
        # log2 of the scaled sums is flat in j: |slope| <= 0.1
        assert abs(result.scaled_sum_slope()) <= 0.1

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
        assert math.isfinite(res.scaled_sum_slope())

    def test_invalid_dimension(self):
        with pytest.raises(InvalidParameterError):
            spherical_mean_wavelet_coeffs(d=4)

    @pytest.mark.parametrize("bad", [
        {"p": -1.0}, {"p": 0.0}, {"p": math.inf}, {"p": math.nan},
        {"Jmax": -1}, {"nodes_per_unit": 0}, {"d": 2.0}, {"Jmax": 1.5},
        {"Jmax": True}, {"nodes_per_unit": math.inf}])
    def test_invalid_parameters_raise(self, bad):
        # unchecked, p = -1 and p = inf return finite sums and Jmax = -1 no
        # levels; p = 0 and nodes_per_unit = 0 divide by zero; d = 2.0 and
        # Jmax = 1.5 raise TypeError, Jmax = True runs as Jmax = 1, and
        # nodes_per_unit = inf raises OverflowError
        kwargs = {"d": 2, "p": 1.0, "Jmax": 1, "wavelet": "db2", **bad}
        with pytest.raises(InvalidParameterError):
            spherical_mean_wavelet_coeffs(**kwargs)
