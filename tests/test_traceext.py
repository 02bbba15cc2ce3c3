import numpy as np
import pytest

from radialfs.bump import bump
from radialfs.core import Grid1D, RadialProfile
from radialfs.errors import InvalidParameterError
from radialfs.traceext import cm_norm, extend, trace


def bump_profile(grid=None, d=2):
    if grid is None:
        grid = Grid1D.uniform(1e-3, 2.0)
    return RadialProfile.from_callable(lambda t: bump((t - 1.0) / 0.5)
                                       + bump((t + 1.0) / 0.5), grid, d=d)


class TestRoundTrips:
    def test_trace_extend_identity_node_exact(self):
        g = bump_profile()
        assert np.array_equal(trace(extend(g, 3)).values, g.values)

    def test_extend_trace_identity_on_fields(self):
        g = bump_profile()
        f = extend(g, 2)
        f2 = extend(trace(f), 2)
        x = np.random.default_rng(0).uniform(-2, 2, size=(50, 2))
        assert np.array_equal(f(x), f2(x))

    def test_constant_field(self):
        grid = Grid1D.uniform(0.1, 1.0)
        g = RadialProfile.from_callable(lambda t: np.ones_like(t), grid, d=2)
        assert np.all(trace(extend(g, 2)).values == 1.0)

    def test_low_dimension_rejected(self):
        with pytest.raises(InvalidParameterError):
            extend(bump_profile(), 1)

    def test_quadratic_profile_exact_at_nodes(self):
        grid = Grid1D.uniform(0.05, 1.5)
        g = RadialProfile.from_callable(lambda t: t ** 2, grid, d=2)
        f = extend(g, 2)
        pts = np.column_stack([grid.nodes, np.zeros_like(grid.nodes)])
        assert np.allclose(f(pts), grid.nodes ** 2)


class TestCmNorm:
    def test_template_sup_norm(self):
        grid = Grid1D.uniform(1e-3, 1.5)
        g = RadialProfile.from_callable(bump, grid)
        assert cm_norm(g, 0) == pytest.approx(1.0)

    def test_quadratic_m1(self):
        grid = Grid1D.uniform(1e-3, 1.0)
        g = RadialProfile.from_callable(lambda t: t ** 2, grid)
        # sup|g| = 1, sup|g'| = 2 on [-1, 1]
        assert cm_norm(g, 1) == pytest.approx(3.0, rel=1e-3)

    def test_trace_inequality_every_field(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = rng.uniform(0.5, 1.5)
            w = rng.uniform(0.3, 1.0)
            grid = Grid1D.uniform(1e-3, 3.0)
            g = RadialProfile.from_callable(
                lambda t, c=c, w=w: bump((t - c) / w) + bump((t + c) / w),
                grid, d=3)
            f = extend(g, 3)
            for m in (0, 1, 2):
                assert cm_norm(g, m) <= cm_norm(f, m) * (1 + 1e-12)

    def test_extension_bound_frozen_corpus_constant(self):
        # ||ext g|C^m|| <= C_m ||g|C^m||; C_m frozen from the smooth corpus
        rng = np.random.default_rng(9)
        worst = {0: 0.0, 1: 0.0, 2: 0.0}
        for _ in range(10):
            c = rng.uniform(0.4, 1.6)
            w = rng.uniform(0.3, 1.0)
            grid = Grid1D.uniform(1e-3, 3.0)
            g = RadialProfile.from_callable(
                lambda t, c=c, w=w: bump((t - c) / w) + bump((t + c) / w),
                grid, d=3)
            f = extend(g, 3)
            for m in worst:
                worst[m] = max(worst[m], cm_norm(f, m) / cm_norm(g, m))
        assert worst[0] == pytest.approx(1.0, rel=1e-12)
        assert 1.0 <= worst[1] <= 3.2     # frozen: d sup|g'| vs sup|g'|
        assert 1.0 <= worst[2] <= 9.0     # frozen from the corpus run
