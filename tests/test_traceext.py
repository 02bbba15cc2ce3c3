import numpy as np
import pytest

from radialfs.bump import bump
from radialfs.core import Grid1D, RadialProfile
from radialfs.errors import InvalidParameterError
from radialfs.traceext import extend, trace


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
