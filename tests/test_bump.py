import numpy as np
import pytest

from radialfs.bump import annulus_shape, smoothstep


def smoothstep_everywhere(u):
    """a / (a + b) with both exponentials taken at every point (0 where the
    argument is not positive): the reference for the windowed evaluation."""
    u = np.asarray(u, dtype=float)

    def side(x):
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = np.exp(-1.0 / x[pos])
        return out

    a, b = side(u), side(1.0 - u)
    return a / (a + b)


class TestSmoothstep:
    def test_hex_equal_to_the_formula_everywhere(self):
        rng = np.random.default_rng(3)
        edges = [0.0, -0.0, 1.0, 0.5, 1e-300, -1e-300, 2.0, -2.0, np.inf, -np.inf]
        edges += [np.nextafter(e, s) for e in (0.0, 1.0) for s in (-np.inf, np.inf)]
        u = np.concatenate([rng.uniform(-0.5, 1.5, 200_000), edges,
                            rng.uniform(0.0, 1e-2, 1000),
                            1.0 - rng.uniform(0.0, 1e-12, 1000)])
        with np.errstate(over="ignore"):
            assert smoothstep(u).tobytes() == smoothstep_everywhere(u).tobytes()

    @pytest.mark.parametrize("u", [-1.0, 0.0, 0.25, 1.0, 3.0])
    def test_scalar_in_scalar_out(self, u):
        got, want = smoothstep(u), smoothstep_everywhere(u)
        assert type(got) is type(want) and got == want

    def test_nan_stays_nan(self):
        assert np.isnan(smoothstep(np.array([np.nan]))).all()


def annulus_shape_everywhere(t):
    """The two smoothsteps' product taken at every point: the reference for
    the evaluation restricted to |t| < 2."""
    t = np.abs(np.asarray(t, dtype=float))
    return smoothstep((t - 0.5) / 0.25) * smoothstep((2.0 - t) / 0.5)


class TestAnnulusShape:
    def test_hex_equal_to_the_product_everywhere(self):
        rng = np.random.default_rng(5)
        edges = [0.0, -0.0, np.inf, -np.inf]
        for e in (0.5, 0.75, 1.5, 2.0):
            for x in (e, -e):
                edges += [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
        t = np.concatenate([rng.uniform(-3.0, 3.0, 200_000), edges,
                            2.0 - rng.uniform(0.0, 1e-12, 1000),
                            0.5 + rng.uniform(0.0, 1e-3, 1000)])
        assert annulus_shape(t).tobytes() == annulus_shape_everywhere(t).tobytes()

    def test_nan_stays_nan(self):
        got = annulus_shape(np.array([np.nan, 1.0, 2.5]))
        assert np.isnan(got[0]) and got[1] == 1.0 and got[2] == 0.0

    @pytest.mark.parametrize("t", [-2.5, -1.0, 0.0, 0.6, 1.9, 2.0, 7.0])
    def test_scalar_in_scalar_out(self, t):
        got, want = annulus_shape(t), annulus_shape_everywhere(t)
        assert type(got) is type(want) and got == want
