import numpy as np
import pytest

from radialfs.bump import smoothstep


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
