"""Exception types shared across the package."""


class RadialfsError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(RadialfsError, ValueError):
    """A numeric parameter is outside its admissible range."""


class EvennessError(RadialfsError):
    """A profile or field violates the required even/radial symmetry."""


class OutOfHypothesisError(RadialfsError):
    """A predicate was queried outside the hypotheses under which it is defined."""


class DecompositionError(RadialfsError):
    """Atomic decomposition failed to converge."""


class QuadratureError(RadialfsError):
    """A quadrature error estimate exceeded its tolerance."""


class DivergenceError(RadialfsError):
    """An integral or norm diverges on the given input."""


class ConfigError(RadialfsError):
    """An experiment configuration is invalid."""
