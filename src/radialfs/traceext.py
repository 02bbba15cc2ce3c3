"""Pointwise trace and radial extension on discretized data.

tr restricts a radial field to the x1-axis; ext composes an even profile
with the Euclidean norm.  A field is backed by its profile, so both
directions are node-exact: tr . ext = id on profiles and ext . tr = id on
fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RadialProfile
from .errors import InvalidParameterError
from .spaces import _check_dim

__all__ = ["RadialGridField", "trace", "extend"]


@dataclass(frozen=True)
class RadialGridField:
    """A radial function on R^d, x -> profile(|x|)."""

    d: int
    profile: RadialProfile

    def __post_init__(self):
        _check_dim(self.d)
        if self.d < 2:
            raise InvalidParameterError(f"dimension must be >= 2, got {self.d}")

    def __call__(self, x) -> np.ndarray:
        return self.profile(np.linalg.norm(np.asarray(x, dtype=float), axis=-1))


def trace(f: RadialGridField) -> RadialProfile:
    """Restrict to the x1-axis: the backing profile itself (no interpolation)."""
    return f.profile


def extend(g: RadialProfile, d: int) -> RadialGridField:
    """Radial extension ext g (profile-backed; linear interpolation)."""
    return RadialGridField(d, g)
