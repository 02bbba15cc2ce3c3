"""Pointwise trace and radial extension on discretized data, with C^m bookkeeping.

tr restricts a radial field to the x1-axis; ext composes an even profile
with the Euclidean norm.  A field is backed by its profile, so both
directions are node-exact: tr . ext = id on profiles and ext . tr = id on
fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import RadialProfile, _gradients
from .errors import InvalidParameterError, ResolutionError

__all__ = ["RadialGridField", "trace", "extend", "cm_norm"]


@dataclass(frozen=True)
class RadialGridField:
    """A radial function on R^d, x -> profile(|x|)."""

    d: int
    profile: RadialProfile

    def __post_init__(self):
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


def _profile_cm(g: RadialProfile, m: int) -> float:
    t = g.grid.nodes
    if t.size < m + 1:
        raise ResolutionError("grid cannot resolve the requested derivatives")
    return sum(float(np.max(np.abs(v))) for v in _gradients(g.values, t, m))


def _field_cm(f: RadialGridField, m: int) -> float:
    """Sum over |alpha| <= m of sup |D^alpha f| via the chain rule on the profile.

    Implemented for m <= 2; the mixed second partials of g(|x|) are
    g'' x_i x_j / r^2 + g' (delta_ij / r - x_i x_j / r^3), maximized over the
    direction analytically (the extreme is at u in {0, 1} for each pair).
    """
    if m > 2:
        raise ResolutionError("field C^m norm implemented for m <= 2")
    g = trace(f)
    t = g.grid.nodes
    derivs = _gradients(g.values, t, m)
    total = float(np.max(np.abs(g.values)))
    if m == 0:
        return total
    pos = t > 0
    gp, r = derivs[1][pos], t[pos]
    # g'(0) = 0 for even profiles; g'/r has the even-reflection limit g''(0)
    gp_over_r = gp / r
    sup_g1 = float(np.max(np.abs(gp)))
    total += f.d * sup_g1
    if m == 1:
        return total
    # diagonal terms: sup over u^2 in [0,1] of |g'' u^2 + (g'/r)(1 - u^2)|
    gpp = derivs[2][pos]
    diag = np.maximum(np.abs(gpp), np.abs(gp_over_r))
    off = 0.5 * np.abs(gpp - gp_over_r)
    total += f.d * float(diag.max()) + (f.d * (f.d - 1) // 2) * 2.0 * float(off.max())
    return total


def cm_norm(obj: Union[RadialProfile, RadialGridField], m: int) -> float:
    """sum_{|alpha| <= m} sup |D^alpha .| for a profile or a radial field."""
    if m < 0:
        raise InvalidParameterError("m must be >= 0")
    if isinstance(obj, RadialProfile):
        return _profile_cm(obj, m)
    return _field_cm(obj, m)
