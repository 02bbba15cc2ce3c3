"""Pointwise trace and radial extension on discretized data, with C^m bookkeeping.

tr restricts a radial field to the x1-axis; ext composes an even profile
with the Euclidean norm.  On profile-backed fields both directions are
node-exact, so tr . ext = id on profiles and ext . tr = id on fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .core import Grid1D, RadialProfile, _gradients
from .errors import EvennessError, InvalidParameterError, ResolutionError

__all__ = ["RadialGridField", "trace", "extend", "cm_norm"]

RADIALITY_TOL = 1e-8


@dataclass(frozen=True)
class RadialGridField:
    """A radial function on R^d backed by a profile or by a tensor-grid sample."""

    d: int
    profile: Optional[RadialProfile] = None
    axes: Optional[Tuple[np.ndarray, ...]] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.d < 2:
            raise InvalidParameterError(f"dimension must be >= 2, got {self.d}")
        if self.profile is None and (self.axes is None or self.values is None):
            raise InvalidParameterError("need a profile or a tensor sample")

    @staticmethod
    def from_tensor(axes, values: np.ndarray) -> "RadialGridField":
        """The field sampled on the tensor grid of ``axes``, one per dimension."""
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        return RadialGridField(d=len(axes), axes=axes, values=np.asarray(values, float))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        if self.profile is not None:
            return self.profile(r)
        # tensor backing: multilinear interpolation via the radial profile
        g = trace(self)
        return g(r)

    def radiality_defect(self) -> float:
        """Relative spread of values across equal radii (0 for profile backing)."""
        if self.profile is not None:
            return 0.0
        mesh = np.meshgrid(*self.axes, indexing="ij")
        r = np.sqrt(sum(m ** 2 for m in mesh))
        rr = np.round(r.ravel(), 9)
        vv = self.values.ravel()
        order = np.argsort(rr)
        rr, vv = rr[order], vv[order]
        scale = max(1e-300, float(np.abs(vv).max()))
        worst = 0.0
        start = 0
        while start < rr.size:
            stop = start
            while stop < rr.size and rr[stop] == rr[start]:
                stop += 1
            if stop - start > 1:
                worst = max(worst, float(vv[start:stop].max() - vv[start:stop].min()))
            start = stop
        return worst / scale


def trace(f: RadialGridField) -> RadialProfile:
    """Restrict to the x1-axis; exact (no interpolation) for profile backing."""
    if f.profile is not None:
        return f.profile
    defect = f.radiality_defect()
    if defect > RADIALITY_TOL:
        raise EvennessError(f"field is not radial: defect {defect:g} > {RADIALITY_TOL:g}")
    axis1 = f.axes[0]
    idx = []
    for a in f.axes[1:]:
        zeros = np.nonzero(a == 0.0)[0]
        if zeros.size != 1:
            raise InvalidParameterError("tensor grid must contain the x1-axis "
                                        "(a zero node on every other axis)")
        idx.append(int(zeros[0]))
    vals = f.values[(slice(None),) + tuple(idx)]
    grid = Grid1D(axis1, even=bool(np.array_equal(axis1, -axis1[::-1])))
    if grid.even:
        vals = 0.5 * (vals + vals[::-1])
    return RadialProfile(grid, vals, dim_context=f.d)


def extend(g: RadialProfile, d: int) -> RadialGridField:
    """Radial extension ext g (profile-backed; linear interpolation)."""
    if d < 2:
        raise InvalidParameterError(f"dimension must be >= 2, got {d}")
    if not g.grid.even:
        raise EvennessError("extension needs an even profile")
    return RadialGridField(d=d, profile=g)


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
