"""Radial BV staircases and the weighted decay bound.

A profile here is piecewise constant on R^+ with finitely many jumps (a
staircase); its derivative is a signed Radon measure of atoms at the jump
radii.  ``bv_decay_check`` compares r^{d-1} |g(r)| with the tail variation
integral_r^inf t^{d-1} d|nu|(t), which atoms give exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import InvalidParameterError
from .spaces import _check_dim

__all__ = ["RadonMeasure1D", "BVProfile", "staircase", "bv_decay_check",
           "BVDecayReport"]


@dataclass(frozen=True)
class RadonMeasure1D:
    """Atoms: finite location > 0, finite signed mass; locations strictly
    increasing."""

    atoms: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        # a NaN passes every comparison below as False
        if not all(math.isfinite(loc) and math.isfinite(mass)
                   for loc, mass in self.atoms):
            raise InvalidParameterError("atom locations and masses must be finite")
        locs = [loc for loc, _ in self.atoms]
        if any(loc <= 0 for loc in locs):
            raise InvalidParameterError("atom locations must be strictly positive")
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise InvalidParameterError("atom locations must be strictly increasing")

    def _tail(self, r: float, d: int) -> float:
        """integral_r^inf t^{d-1} d|nu|(t), exactly."""
        return sum(loc ** (d - 1) * abs(mass)
                   for loc, mass in self.atoms if loc >= r)


@dataclass(frozen=True)
class BVProfile:
    """A staircase on R^+ with its derivative measure: the value values[i]
    on [r_{i-1}, r_i), where r_i = radii[i] and r_{-1} = 0, and 0 from the
    last radius on."""

    radii: Tuple[float, ...]
    values: Tuple[float, ...]
    derivative: RadonMeasure1D

    def __post_init__(self):
        # a value past the last radius would make the staircase not vanish
        if len(self.values) != len(self.radii):
            raise InvalidParameterError("need one value per step radius")

    def value_left(self, r) -> np.ndarray:
        """Left limit at r > 0 (the value governing the decay bound at a jump)."""
        return np.append(self.values, 0.0)[np.searchsorted(self.radii, r)]


def staircase(steps: Sequence[Tuple[float, float]]) -> BVProfile:
    """Right-continuous staircase from "(r1, a1), (r2, a2), ..." style steps.

    The radii must be positive and strictly increasing.  The value is a_i
    on [r_{i-1}, r_i) (r_0 = 0) and 0 beyond the last radius; the
    derivative measure has an atom at each r_i of mass
    a_{i+1} - a_i (with a_{n+1} = 0).
    """
    if not steps:
        raise InvalidParameterError("need at least one step")
    if not all(math.isfinite(r) and math.isfinite(a) for r, a in steps):
        raise InvalidParameterError("step radii and values must be finite")
    radii = [r for r, _ in steps]
    if radii[0] <= 0 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise InvalidParameterError(
            "step radii must be positive and strictly increasing")
    values = [a for _, a in steps]
    atoms = []
    for i, r in enumerate(radii):
        nxt = values[i + 1] if i + 1 < len(values) else 0.0
        jump = nxt - values[i]
        if jump != 0.0:
            atoms.append((r, jump))
    return BVProfile(tuple(radii), tuple(values), RadonMeasure1D(tuple(atoms)))


@dataclass(frozen=True)
class BVDecayReport:
    radii: np.ndarray
    lhs: np.ndarray              # r^{d-1} |g(r)| at the requested radii
    tail_bound: np.ndarray       # integral_r^inf t^{d-1} d|nu|


def bv_decay_check(g: BVProfile, radii: Sequence[float], d: int) -> BVDecayReport:
    """Check r^{d-1} |g(r)| <= integral_r^inf t^{d-1} d|nu| at the given radii.

    Values at jump radii use the left limit (the Lebesgue-point
    representative just inside the jump), which is the extremal case.
    """
    _check_dim(d)
    radii = np.asarray(sorted(radii), dtype=float)
    lhs = radii ** (d - 1) * np.abs(g.value_left(radii))
    tails = np.array([g.derivative._tail(r, d) for r in radii])
    return BVDecayReport(radii, lhs, tails)

