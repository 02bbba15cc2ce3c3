"""Smooth compactly supported templates used for atoms, cutoffs and partitions.

All shapes derive from the standard ``exp(-1/(1-u^2))`` bump and the
``exp(-1/u)`` smoothstep, so every template is C-infinity with explicitly
known support.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import _gradients

__all__ = ["bump", "bump_derivative_sup", "smoothstep", "psi_cutoff",
           "annulus_shape"]


def bump(u):
    """C^inf bump on (-1, 1), normalized to bump(0) = 1, zero outside."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


@lru_cache(maxsize=None)
def bump_derivative_sup(n: int) -> float:
    """sup |bump^(n)| measured once on 200001 grid points (finite differences)."""
    u = np.linspace(-1.0, 1.0, 200001)
    return float(np.max(np.abs(_gradients(bump(u), u[1] - u[0], n)[-1])))


def smoothstep(u):
    """C^inf monotone step: 0 for u <= 0, 1 for u >= 1.

    Computed as a / (a + b) with a = exp(-1/u), b = exp(-1/(1-u)); outside
    0 < u < 1 one of them is exactly 0 and the other positive, so the result
    is exactly 0 or 1 there, and the exponentials are evaluated only inside
    (NaN counts as inside and stays NaN).
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    inside = ~((u <= 0.0) | (u >= 1.0))
    ui = u[inside]
    a = np.exp(-1.0 / ui)
    b = np.exp(-1.0 / (1.0 - ui))
    out[inside] = a / (a + b)
    return out[()]


def psi_cutoff(t):
    """The radial cut-off: 1 for |t| <= 1, 0 for |t| >= 3/2, smooth between."""
    t = np.abs(np.asarray(t, dtype=float))
    return smoothstep((1.5 - t) / 0.5)


def annulus_shape(t):
    """Even C^inf shape with support [-2,-1/2] u [1/2,2] and value 1 at |t| = 1.

    Plateau equal to 1 on 0.75 <= |t| <= 1.5.  The product of the two
    smoothsteps is evaluated only where ~(|t| >= 2) (NaN stays NaN); from
    |t| = 2 on the outer one is exactly 0, and so is the shape.  A scalar
    gives a scalar.
    """
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    inside = ~(t >= 2.0)
    ti = t[inside]
    out[inside] = smoothstep((ti - 0.5) / 0.25) * smoothstep((2.0 - ti) / 0.5)
    return out[()]
