"""The named test-function families.

Every family is an even profile-level evaluator.
An evaluator returns 0 where its formula is singular in floating point
(|x| = 1 for f_alpha and f_alpha_delta; |x| = 0, |x| = 1 and |log|x|| = 1
for f_alpha_sigma), so a profile on any grid is finite; a node next to a
singularity samples its blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bump import annulus_shape, psi_cutoff
from .core import Grid1D, RadialProfile
from .errors import InvalidParameterError

__all__ = ["TestFamily", "make_f_alpha", "make_f_alpha_delta",
           "make_f_j_lambda", "make_f_alpha_sigma", "make_psi_cutoff"]


@dataclass(frozen=True)
class TestFamily:
    """An even scalar evaluator."""

    evaluator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t) -> np.ndarray:
        return self.evaluator(np.abs(np.asarray(t, dtype=float)))

    def profile(self, grid: Grid1D, d: Optional[int] = None) -> RadialProfile:
        return RadialProfile.from_callable(self.evaluator, grid, d=d)


def make_f_alpha(alpha: float) -> TestFamily:
    """Ring singularity |(|x| - 1)|^{-alpha} under the annulus cutoff.

    Documented: member of B^{1/p - alpha}_{p,inf} (and of no q < inf space
    at that smoothness) when alpha < 1/p - sigma_p(d).
    """
    if not 0 < alpha < 1:
        raise InvalidParameterError("need 0 < alpha < 1")

    def ev(t):
        t = np.abs(t)
        out = np.zeros_like(t)
        mask = (np.abs(t - 1.0) > 0) & (t > 0.25) & (t < 2.5)
        out[mask] = annulus_shape(t[mask]) * np.abs(t[mask] - 1.0) ** (-alpha)
        return out

    return TestFamily(ev)


def make_f_alpha_delta(alpha: float, delta: float) -> TestFamily:
    """Ring singularity damped by a log factor (sees the microscopic index q)."""
    if not (0 < alpha < 1 and delta > 0):
        raise InvalidParameterError("need 0 < alpha < 1 and delta > 0")

    def ev(t):
        t = np.abs(t)
        out = np.zeros_like(t)
        u = np.abs(t - 1.0)
        mask = (u > 0) & (u < 0.999) & (t > 0.25) & (t < 2.5)
        out[mask] = (annulus_shape(t[mask]) * u[mask] ** (-alpha)
                     * (-np.log(u[mask])) ** (-delta))
        return out

    return TestFamily(ev)


def make_f_j_lambda(j: int, lam: float) -> TestFamily:
    """Thin-annulus bump phi(2^j |y| - lambda).

    Support is (lambda-2) 2^{-j} <= |y| <= (lambda+2) 2^{-j}; the value at
    |y| = (1+lambda) 2^{-j} is exactly 1.  Documented norm asymptotics:
    A^s_{p,q} norm ~ 2^{j(s-d/p)} lambda^{(d-1)/p} and L_p norm ~
    2^{-jd/p} lambda^{(d-1)/p}.
    """
    if j < 1:
        raise InvalidParameterError("need j >= 1")
    if not lam > 2:
        raise InvalidParameterError("need lambda > 2 (support must avoid the origin)")

    def ev(t):
        return annulus_shape(2.0 ** j * np.abs(t) - lam)

    return TestFamily(ev)


def make_f_alpha_sigma(alpha: float, sigma: float) -> TestFamily:
    """psi(x) |log|x||^alpha |log|log|x|||^{-sigma}: singular or flat at 0.

    Membership in RB^{d/p}_{p,q} holds iff (alpha, sigma) lies in U_q
    (see spaces.in_U_t); the inner log singularity sits at |x| = 1/e.
    """

    def ev(t):
        t = np.abs(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        at = np.flatnonzero((t > 0) & (t < 1.5))
        loga = np.abs(np.log(t.flat[at]))
        at, loga = at[loga != 0.0], loga[loga != 0.0]         # t = 1
        inner = np.abs(np.log(loga))
        keep = inner != 0.0                                     # |log t| = 1
        at, loga, inner = at[keep], loga[keep], inner[keep]
        val = psi_cutoff(t.flat[at]) * loga ** alpha
        if sigma != 0.0:
            val = val * inner ** (-sigma)
        out.flat[at] = val
        return out

    return TestFamily(ev)


def make_psi_cutoff() -> TestFamily:
    """The fixed smooth cutoff: 1 on |x| <= 1, 0 on |x| >= 3/2."""
    return TestFamily(psi_cutoff)

