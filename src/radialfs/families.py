"""The named test-function families.

Every family is an even profile-level evaluator with its support window and
its singular radii.  Grids built for a family never place a node on a
singularity: the node set is shifted by half the local spacing around each
singular point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .bump import annulus_shape, psi_cutoff
from .core import Grid1D, RadialProfile
from .errors import InvalidParameterError

__all__ = ["TestFamily", "make_f_alpha", "make_f_alpha_delta",
           "make_f_j_lambda", "make_f_alpha_sigma", "make_psi_cutoff",
           "parse_family"]


@dataclass(frozen=True)
class TestFamily:
    """An even scalar evaluator with its support and singular radii."""

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    support: Tuple[float, float]          # (inner radius, outer radius)
    singularities: Tuple[float, ...] = ()  # radii the grid must avoid

    def __call__(self, t) -> np.ndarray:
        return self.evaluator(np.abs(np.asarray(t, dtype=float)))

    def profile(self, grid: Optional[Grid1D] = None, d: Optional[int] = None,
                **grid_kw) -> RadialProfile:
        if grid is None:
            grid = self.default_grid(**grid_kw)
        return RadialProfile.from_callable(self.evaluator, grid, d=d)

    def default_grid(self, h: float = 1e-3, T: Optional[float] = None) -> Grid1D:
        if T is None:
            T = max(2.0, self.support[1] * 1.25)
        grid = Grid1D.uniform(h, T)
        if not self.singularities:
            return grid
        nodes = grid.nodes.copy()
        for s in self.singularities:
            for sign in (1.0, -1.0):
                hit = np.isclose(nodes, sign * s, rtol=0.0, atol=h * 1e-9)
                nodes[hit] += 0.5 * h * (1.0 if sign > 0 else -1.0)
        return Grid1D(np.unique(nodes))


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

    return TestFamily("f_alpha", ev, (0.5, 2.0), singularities=(1.0,))


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

    return TestFamily("f_alpha_delta", ev, (0.5, 2.0), singularities=(1.0,))


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

    scale = 2.0 ** (-j)

    def ev(t):
        return annulus_shape(2.0 ** j * np.abs(t) - lam)

    return TestFamily("f_j_lambda", ev, ((lam - 2.0) * scale, (lam + 2.0) * scale))


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

    return TestFamily("f_alpha_sigma", ev, (0.0, 1.5),
                      singularities=(0.0, 1.0 / math.e, 1.0))


def make_psi_cutoff() -> TestFamily:
    """The fixed smooth cutoff: 1 on |x| <= 1, 0 on |x| >= 3/2."""
    return TestFamily("psi_cutoff", lambda t: psi_cutoff(t), (0.0, 1.5))


def _f_j_lambda(j: float, lam: float) -> TestFamily:
    if not j.is_integer():
        raise InvalidParameterError(f"need an integer j, got {j:g}")
    return make_f_j_lambda(int(j), lam)


# each family's maker and the names of its parameters, in call order
_MAKERS = {
    "f_alpha": (make_f_alpha, ("alpha",)),
    "f_alpha_delta": (make_f_alpha_delta, ("alpha", "delta")),
    "f_j_lambda": (_f_j_lambda, ("j", "lambda")),
    "f_alpha_sigma": (make_f_alpha_sigma, ("alpha", "sigma")),
    "psi_cutoff": (make_psi_cutoff, ()),
}


def parse_family(desc: str) -> TestFamily:
    """Build a family from a descriptor like "f_j_lambda(j=3,lambda=16)".

    Each parameter of the family is given once, as a finite number, and no
    other; the parentheses may be left out when the family has none.
    """
    name, paren, args = (x.strip() for x in desc.partition("("))
    if name not in _MAKERS:
        raise InvalidParameterError(f"unknown family {name!r}")
    if paren and not args.endswith(")"):
        raise InvalidParameterError(f"family descriptor {desc!r} lacks its ')'")
    maker, names = _MAKERS[name]
    pairs = [[x.strip() for x in part.split("=")]
             for part in args[:-1].split(",") if part.strip()]
    if any(len(pair) != 2 for pair in pairs) or \
            sorted(key for key, _ in pairs) != sorted(names):
        raise InvalidParameterError(
            f"{name} takes exactly the parameters ({', '.join(names)}), each "
            f"as key=value: got {desc!r}")
    try:
        kw = {key: float(val) for key, val in pairs}
        finite = all(map(math.isfinite, kw.values()))
    except ValueError:
        finite = False
    if not finite:
        raise InvalidParameterError(f"parameters must be finite numbers: {desc!r}")
    return maker(*(kw[key] for key in names))
