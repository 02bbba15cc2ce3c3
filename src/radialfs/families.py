"""The named test-function families, with their documented membership tags.

Every family is an even profile-level evaluator plus metadata (documented
support window and space-membership asymptotics).  Grids built for a family
never place a node on a documented singularity: the node set is shifted by
half the local spacing around each singular point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """An even scalar evaluator with documented support and asymptotics."""

    name: str
    params: dict
    evaluator: Callable[[np.ndarray], np.ndarray]
    support: Tuple[float, float]          # (inner radius, outer radius)
    singularities: Tuple[float, ...] = ()  # radii the grid must avoid
    doc: str = ""
    membership: dict = field(default_factory=dict)

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
        return Grid1D(np.unique(nodes), kind=grid.kind)

    def descriptor(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.name}({inner})"


def make_f_alpha(alpha: float, p: Optional[float] = None) -> TestFamily:
    """Ring singularity |(|x| - 1)|^{-alpha} under the annulus cutoff.

    Documented: member of B^{1/p - alpha}_{p,inf} (and of no q < inf space
    at that smoothness) when alpha < 1/p - sigma_p(d).
    """
    if not 0 < alpha < 1:
        raise InvalidParameterError("need 0 < alpha < 1")
    if p is not None and alpha >= 1.0 / p:
        raise InvalidParameterError("need alpha < 1/p")

    def ev(t):
        t = np.abs(t)
        out = np.zeros_like(t)
        mask = (np.abs(t - 1.0) > 0) & (t > 0.25) & (t < 2.5)
        out[mask] = annulus_shape(t[mask]) * np.abs(t[mask] - 1.0) ** (-alpha)
        return out

    member = {}
    if p is not None:
        member = {"space": "B", "s": 1.0 / p - alpha, "p": p, "q": math.inf,
                  "strict": "no membership for q < inf"}
    return TestFamily("f_alpha", {"alpha": alpha}, ev, (0.5, 2.0),
                      singularities=(1.0,),
                      doc="cutoff * ||x|-1|^-alpha", membership=member)


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

    return TestFamily("f_alpha_delta", {"alpha": alpha, "delta": delta}, ev,
                      (0.5, 2.0), singularities=(1.0,))


def make_f_j_lambda(j: int, lam: float,
                    shape: Callable = annulus_shape) -> TestFamily:
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
        return shape(2.0 ** j * np.abs(t) - lam)

    return TestFamily("f_j_lambda", {"j": j, "lambda": lam}, ev,
                      ((lam - 2.0) * scale, (lam + 2.0) * scale),
                      doc="phi(2^j|y| - lambda)",
                      membership={"norm_asymptotics": "2^{j(s-d/p)} lambda^{(d-1)/p}",
                                  "lp_asymptotics": "2^{-jd/p} lambda^{(d-1)/p}"})


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

    return TestFamily("f_alpha_sigma", {"alpha": alpha, "sigma": sigma}, ev,
                      (0.0, 1.5), singularities=(0.0, 1.0 / math.e, 1.0),
                      doc="psi |log|x||^a |loglog|x||^-s")


def make_psi_cutoff() -> TestFamily:
    """The fixed smooth cutoff: 1 on |x| <= 1, 0 on |x| >= 3/2."""
    return TestFamily("psi_cutoff", {}, lambda t: psi_cutoff(t), (0.0, 1.5),
                      doc="psi(x)=1 if |x|<=1, 0 if |x|>=3/2")


_MAKERS = {
    "f_alpha": lambda kw: make_f_alpha(**kw),
    "f_alpha_delta": lambda kw: make_f_alpha_delta(**kw),
    "f_j_lambda": lambda kw: make_f_j_lambda(int(kw.pop("j")), kw.pop("lambda"), **kw),
    "f_alpha_sigma": lambda kw: make_f_alpha_sigma(**kw),
    "psi_cutoff": lambda kw: make_psi_cutoff(),
}


def parse_family(desc: str) -> TestFamily:
    """Build a family from a descriptor like "f_j_lambda(j=3,lambda=16)"."""
    desc = desc.strip()
    if "(" not in desc:
        name, args = desc, ""
    else:
        name, args = desc.split("(", 1)
        args = args.rstrip(")")
    if name not in _MAKERS:
        raise InvalidParameterError(f"unknown family {name!r}")
    kw = {}
    for part in filter(None, (p.strip() for p in args.split(","))):
        key, val = part.split("=")
        kw[key.strip()] = float(val)
    return _MAKERS[name](kw)
