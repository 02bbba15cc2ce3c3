"""Atom orders and the even 1-D atom validator.

AtomSpec carries the regularity and moment orders (L, M) of the atoms a
decomposition uses, with the least admissible orders for a space.
validate_even_atom checks a sampled profile against the even L-atom
conditions: support in the 3/2-dilated interval and |g^{(n)}| <= |I|^{-n}
for n <= L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .core import RadialProfile
from .errors import InvalidParameterError

__all__ = ["AtomSpec", "AtomReport", "validate_even_atom"]


def _admissible_orders(s: float, sigma: float) -> Tuple[int, int]:
    """Least admissible (L, M) at smoothness s and threshold sigma."""
    return max(0, math.floor(s) + 1), max(math.floor(sigma - s), -1)


@dataclass(frozen=True)
class AtomSpec:
    """Regularity/moment orders (L, M) with the space parameters they serve."""

    L: int
    M: int
    s: float
    p: float

    def __post_init__(self):
        if self.L < 0 or self.M < -1:
            raise InvalidParameterError("need L >= 0 and M >= -1")

    @staticmethod
    def b_admissible(s: float, p: float, d: int) -> "AtomSpec":
        from .spaces import sigma_p
        return AtomSpec(*_admissible_orders(s, sigma_p(p, d)), s, p)

    @staticmethod
    def f_admissible(s: float, p: float, q: float, d: int) -> "AtomSpec":
        from .spaces import sigma_pq
        return AtomSpec(*_admissible_orders(s, sigma_pq(p, q, d)), s, p)

    def require_admissible(self, s: float, p: float, sigma: float) -> None:
        """Raise unless (L, M) meet the orders at s and threshold sigma.

        sigma is sigma_p(p, d) on the B scale and sigma_pq(p, q, d) on the F scale.
        """
        L, M = _admissible_orders(s, sigma)
        if self.L < L:
            raise InvalidParameterError(
                f"L = {self.L} below the required [s]+1 = {math.floor(s) + 1}")
        if self.M < M:
            raise InvalidParameterError(
                f"M = {self.M} below the required moment order at s={s}, p={p}")


@dataclass(frozen=True)
class AtomReport:
    ok: bool
    max_violation: float
    detail: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def _profile_derivatives(g: RadialProfile, L: int) -> List[np.ndarray]:
    t = g.grid.nodes
    derivs = [g.values]
    cur = g.values
    for _ in range(L):
        cur = np.gradient(cur, t)
        derivs.append(cur)
    return derivs


def validate_even_atom(g: RadialProfile, interval, L: int,
                       tol_factor: float = 1.0) -> AtomReport:
    """Check the even L-atom conditions against interval descriptor ``interval``.

    ``interval`` is (a,) for [-a, a] or (a, b) for [-b,-a] u [a,b].  Verifies
    sup |g^{(n)}| <= tol_factor * |I|^{-n} for 0 <= n <= L (finite
    differences) and the 3/2-dilated support inclusion; returns a report with
    the worst ratio violation per order.
    """
    t = g.grid.nodes
    if len(interval) == 1:
        a = float(interval[0])
        length = 2.0 * a
        supp_ok = np.abs(t) <= 1.5 * a
    else:
        a, b = float(interval[0]), float(interval[1])
        if not 0 < a < b:
            raise InvalidParameterError("need 0 < a < b")
        length = 2.0 * (b - a)
        lo, hi = (3 * a - b) / 2.0, (3 * b - a) / 2.0
        supp_ok = (np.abs(t) >= lo) & (np.abs(t) <= hi)
    support_violation = float(np.max(np.abs(g.values[~supp_ok]), initial=0.0))
    derivs = _profile_derivatives(g, L)
    ratios = {}
    worst = support_violation / max(1e-300, tol_factor)
    for n, dv in enumerate(derivs):
        bound = length ** (-n)
        ratio = float(np.max(np.abs(dv))) / bound
        ratios[n] = ratio
        worst = max(worst, ratio / tol_factor - 1.0)
    ok = support_violation <= 1e-12 and all(
        r <= tol_factor * (1.0 + 1e-6) for r in ratios.values())
    return AtomReport(ok, worst, {"ratios": ratios,
                                  "support_violation": support_violation})
