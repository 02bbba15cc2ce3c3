"""Atom orders.

AtomSpec carries the regularity and moment orders (L, M) of the atoms a
decomposition uses, with the least admissible orders for a space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .errors import InvalidParameterError

__all__ = ["AtomSpec"]


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

