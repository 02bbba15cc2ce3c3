"""Space parameters, threshold functions, and parameter-region predicates.

The predicates implement the theorems' parameter conditions verbatim.  Each
predicate is three-valued internally (true / false / out-of-hypothesis); the
public boolean API raises ``OutOfHypothesisError`` instead of silently
coercing parameters outside the region where the theorem defines anything.
The convention 1/inf = 0 is used throughout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .errors import InvalidParameterError, OutOfHypothesisError

__all__ = [
    "SpaceParams", "ParamRegion", "sigma_p", "sigma_pq",
    "in_U", "embeds_in_Linfty", "trace_lands_in_Sprime",
    "weighted_Lp_in_Sprime", "in_U_t",
    "fig1_region", "fig2_region", "fig3_region",
]

INF = math.inf


def _inv(p: float) -> float:
    """1/p with the convention 1/inf = 0."""
    return 0.0 if math.isinf(p) else 1.0 / p


def _check_dim(d) -> None:
    """d must be a Python or numpy integer >= 1 (not a bool)."""
    if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1:
        raise InvalidParameterError(f"d must be an integer >= 1, got {d!r}")


def _check_int(name: str, v, least: int) -> None:
    """``v``, named ``name``, must be a Python or numpy integer >= least
    (not a bool)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < least:
        raise InvalidParameterError(f"need an integer {name} >= {least}, got {name}={v!r}")


@dataclass(frozen=True)
class SpaceParams:
    """The tuple (s, p, q, d, scale) governing every norm and predicate."""

    s: float
    p: float
    q: float
    d: int
    scale: str = "B"

    def __post_init__(self):
        if not (self.p > 0 and self.q > 0):
            raise InvalidParameterError("p and q must be positive (inf allowed)")
        if not math.isfinite(self.s):
            raise InvalidParameterError(f"s must be finite, got {self.s!r}")
        _check_dim(self.d)
        if self.scale not in ("B", "F"):
            raise InvalidParameterError("scale must be 'B' or 'F'")
        if self.scale == "F" and math.isinf(self.p):
            raise InvalidParameterError("F-scale requires p < inf")

    @property
    def inv_p(self) -> float:
        return _inv(self.p)


def sigma_p(p: float, d: int) -> float:
    """d * max(0, 1/p - 1)."""
    if not p > 0:
        raise InvalidParameterError(f"p must be > 0, got {p}")
    _check_dim(d)
    return d * max(0.0, _inv(p) - 1.0)


def sigma_pq(p: float, q: float, d: int) -> float:
    """d * max(0, 1/p - 1, 1/q - 1)."""
    if not (p > 0 and q > 0):
        raise InvalidParameterError("p and q must be > 0")
    _check_dim(d)
    return d * max(0.0, _inv(p) - 1.0, _inv(q) - 1.0)


def _above(params: SpaceParams, thr: float) -> bool:
    """The paper's borderline rule: s > thr, or s = thr and q <= 1 (B) resp.
    p <= 1 (F).  The == compares floats, so each caller keeps its own
    expression for thr."""
    if params.s == thr:
        return (params.q if params.scale == "B" else params.p) <= 1
    return params.s > thr


def in_U(params: SpaceParams) -> bool:
    """Membership in U(A): uniform continuity away from the origin.

    B: s > 1/p, or s = 1/p and q <= 1.  F: s > 1/p, or s = 1/p and p <= 1.
    """
    return _above(params, params.inv_p)


def embeds_in_Linfty(params: SpaceParams) -> bool:
    """Whether the radial space embeds into L_inf.

    B: s > d/p, or s = d/p and q <= 1.  F: s > d/p, or s = d/p and p <= 1.
    """
    return _above(params, params.d * params.inv_p)


def _trace_lands3(params: SpaceParams) -> Optional[bool]:
    if params.scale == "B":
        if not params.s > sigma_p(params.p, params.d):
            return None
    else:
        if not params.s > sigma_pq(params.p, params.q, params.d):
            return None
    return _above(params, params.d * (params.inv_p - 1.0 / params.d))  # d/p - 1


def trace_lands_in_Sprime(params: SpaceParams) -> bool:
    """Whether the trace space embeds into S'(R).

    Defined only under the hypotheses s > sigma_p(d) (B) resp.
    s > sigma_{p,q}(d) (F); outside, raises OutOfHypothesisError rather
    than answering.
    """
    res = _trace_lands3(params)
    if res is None:
        raise OutOfHypothesisError(
            f"trace predicate undefined at s={params.s} (hypothesis s > sigma)")
    return res


def weighted_Lp_in_Sprime(p: float, d: int) -> bool:
    """RL_p(R, |t|^{d-1}) is contained in S'(R) iff d < p (equality excluded)."""
    if not (0 < p < INF):
        raise InvalidParameterError("p must be in (0, inf)")
    _check_dim(d)
    return d < p


def in_U_t(alpha: float, sigma: float, t: float) -> bool:
    """Membership of (alpha, sigma) in the region U_t, t in [1, inf].

    t = 1:        (alpha = 0 and sigma > 0) or alpha < 0
    1 < t < inf:  (alpha = 1 - 1/t and sigma > 1/t) or alpha < 1 - 1/t
    t = inf:      (alpha = 1 and sigma >= 0) or alpha < 1
    """
    if math.isnan(alpha) or math.isnan(sigma) or not t >= 1:
        raise InvalidParameterError(
            f"need numbers alpha and sigma and t >= 1, got {alpha}, {sigma}, {t}")
    if t == 1:
        return (alpha == 0 and sigma > 0) or alpha < 0
    if math.isinf(t):
        return (alpha == 1 and sigma >= 0) or alpha < 1
    edge = 1.0 - 1.0 / t
    return (alpha == edge and sigma > 1.0 / t) or alpha < edge


@dataclass(frozen=True)
class ParamRegion:
    """A total, deterministic classifier over (1/p, s) points."""

    labels: Tuple[str, ...]      # every label the classifier can return
    classifier: Callable[[float, float], str]

    def label(self, inv_p: float, s: float) -> str:
        return self.classifier(inv_p, s)


def _param_region(d: int, labels: Tuple[str, ...],
                  rule: Callable[[SpaceParams], str]) -> ParamRegion:
    """Label valid (1/p, s) points, on the B scale at q = 1, by ``rule``; others 'invalid'."""

    def classify(inv_p: float, s: float) -> str:
        p = INF if inv_p == 0 else 1.0 / inv_p
        try:
            params = SpaceParams(s, p, 1.0, d)
        except InvalidParameterError:
            return "invalid"
        return rule(params)

    return ParamRegion(("invalid",) + labels, classify)


def fig1_region(d: int) -> ParamRegion:
    """Trace existence map: trace space in S' vs not, vs out-of-hypothesis."""

    def rule(params: SpaceParams) -> str:
        res = _trace_lands3(params)
        if res is None:
            return "out-of-hypothesis"
        return "trace-in-Sprime" if res else "not-in-Sprime"

    return _param_region(d, ("out-of-hypothesis", "trace-in-Sprime", "not-in-Sprime"), rule)


def fig2_region(d: int) -> ParamRegion:
    """Decay-at-infinity map: decay / no-decay / singular distributions."""

    def rule(params: SpaceParams) -> str:
        if params.s < sigma_p(params.p, d):
            return "singular"
        if in_U(params):
            return "decay"
        return "no-decay"

    return _param_region(d, ("singular", "decay", "no-decay"), rule)


def fig3_region(d: int) -> ParamRegion:
    """Boundedness-at-origin map: bounded / controlled blow-up / unbounded."""

    def rule(params: SpaceParams) -> str:
        if embeds_in_Linfty(params):
            return "bounded"
        if in_U(params):
            return "controlled-unboundedness"
        return "unbounded"

    return _param_region(d, ("bounded", "controlled-unboundedness", "unbounded"), rule)
