"""Exponent fitting and the checkers for the decay/boundedness theorems.

Each checker builds a fixed, seeded witness corpus, normalizes every witness
by a norm surrogate (constructed atomic-decomposition norm by default), and
reports measured ratios or fitted exponents.  Thresholds are either paper
exponents (slopes) or frozen regression baselines (equivalence-constant
brackets); the reports carry the provenance of each threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bump import bump, psi_cutoff
from .core import Grid1D, RadialProfile
from .decompose import tb_norm, tf_norm
from .errors import ConfigError, InvalidParameterError, OutOfHypothesisError
from .families import make_f_alpha_sigma, make_f_j_lambda
from .spaces import (ParamRegion, SpaceParams, fig1_region, fig2_region,
                     fig3_region, in_U, sigma_p)

__all__ = ["DecayFit", "fit_loglog", "fit_decay_exponent", "bump_train",
           "check_decay4", "check_decay2", "check_lim1", "classification_map",
           "FIGURE_RECT", "figure_region", "classification_table",
           "Decay4Report", "Decay2Report", "Lim1Report"]


def fit_loglog(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float, float]:
    """Least-squares slope/intercept of log y vs log x, plus residual RMS."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0) or np.any(x <= 0):
        raise InvalidParameterError("log-log fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    rms = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), float(intercept), rms


@dataclass(frozen=True)
class DecayFit:
    """Annulus sup-amplitudes against radii with the fitted log-log slope."""

    radii: np.ndarray
    amplitudes: np.ndarray
    slope: float
    residual_rms: float

    @property
    def decay_exponent(self) -> float:
        """Positive exponent alpha for |f| ~ R^{-alpha}."""
        return -self.slope


def fit_decay_exponent(f: RadialProfile, R_list: Sequence[float]) -> DecayFit:
    """Slope of log sup_{R <= |t| <= 2R} |f| against log R.

    Requires at least 4 radii and nonzero amplitudes on every annulus.
    """
    radii = np.asarray(sorted(R_list), dtype=float)
    if radii.size < 4:
        raise InvalidParameterError("need at least 4 radii for a decay fit")
    t = np.abs(f.grid.nodes)
    if radii[-1] * 2.0 > t.max() * (1 + 1e-12):
        raise InvalidParameterError("profile grid does not reach 2 * max(R)")
    amps = []
    for r in radii:
        mask = (t >= r) & (t <= 2.0 * r)
        amp = float(np.max(np.abs(f.values[mask]), initial=0.0))
        amps.append(amp)
    amps = np.asarray(amps)
    if np.any(amps == 0.0):
        raise InvalidParameterError("zero amplitude annulus: decay fit undefined")
    slope, _, rms = fit_loglog(radii, amps)
    return DecayFit(radii, amps, slope, rms)


def bump_train(amplitude_exponent: float, centers: Sequence[float]) -> RadialProfile:
    """Even profile sum_m |c_m|^{-a} bump((t - c_m)/0.4) on [-T, T], T = 2.2 max c_m,
    sampled with spacing 2^-10 max(1, T/8)."""
    centers = np.asarray(sorted(centers), dtype=float)
    T = float(centers.max()) * 2.2
    grid = Grid1D.uniform(2 ** -10 * max(1.0, T / 8.0), T)

    def ev(t):
        t = np.abs(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        for c in centers:
            out += c ** (-amplitude_exponent) * bump((t - c) / 0.4)
        return out

    return RadialProfile.from_callable(ev, grid)


# ---------------------------------------------------------------------------
# Theorem checkers


def _surrogate_norm(profile: RadialProfile, params: SpaceParams,
                    J: int = 8) -> float:
    # tb_norm/tf_norm build the admissible atom spec of params themselves
    return (tb_norm if params.scale == "B" else tf_norm)(profile, params, J=J)


@dataclass(frozen=True)
class Decay4Report:
    params: SpaceParams
    radii: np.ndarray
    ratios: np.ndarray           # |x|^{(d-1)/p} |f(x)| / surrogate norm per witness
    band: float                  # max / min of the lower-route ratios
    upper_ratios: np.ndarray     # sup_{|x|>=1} weighted value / norm per witness
    upper_band: float


def _decay4_upper_corpus(d: int, p: float):
    """Fixed witness corpus for the upper-bound direction of the decay law."""
    corpus = []
    train = bump_train((d - 1) / p, [1.5 * 2.0 ** m for m in range(1, 6)])
    corpus.append(("bump-train", train))
    for lam in (7.0, 31.0):
        fam = make_f_j_lambda(1, lam)
        grid = Grid1D.uniform(2.0 ** -10, (lam + 2.5) / 2.0)
        corpus.append((f"f_1_{lam:g}", fam.profile(grid, d=d)))
    ring = RadialProfile.from_callable(
        lambda t: bump((np.abs(t) - 3.0) / 0.5),
        Grid1D.uniform(2.0 ** -10, 4.0), d=d)
    corpus.append(("ring-3", ring))
    return corpus


def check_decay4(params: SpaceParams, radii: Optional[Sequence[float]] = None,
                 witnesses: Optional[List[RadialProfile]] = None,
                 J: int = 8) -> Decay4Report:
    """Both routes of the decay rate (d-1)/p at infinity.

    Lower route: for each |x| = 2^r the witness is 2^{-r(d-1)/p} f_{1,lambda}
    with lambda = 2|x| - 1, which takes the value 1 at |x|; the ratio is
    |x|^{(d-1)/p} |f(x)| over the witness's surrogate norm, and one constant
    must serve all radii (band = max/min).  Upper route: over a fixed
    witness corpus (or ``witnesses``), the sup of |x|^{(d-1)/p} |f(x)| on
    |x| >= 1 divided by the surrogate norm stays within one bracket.
    """
    if not in_U(params):
        raise OutOfHypothesisError("decay rate (d-1)/p requires (s,p,q) in U(A)")
    if radii is None:
        radii = [2.0 ** r for r in range(2, 9)]
    d, p = params.d, params.p
    ratios = []
    for R in radii:
        lam = 2.0 * R - 1.0
        fam = make_f_j_lambda(1, lam)
        grid = Grid1D.uniform(max(2.0 ** -11, R / 4096.0), (lam + 2.5) / 2.0)
        prof = fam.profile(grid, d=d)
        value_at_R = float(fam(np.array([R]))[0])
        nrm = _surrogate_norm(prof, params, J=J)
        ratios.append(R ** ((d - 1) / p) * value_at_R / nrm)
    ratios = np.asarray(ratios)

    if witnesses is None:
        corpus = _decay4_upper_corpus(d, p)
    else:
        corpus = [(f"witness-{i}", w) for i, w in enumerate(witnesses)]
    upper = []
    for _, prof in corpus:
        t = np.abs(prof.grid.nodes)
        far = t >= 1.0
        weighted_sup = float(np.max(t[far] ** ((d - 1) / p)
                                    * np.abs(prof.values[far]), initial=0.0))
        nrm = _surrogate_norm(prof.restrict_dim(d), params, J=J)
        upper.append(weighted_sup / nrm)
    upper = np.asarray(upper)
    return Decay4Report(params, np.asarray(list(radii), dtype=float), ratios,
                        float(ratios.max() / ratios.min()),
                        upper, float(upper.max() / upper.min()))


@dataclass(frozen=True)
class Decay2Report:
    params: SpaceParams
    radii: np.ndarray            # |x| = 2^{-r}
    upper_ratios: np.ndarray     # |x|^{d/p-s} |f(x)| for the psi-witness, <= 1
    lower_values: np.ndarray     # normalized witness values at |x|
    fitted_exponent: float       # slope of log2 |f(x)| vs -log2 |x|
    expected_exponent: float     # d/p - s

    @property
    def exponent_error(self) -> float:
        return abs(self.fitted_exponent - self.expected_exponent)


def check_decay2(params: SpaceParams, r_range: Sequence[int] = range(2, 11),
                 J: int = 6) -> Decay2Report:
    """Blow-up rate |x|^{s - d/p} near the origin, upper and lower routes.

    Upper: the witness psi(x) |x|^{s-d/p} cancels the weight exactly, so the
    ratio is psi <= 1.  Lower: the dilated thin-annulus witnesses
    2^{-r(s-d/p)} f_{2+r,3} are norm-stable by exact dyadic self-similarity,
    and their values at |x| = 2^{-r} follow the pure power law; the fitted
    origin exponent must equal d/p - s.
    """
    d, p, s = params.d, params.p, params.s
    if not in_U(params):
        raise OutOfHypothesisError("decay2 requires (s,p,q) in U(A)")
    if not (sigma_p(p, d) < s < d / p):
        raise OutOfHypothesisError("decay2 requires sigma_p(d) < s < d/p")
    rs = np.asarray(list(r_range), dtype=int)
    radii = 2.0 ** (-rs.astype(float))

    upper = psi_cutoff(radii)  # |x|^{d/p-s} * psi(x)|x|^{s-d/p} = psi(x)

    values = []
    for r in rs:
        fam = make_f_j_lambda(int(2 + r), 3.0)
        # support sits in [2^{-r-2}, 1.25 * 2^{-r}]: a short fine grid suffices
        grid = Grid1D.uniform(2.0 ** (-int(r) - 9), 2.0 ** (-int(r) + 1))
        prof = fam.profile(grid, d=d)
        nrm = _surrogate_norm(prof, params, J=int(r) + 4)
        # normalized witness value at |x| = 2^{-r}; the 2^{-r(s-d/p)} witness
        # scale cancels between numerator and norm, leaving f(x)/||f||
        values.append(float(fam(np.array([2.0 ** (-float(r))]))[0]) / nrm)
    values = np.asarray(values)
    slope, _, _ = fit_loglog(radii, values)
    # |f| ~ |x|^{s-d/p}: slope wrt |x| is s - d/p; origin exponent = -(slope)
    return Decay2Report(params, radii, upper, values,
                        fitted_exponent=-slope, expected_exponent=d / p - s)


@dataclass(frozen=True)
class Lim1Report:
    params: SpaceParams
    radii: np.ndarray
    ratios: np.ndarray           # (-log|x|)^{-1/q'} |f(x)| / norm
    band: float


def check_lim1(params: SpaceParams, r_range: Sequence[int] = range(4, 13),
               witness: Optional[Tuple[float, float]] = None,
               J: int = 10) -> Lim1Report:
    """Log-borderline boundedness at s = d/p.

    The default witness is f_{1,0} = psi |log|x|| (extremal for q = inf in
    the B-scale): the ratio (-log|x|)^{-1/q'} |f(x)| is constant in |x| up to
    the norm constant.  q' = q/(q-1); hypotheses: q > 1 (B), 1 < p < inf (F).
    """
    p, q, d, s = params.p, params.q, params.d, params.s
    if abs(s - d / p) > 1e-12:
        raise OutOfHypothesisError("lim1 is the borderline s = d/p")
    if params.scale == "B":
        if not q > 1:
            raise OutOfHypothesisError("lim1(B) requires q > 1")
        conj = 1.0 if math.isinf(q) else q / (q - 1.0)
    else:
        if not 1 < p < math.inf:
            raise OutOfHypothesisError("lim1(F) requires 1 < p < inf")
        conj = p / (p - 1.0)
    alpha, sigma = witness if witness is not None else (1.0, 0.0)
    fam = make_f_alpha_sigma(alpha, sigma)
    grid = Grid1D.composite(J=max(14, max(r_range) + 2), h=0.01, T=2.0)
    prof = fam.profile(grid, d=d)
    nrm = _surrogate_norm(prof, params, J=J)
    radii = 2.0 ** (-np.asarray(list(r_range), dtype=float))
    vals = np.abs(fam(radii))
    ratios = (-np.log(radii)) ** (-1.0 / conj) * vals / nrm
    return Lim1Report(params, radii, ratios, float(ratios.max() / ratios.min()))


# The (1/p, s) figures of the paper and the rectangle their rasters cover.
FIGURES = {"fig1": fig1_region, "fig2": fig2_region, "fig3": fig3_region}
FIGURE_RECT = (0.01, 3.0, -1.0, 4.0)


def figure_region(figure: str, d: int) -> ParamRegion:
    """The parameter region of ``figure`` (fig1, fig2 or fig3) in dimension d."""
    if figure not in FIGURES:
        raise ConfigError(f"figure must be one of {sorted(FIGURES)}, got {figure!r}")
    if d < 1:
        raise ConfigError(f"dimension d must be >= 1, got {d}")
    return FIGURES[figure](d)


def classification_map(region: ParamRegion, rect: Tuple[float, float, float, float],
                       resolution: int) -> List[Tuple[float, float, str]]:
    """Rasterize a parameter region over a (1/p, s) rectangle.

    Returns rows (inv_p, s, label); ``classification_table`` flags them.
    The rectangle (min_inv_p, max_inv_p, min_s, max_s) must be finite with
    min < max on both axes, and ``resolution`` at least 1.
    """
    x0, x1, y0, y1 = rect
    if not (resolution >= 1 and x0 < x1 and y0 < y1
            and all(map(math.isfinite, rect))):
        raise ConfigError(
            f"a raster needs resolution >= 1 and a finite rectangle with "
            f"min_inv_p < max_inv_p and min_s < max_s; got resolution "
            f"{resolution}, (min_inv_p, max_inv_p, min_s, max_s) = {rect}")
    out = []
    for inv_p in np.linspace(x0, x1, resolution):
        for s in np.linspace(y0, y1, resolution):
            out.append((float(inv_p), float(s), region.label(float(inv_p), float(s))))
    return out


def classification_table(region: ParamRegion,
                         rect: Tuple[float, float, float, float],
                         resolution: int) -> Tuple[Tuple[str, ...], List[tuple]]:
    """The raster of ``region`` as a header and rows of plain numbers.

    Columns: inv_p, s, then one 1/0 column per label of the region.
    """
    flags = {label: tuple(int(label == name) for name in region.labels)
             for label in region.labels}
    rows = [(inv_p, s) + flags[label]
            for inv_p, s, label in classification_map(region, rect, resolution)]
    return ("inv_p", "s") + region.labels, rows
