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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bump import bump
from .core import Grid1D, RadialProfile
from .covering import AtomSpec
from .decompose import decompose_profile, tb_norm, tf_norm
from .errors import ConfigError, InvalidParameterError, OutOfHypothesisError
from .families import make_f_alpha_sigma, make_f_j_lambda
from .spaces import (ParamRegion, SpaceParams, fig1_region, fig2_region,
                     fig3_region, in_U, sigma_p)

__all__ = ["DecayFit", "fit_loglog", "fit_decay_exponent", "bump_train",
           "check_decay4", "check_decay2", "check_lim1", "FIGURE_RECT",
           "figure_region", "classification_table", "Decay4Report",
           "Decay2Report", "Lim1Report"]


def fit_loglog(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of log y vs log x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0) or np.any(x <= 0):
        raise InvalidParameterError("log-log fit needs positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


@dataclass(frozen=True)
class DecayFit:
    """Annulus sup-amplitudes against radii with the fitted log-log slope."""

    radii: np.ndarray
    amplitudes: np.ndarray
    slope: float

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
    return DecayFit(radii, amps, fit_loglog(radii, amps))


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
                    J: int) -> float:
    # tb_norm/tf_norm build the admissible atom spec of params themselves
    return (tb_norm if params.scale == "B" else tf_norm)(profile, params, J=J)


@dataclass(frozen=True)
class Decay4Report:
    radii: np.ndarray
    ratios: np.ndarray           # |x|^{(d-1)/p} |f(x)| / surrogate norm per witness
    band: float                  # max / min of the lower-route ratios
    upper_ratios: np.ndarray     # sup_{|x|>=1} weighted value / norm per witness
    upper_band: float


# The upper route's bump train: amplitudes |c_m|^{-(d-1)/p} at these centres.
UPPER_TRAIN_CENTERS = tuple(1.5 * 2.0 ** m for m in range(1, 6))


def _decay4_upper_shared() -> List[RadialProfile]:
    """The upper route's witnesses other than the bump train: f_{1,7},
    f_{1,31} and a ring at radius 3, the same for every (d, p)."""
    corpus = []
    for lam in (7.0, 31.0):
        grid = Grid1D.uniform(2.0 ** -10, (lam + 2.5) / 2.0)
        corpus.append(make_f_j_lambda(1, lam).profile(grid))
    corpus.append(RadialProfile.from_callable(
        lambda t: bump((np.abs(t) - 3.0) / 0.5), Grid1D.uniform(2.0 ** -10, 4.0)))
    return corpus


def _far_weighted_sup(prof: RadialProfile, d: int, p: float) -> float:
    """sup_{|t| >= 1} |t|^{(d-1)/p} |f(t)| over the grid nodes."""
    t = np.abs(prof.grid.nodes)
    far = t >= 1.0
    return float(np.max(t[far] ** ((d - 1) / p) * np.abs(prof.values[far]),
                        initial=0.0))


def _common_spec(cells: Sequence[SpaceParams]) -> AtomSpec:
    """Atom orders admissible for every cell: the largest L and M of the
    cells' least admissible specs (B or F by each cell's scale)."""
    specs = [AtomSpec.b_admissible(c.s, c.p, c.d) if c.scale == "B"
             else AtomSpec.f_admissible(c.s, c.p, c.q, c.d) for c in cells]
    return AtomSpec(max(sp.L for sp in specs), max(sp.M for sp in specs),
                    specs[0].s, specs[0].p)


def check_decay4(cells: Sequence[SpaceParams],
                 radii: Optional[Sequence[float]] = None) -> List[Decay4Report]:
    """Both routes of the decay rate (d-1)/p at infinity, one report per cell.

    Lower route: for each |x| = 2^r the witness is 2^{-r(d-1)/p} f_{1,lambda}
    with lambda = 2|x| - 1, which takes the value 1 at |x|; the ratio is
    |x|^{(d-1)/p} |f(x)| over the witness's surrogate norm, and one constant
    must serve all radii (band = max/min).  Upper route: over a fixed
    witness corpus (a bump train of amplitudes |c_m|^{-(d-1)/p}, f_{1,7},
    f_{1,31} and a ring at radius 3), the sup of |x|^{(d-1)/p} |f(x)| on
    |x| >= 1 divided by the surrogate norm stays within one bracket.

    Every cell must lie in U(A); the check raises before any work otherwise.
    Each distinct witness is sampled and decomposed once, at J = 8, with atom
    orders admissible for every cell (the spline coefficients depend on
    neither d nor p), and each cell takes its ``tb_norm``/``tf_norm`` from
    that decomposition: the lower route's witnesses and three of the upper
    corpus serve every cell, and one bump train serves every cell of the same
    (d-1)/p.  Each report is the same floats as a one-cell call.
    """
    cells = list(cells)
    if not cells:
        raise InvalidParameterError("check_decay4 needs at least one cell")
    for params in cells:
        if not in_U(params):
            raise OutOfHypothesisError(
                f"decay rate (d-1)/p requires (s,p,q) in U(A), got {params}")
    if radii is None:
        radii = [2.0 ** r for r in range(2, 9)]
    spec = _common_spec(cells)

    def norms(prof: RadialProfile, which: Sequence[int]) -> Dict[int, float]:
        """The norm of prof for each cell index in ``which``, all from one
        decomposition; its residual at J, which no norm reads, is measured
        in the first cell's d and p."""
        dec = decompose_profile(prof.restrict_dim(cells[0].d), spec, J=8,
                                raise_on_stall=False, track_history=False)
        return {i: (tb_norm if cells[i].scale == "B" else tf_norm)(
                    prof, cells[i], decomposition=dec) for i in which}

    every = range(len(cells))
    lower = []                   # (R, witness value at R, norm per cell)
    for R in radii:
        lam = 2.0 * R - 1.0
        fam = make_f_j_lambda(1, lam)
        grid = Grid1D.uniform(max(2.0 ** -11, R / 4096.0), (lam + 2.5) / 2.0)
        value_at_R = float(fam(np.array([R]))[0])
        lower.append((R, value_at_R, norms(fam.profile(grid), every)))

    shared = [(prof, norms(prof, every)) for prof in _decay4_upper_shared()]
    by_exponent: Dict[float, List[int]] = {}
    for i, c in enumerate(cells):
        by_exponent.setdefault((c.d - 1) / c.p, []).append(i)
    trains = {}                  # (d-1)/p -> (bump train, norm per cell of it)
    for a, which in by_exponent.items():
        train = bump_train(a, UPPER_TRAIN_CENTERS)
        trains[a] = (train, norms(train, which))

    reports = []
    for i, c in enumerate(cells):
        d, p = c.d, c.p
        ratios = np.asarray([R ** ((d - 1) / p) * value / nrm[i]
                             for R, value, nrm in lower])
        upper = np.asarray([_far_weighted_sup(prof, d, p) / nrm[i]
                            for prof, nrm in [trains[(d - 1) / p]] + shared])
        reports.append(Decay4Report(np.asarray(list(radii), dtype=float), ratios,
                                    float(ratios.max() / ratios.min()),
                                    upper, float(upper.max() / upper.min())))
    return reports


@dataclass(frozen=True)
class Decay2Report:
    radii: np.ndarray            # |x| = 2^{-r}
    lower_values: np.ndarray     # normalized witness values at |x|
    fitted_exponent: float       # slope of log2 |f(x)| vs -log2 |x|
    expected_exponent: float     # d/p - s


def check_decay2(params: SpaceParams,
                 r_range: Sequence[int] = range(2, 11)) -> Decay2Report:
    """Blow-up rate |x|^{s - d/p} near the origin.

    The dilated thin-annulus witnesses 2^{-r(s-d/p)} f_{2+r,3} are
    norm-stable by exact dyadic self-similarity, and their values at
    |x| = 2^{-r} follow the pure power law; the fitted origin exponent must
    equal d/p - s.  The surrogate norm of the witness at 2^{-r} decomposes
    at J = r + 4.
    """
    d, p, s = params.d, params.p, params.s
    if not in_U(params):
        raise OutOfHypothesisError("decay2 requires (s,p,q) in U(A)")
    if not (sigma_p(p, d) < s < d / p):
        raise OutOfHypothesisError("decay2 requires sigma_p(d) < s < d/p")
    rs = np.asarray(list(r_range), dtype=int)
    radii = 2.0 ** (-rs.astype(float))

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
    # |f| ~ |x|^{s-d/p}: slope wrt |x| is s - d/p; origin exponent = -(slope)
    return Decay2Report(radii, values, fitted_exponent=-fit_loglog(radii, values),
                        expected_exponent=d / p - s)


@dataclass(frozen=True)
class Lim1Report:
    radii: np.ndarray
    ratios: np.ndarray           # (-log|x|)^{-1/q'} |f(x)| / norm
    band: float


def check_lim1(params: SpaceParams, r_range: Sequence[int] = range(4, 13),
               witness: Optional[Tuple[float, float]] = None) -> Lim1Report:
    """Log-borderline boundedness at s = d/p.

    The default witness is f_{1,0} = psi |log|x|| (extremal for q = inf in
    the B-scale): the ratio (-log|x|)^{-1/q'} |f(x)| is constant in |x| up to
    the norm constant, a surrogate norm at J = 10.  q' = q/(q-1);
    hypotheses: q > 1 (B), 1 < p < inf (F).
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
    nrm = _surrogate_norm(prof, params, J=10)
    radii = 2.0 ** (-np.asarray(list(r_range), dtype=float))
    vals = np.abs(fam(radii))
    ratios = (-np.log(radii)) ** (-1.0 / conj) * vals / nrm
    return Lim1Report(radii, ratios, float(ratios.max() / ratios.min()))


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


def classification_table(region: ParamRegion,
                         rect: Tuple[float, float, float, float],
                         resolution: int) -> Tuple[Tuple[str, ...], List[tuple]]:
    """Rasterize a parameter region over a (1/p, s) rectangle.

    The rectangle (min_inv_p, max_inv_p, min_s, max_s) must be finite with
    min < max on both axes, and ``resolution`` at least 1.  Returns a header
    and rows of plain numbers: inv_p, s, then one 1/0 column per label of the
    region.
    """
    x0, x1, y0, y1 = rect
    if not (resolution >= 1 and x0 < x1 and y0 < y1
            and all(map(math.isfinite, rect))):
        raise ConfigError(
            f"a raster needs resolution >= 1 and a finite rectangle with "
            f"min_inv_p < max_inv_p and min_s < max_s; got resolution "
            f"{resolution}, (min_inv_p, max_inv_p, min_s, max_s) = {rect}")
    flags = {label: tuple(int(label == name) for name in region.labels)
             for label in region.labels}
    s_values = np.linspace(y0, y1, resolution).tolist()
    rows = [(inv_p, s) + flags[region.label(inv_p, s)]
            for inv_p in np.linspace(x0, x1, resolution).tolist()
            for s in s_values]
    return ("inv_p", "s") + region.labels, rows
