"""Experiment registry: one named experiment per acceptance assertion group.

Every experiment is a computation: it consumes an ExperimentConfig, returns
its assertions and one data table, opens no file, and is deterministic given
the seed.  ``run_experiment`` writes the table to ``<name>.csv`` and a summary
with one row per assertion (measured value, threshold, provenance of the
threshold, pass/fail) to ``<name>-summary.csv``, both through ``write_csv``.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .bump import bump
from .core import Grid1D, RadialProfile, _gradient_identity_reports
from .bv import bv_decay_check, staircase
from .decay import (FIGURE_RECT, check_decay2, check_decay4,
                    classification_table, figure_region)
from .decompose import lp_besov_norm_1d, tb_norm
from .errors import ConfigError
from .families import make_f_j_lambda
from .spaces import (SpaceParams, embeds_in_Linfty, in_U, in_U_t, sigma_p,
                     trace_lands_in_Sprime, weighted_Lp_in_Sprime)
from .wavelets import spherical_mean_wavelet_coeffs

__all__ = ["ExperimentConfig", "Assertion", "Outcome", "ExperimentResult",
           "run_experiment", "list_experiments", "write_csv", "REGISTRY",
           "OPTIONS"]


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 20260810
    output_dir: Path = Path("out")
    options: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.output_dir = Path(self.output_dir)
        env_seed = os.environ.get("RADIALFS_SEED")
        seed = self.seed if env_seed is None else env_seed
        try:
            # int() would truncate 1.5 and read True as 1
            if isinstance(seed, bool) or not isinstance(seed, (numbers.Integral, str)):
                raise ValueError
            self.seed = int(seed)
        except ValueError:
            where = "seed" if env_seed is None else "RADIALFS_SEED"
            raise ConfigError(f"{where} must be an integer, got {seed!r}") from None

    def opt(self, key: str, default=None, cast=float):
        if key not in self.options:
            return default
        try:
            return cast(self.options[key])
        except ValueError:
            raise ConfigError(f"option {key!r} must be {cast.__name__}, "
                              f"got {self.options[key]!r}") from None


@dataclass(frozen=True)
class Assertion:
    name: str
    measured: float
    kind: str          # "<=", ">=", "abs<=" (|measured| vs threshold)
    threshold: float
    provenance: str    # "paper-exponent" or "frozen-baseline" or "identity"

    def __post_init__(self):
        # a numpy scalar would reach the summary as "np.float64(...)" via repr
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "threshold", float(self.threshold))

    @property
    def passed(self) -> bool:
        if self.kind == "<=":
            return self.measured <= self.threshold
        if self.kind == ">=":
            return self.measured >= self.threshold
        if self.kind == "abs<=":
            return abs(self.measured) <= self.threshold
        raise ConfigError(f"unknown assertion kind {self.kind!r}")

    def row(self) -> tuple:
        status = "pass" if self.passed else "FAIL"
        return (self.name, self.measured, self.kind, self.threshold,
                self.provenance, status)


class Outcome(NamedTuple):
    """What an experiment computes: its assertions and its data table."""
    assertions: List[Assertion]
    header: Sequence[str]
    rows: Iterable[Sequence]
    data_file: str = ""    # the data CSV's name; "" means <experiment>.csv


@dataclass
class ExperimentResult:
    name: str
    assertions: List[Assertion]
    artifacts: List[Path] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


SUMMARY_HEADER = ("assertion", "measured", "kind", "threshold", "provenance",
                  "status")


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write ``header`` and ``rows`` to ``path`` as CSV with "\n" line ends.

    csv quotes a field holding a comma, and writes a float through its repr,
    so fields must be Python numbers and strings: a numpy float would be
    written as "np.float64(...)".
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# experiments


def _exp_scaling_fjlam(cfg: ExperimentConfig) -> Outcome:
    params = SpaceParams(1.0, 2.0, 2.0, 2)
    lams = [4.0, 8.0, 16.0, 32.0, 64.0]
    grid = Grid1D.uniform(2 ** -14, 4.0)
    rows = [(5, lam, lp_besov_norm_1d(make_f_j_lambda(5, lam).profile(grid), params,
                                      weighted=True, n_fft=2 ** 17, T=4.0))
            for lam in lams]
    slope = float(np.polyfit(np.log2(lams), np.log2([v for _, _, v in rows]), 1)[0])
    return Outcome([
        Assertion("slope_vs_log2lambda_minus_(d-1)/p", slope - 0.5, "abs<=", 0.10,
                  "paper-exponent"),
    ], ("j", "lambda", "norm"), rows)


# decay-infinity's upper route per p: bounds on the largest witness ratio
# sup_{|x|>=1} |x|^{(d-1)/p} |f(x)| / ||f|| and on the ratios' max/min,
# frozen 1.2-1.35x above their values at J = 8 (the larger of d = 2, 3:
# 0.180 and 4.87 at p = 1, 0.370 and 2.22 at p = 2)
UPPER_ROUTE_BRACKETS = {1.0: (0.22, 6.0), 2.0: (0.45, 3.0)}
# decay-infinity's bound on the lower route's ratio band max/min, frozen 1.34x
# above its largest value at J = 8 (1.120, d = 2, p = 1; the four cells read
# 1.099-1.120); over radii 4..256 an exponent off by 0.1 widens it to 1.59-1.65
RATIO_BAND_MAX = 1.5


def _exp_decay_infinity(cfg: ExperimentConfig) -> Outcome:
    assertions, rows = [], []
    cells = [(d, p) for d in (2, 3) for p in (1.0, 2.0)]
    reports = check_decay4([SpaceParams(1.0 / p, p, 1.0, d) for d, p in cells],
                           radii=[2.0 ** r for r in range(2, 9)])
    for (d, p), rep in zip(cells, reports):
        for r, v in zip(rep.radii.tolist(), rep.ratios.tolist()):
            rows.append((d, p, r, v))
        assertions.append(Assertion(f"ratio_band_d{d}_p{p:g}", rep.band,
                                    "<=", RATIO_BAND_MAX, "frozen-baseline"))
        c_max, band_max = UPPER_ROUTE_BRACKETS[p]
        assertions.append(Assertion(f"upper_band_d{d}_p{p:g}", rep.upper_band,
                                    "<=", band_max, "frozen-baseline"))
        assertions.append(Assertion(f"upper_ratio_max_d{d}_p{p:g}",
                                    float(rep.upper_ratios.max()), "<=", c_max,
                                    "frozen-baseline"))
    return Outcome(assertions, ("d", "p", "radius", "ratio"), rows)


def _exp_blowup_origin(cfg: ExperimentConfig) -> Outcome:
    params = SpaceParams(0.75, 2.0, 2.0, 2)
    rep = check_decay2(params, r_range=range(2, 11))
    return Outcome([
        Assertion("origin_exponent_minus_(d/p-s)",
                  rep.fitted_exponent - rep.expected_exponent, "abs<=", 0.05,
                  "paper-exponent"),
    ], ("radius", "value"), zip(rep.radii.tolist(), rep.lower_values.tolist()))


# bv-decay's bound on (lhs - tail) / tail: a few ulp, since lhs = tail exactly
# at each staircase's last radius
BV_DECAY_RTOL = 4.0 * float(np.finfo(float).eps)


def _exp_bv_decay(cfg: ExperimentConfig) -> Outcome:
    rng = np.random.default_rng(cfg.seed)
    assertions, rows = [], []
    for d in (2, 3):
        for i in range(50):
            n = int(rng.integers(1, 11))
            radii = np.sort(rng.uniform(0.05, 10.0, n))
            vals = rng.normal(0.0, 2.0, n)
            st = staircase(list(zip(radii, vals)))
            rep = bv_decay_check(st, radii, d=d)
            violation = float(np.max((rep.lhs - rep.tail_bound) / rep.tail_bound))
            rows.append((d, i, n, float(radii[-1]), violation))
    worst_violation = max([0.0] + [row[-1] for row in rows])
    assertions.append(Assertion("max_rel_violation_all_staircases", worst_violation,
                                "<=", BV_DECAY_RTOL, "paper-exponent"))
    for d in (2, 3):
        g = staircase([(2.0, 1.0)])
        rep = bv_decay_check(g, [2.0], d=d)
        assertions.append(Assertion(
            f"single_step_equality_gap_d{d}",
            float(abs(rep.lhs[0] - rep.tail_bound[0])), "<=", 1e-12, "identity"))
    return Outcome(assertions, ("d", "case", "steps", "largest_radius",
                                "rel_violation"), rows)


def _exp_support_shift(cfg: ExperimentConfig) -> Outcome:
    params = SpaceParams(1.0, 2.0, 2.0, 2)
    taus = [2.0, 4.0, 8.0, 16.0]
    rows = []
    for tau in taus:
        ev = (lambda tau=tau: lambda t: bump((np.abs(t) - (tau + 0.5)) / 0.5))()
        prof = RadialProfile.from_callable(ev, Grid1D.uniform(2 ** -11, tau + 2.0))
        oned = lp_besov_norm_1d(prof, params, weighted=False, n_fft=2 ** 16,
                                T=tau + 2.0)
        dd = tb_norm(prof, params, J=10)
        rows.append((tau, oned, dd, oned / dd))
    slope = float(np.polyfit(np.log2(taus), np.log2([r[-1] for r in rows]), 1)[0])
    return Outcome([
        Assertion("ratio_slope_minus_(-(d-1)/p)", slope - (-0.5), "abs<=", 0.15,
                  "paper-exponent"),
    ], ("tau", "norm_1d", "norm_trace", "ratio"), rows)


def _exp_spherical_mean(cfg: ExperimentConfig) -> Outcome:
    res = spherical_mean_wavelet_coeffs(d=2, p=1.0, Jmax=6, wavelet="db4",
                                        nodes_per_unit=2000,
                                        richardson_tol=1e-6)
    rows = list(zip(res.levels.tolist(), res.scaled_sums.tolist(),
                    res.counts.tolist(), res.max_coeff.tolist()))
    return Outcome([
        Assertion("scaled_sum_log2_slope", res.scaled_sum_slope(), "abs<=", 0.1,
                  "frozen-baseline"),
        Assertion("count_growth_band", res.count_growth_band(), "<=", 2.0,
                  "paper-exponent"),
    ], ("level", "scaled_sum", "count", "max_coeff"), rows)


# sobolev-reduction's bump pairs bump((r - c)/w) + bump((r + c)/w) as (c, w);
# c > w, so the bump at -c is exactly 0 on r >= 0
SOBOLEV_SHAPES = ((1.2, 0.8), (0.9, 0.35))


def _sobolev_evaluator(c: float, w: float) -> Callable[[np.ndarray], np.ndarray]:
    """The bump pair of centre c and width w on radii r >= 0, where it is the
    one bump at +c alone; the gradient oracle evaluates it only there."""
    return lambda r: bump((np.asarray(r, float) - c) / w)


def _exp_sobolev_reduction(cfg: ExperimentConfig) -> Outcome:
    ps, ratio = (1.0, 2.0), {}
    for d in (2, 3):
        for (c, w) in SOBOLEV_SHAPES:
            ev = _sobolev_evaluator(c, w)
            prof = RadialProfile.from_callable(ev, Grid1D.uniform(5e-4, c + 2 * w))
            # one gradient field per (d, c, w), reduced for every p
            reps = _gradient_identity_reports(prof, ps, d, evaluator=ev)
            for p, rep in zip(ps, reps):
                ratio[d, p, c, w] = rep.ratio
    rows = [(d, p, c, w, ratio[d, p, c, w])
            for d in (2, 3) for p in ps for (c, w) in SOBOLEV_SHAPES]
    worst = max(abs(row[-1] - 1.0) for row in rows)
    return Outcome([
        Assertion("gradient_identity_max_rel_err", worst, "<=", 1e-4,
                  "paper-exponent"),
    ], ("d", "p", "center", "width", "ratio"), rows)


def _exp_predicate_tables(cfg: ExperimentConfig) -> Outcome:
    INF = math.inf
    cases = [
        ("in_U(1,1,inf,F)", in_U(SpaceParams(1.0, 1.0, INF, 2, "F")), True),
        ("in_U(.5,2,1,B)", in_U(SpaceParams(0.5, 2.0, 1.0, 2, "B")), True),
        ("in_U(.5,2,2,B)", in_U(SpaceParams(0.5, 2.0, 2.0, 2, "B")), False),
        ("Linfty(2,2,2,d3,B)", embeds_in_Linfty(SpaceParams(2.0, 2.0, 2.0, 3, "B")), True),
        ("Linfty(1.5,2,1,d3,B)", embeds_in_Linfty(SpaceParams(1.5, 2.0, 1.0, 3, "B")), True),
        ("Linfty(1.5,2,2,d3,F)", embeds_in_Linfty(SpaceParams(1.5, 2.0, 2.0, 3, "F")), False),
        ("trace(1,1,1,d2,B)", trace_lands_in_Sprime(SpaceParams(1.0, 1.0, 1.0, 2, "B")), True),
        ("trace(.9,1,1,d2,B)", trace_lands_in_Sprime(SpaceParams(0.9, 1.0, 1.0, 2, "B")), False),
        ("trace(3,.5,1,d2,F)", trace_lands_in_Sprime(SpaceParams(3.0, 0.5, 1.0, 2, "F")), True),
        ("wLp(3,2)", weighted_Lp_in_Sprime(3.0, 2), True),
        ("wLp(2,2)", weighted_Lp_in_Sprime(2.0, 2), False),
        ("wLp(1,3)", weighted_Lp_in_Sprime(1.0, 3), False),
        ("U_t(0,1,1)", in_U_t(0.0, 1.0, 1.0), True),
        ("U_t(1,0,inf)", in_U_t(1.0, 0.0, INF), True),
        ("U_t(.5,.6,2)", in_U_t(0.5, 0.6, 2.0), True),
        ("sigma_p(.5,2)=2", sigma_p(0.5, 2) == 2.0, True),
    ]
    # one column per case (commas in the names become ';', so csv quotes no
    # header field); the first row holds the computed predicates, the second
    # the expected ones, as 1/0
    header = [name.replace(",", ";") for name, _, _ in cases]
    rows = [tuple(int(got) for _, got, _ in cases),
            tuple(int(want) for _, _, want in cases)]
    failures = sum(1 for _, got, want in cases if got != want)
    return Outcome([
        Assertion("table_mismatches", float(failures), "<=", 0.0, "paper-exponent"),
    ], header, rows)


def _exp_classification_map(cfg: ExperimentConfig) -> Outcome:
    d = cfg.opt("d", 2, int)
    x0, x1, y0, y1 = FIGURE_RECT
    rect = (x0, cfg.opt("max_inv_p", x1), cfg.opt("min_s", y0), cfg.opt("max_s", y1))
    resolution = cfg.opt("resolution", 60, int)
    which = cfg.options.get("figure", "fig2")
    region = figure_region(which, d)
    header, rows = classification_table(region, rect, resolution)
    # the paper's label of the anchor (1/p, s) = (1, 1), from its conditions
    # rather than from the predicates drawn above: the trace lands in S' iff
    # s >= d/p - 1; at q = 1 the functions are bounded iff s >= d/p, and
    # below that line the anchor's blow-up at the origin is the controlled one
    inv_p, s = 1.0, 1.0
    expect = {"fig1": "trace-in-Sprime" if s >= d * inv_p - 1 else "not-in-Sprime",
              "fig2": "decay",
              "fig3": "bounded" if s >= d * inv_p else "controlled-unboundedness"}
    ok = 0.0 if region.label(inv_p, s) == expect[which] else 1.0
    return Outcome([
        Assertion("anchor_point_(1,1)", ok, "<=", 0.0, "paper-exponent"),
    ], header, rows, f"classification-{which}-d{d}.csv")


# the config options each experiment reads; any other key is refused, and an
# experiment not listed here reads none
OPTIONS: Dict[str, Tuple[str, ...]] = {
    "classification-map": ("figure", "d", "max_inv_p", "min_s", "max_s",
                           "resolution"),
}

REGISTRY: Dict[str, Tuple[Callable[[ExperimentConfig], Outcome], str]] = {
    "scaling-f-j-lambda": (_exp_scaling_fjlam,
                           "thin-annulus norm scaling vs radius index"),
    "decay-infinity": (_exp_decay_infinity,
                       "lower-bound witnesses for the (d-1)/p decay rate"),
    "blowup-origin": (_exp_blowup_origin,
                      "origin blow-up exponent d/p - s via dilated witnesses"),
    "bv-decay": (_exp_bv_decay, "r^{d-1}|g| <= tail variation for staircases"),
    "support-shift": (_exp_support_shift,
                      "tau^{-(d-1)/p} law for profiles supported at radius tau"),
    "spherical-mean-wavelet": (_exp_spherical_mean,
                               "scaled wavelet sums of the sphere measure"),
    "sobolev-reduction": (_exp_sobolev_reduction,
                          "gradient norm radial reduction vs tensor quadrature"),
    "predicate-tables": (_exp_predicate_tables,
                         "parameter-region predicates on the cited points"),
    "classification-map": (_exp_classification_map,
                           "rasterize a (1/p, s) classification figure"),
}


def list_experiments() -> List[Tuple[str, str]]:
    return [(name, doc) for name, (_, doc) in sorted(REGISTRY.items())]


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    if cfg.experiment not in REGISTRY:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}; "
                          f"known: {', '.join(sorted(REGISTRY))}")
    allowed = OPTIONS.get(cfg.experiment, ())
    unknown = sorted(set(cfg.options) - set(allowed))
    if unknown:
        raise ConfigError(
            f"experiment {cfg.experiment!r} reads no option "
            f"{', '.join(map(repr, unknown))}; it reads "
            f"{', '.join(map(repr, allowed)) or 'none'}")
    func, _ = REGISTRY[cfg.experiment]
    out = func(cfg)
    data = write_csv(cfg.output_dir / (out.data_file or f"{cfg.experiment}.csv"),
                     out.header, out.rows)
    summary = write_csv(cfg.output_dir / f"{cfg.experiment}-summary.csv",
                        SUMMARY_HEADER, (a.row() for a in out.assertions))
    return ExperimentResult(cfg.experiment, out.assertions, [data, summary])
