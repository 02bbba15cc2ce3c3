"""Experiment registry: one named experiment per acceptance assertion group.

Every experiment consumes an ExperimentConfig, writes CSV artifacts plus a
summary with one row per assertion (measured value, threshold, provenance of
the threshold, pass/fail), and is deterministic given the seed.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from .bump import bump
from .core import (Grid1D, RadialProfile, _gradient_identity_reports,
                   weighted_lp_norm)
from .bv import (bv_decay_check, bv_equivalence_check, smooth_bump_bv,
                 staircase)
from .decay import (FIGURE_RECT, bump_train, check_decay2, check_decay4,
                    check_lim1, figure_region, fit_decay_exponent,
                    write_classification_csv)
from .decompose import lp_besov_norm_1d, tb_norm
from .errors import ConfigError
from .families import make_f_j_lambda
from .seqspaces import CoefficientGrid, seq_norm_bspqd, seq_norm_fspqd
from .spaces import (SpaceParams, embeds_in_Linfty, in_U, in_U_t, sigma_p,
                     trace_lands_in_Sprime, weighted_Lp_in_Sprime)
from .traceext import cm_norm, extend, trace
from .wavelets import spherical_mean_wavelet_coeffs

__all__ = ["ExperimentConfig", "Assertion", "ExperimentResult",
           "run_experiment", "list_experiments", "REGISTRY", "OPTIONS"]


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 20260810
    output_dir: Path = Path("out")
    options: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.output_dir = Path(self.output_dir)
        env_seed = os.environ.get("RADIALFS_SEED")
        if env_seed is not None:
            self.seed = int(env_seed)

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


@dataclass
class ExperimentResult:
    name: str
    assertions: List[Assertion]
    artifacts: List[Path] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def write_summary(self, outdir: Path) -> Path:
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / f"{self.name}-summary.csv"
        with open(path, "w", newline="") as fh:
            # csv quotes a name holding commas, as in anchor_point_(1,1);
            # floats are written as their repr
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["assertion", "measured", "kind", "threshold",
                          "provenance", "status"])
            out.writerows(a.row() for a in self.assertions)
        self.artifacts.append(path)
        return path


def _write_csv(outdir: Path, name: str, header: str, rows) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    return path


# ---------------------------------------------------------------------------
# experiments


def _exp_scaling_fjlam(cfg: ExperimentConfig) -> ExperimentResult:
    params = SpaceParams(1.0, 2.0, 2.0, 2)
    rows = []
    norms_j = []
    js = list(range(3, 9))
    for j in js:
        prof = make_f_j_lambda(j, 16.0).profile(Grid1D.uniform(2 ** -14, 4.0), d=2)
        v = lp_besov_norm_1d(prof, params, weighted=True, n_fft=2 ** 17, T=4.0)
        norms_j.append(v)
        rows.append((j, 16.0, v))
    lams = [4.0, 8.0, 16.0, 32.0, 64.0]
    norms_l = []
    for lam in lams:
        prof = make_f_j_lambda(5, lam).profile(Grid1D.uniform(2 ** -14, 4.0), d=2)
        v = lp_besov_norm_1d(prof, params, weighted=True, n_fft=2 ** 17, T=4.0)
        norms_l.append(v)
        rows.append((5, lam, v))
    slope_j = float(np.polyfit(js, np.log2(norms_j), 1)[0])
    slope_l = float(np.polyfit(np.log2(lams), np.log2(norms_l), 1)[0])
    art = _write_csv(cfg.output_dir, "scaling-f-j-lambda.csv", "j,lambda,norm", rows)
    res = ExperimentResult("scaling-f-j-lambda", [
        Assertion("slope_vs_j_minus_(s-d/p)", slope_j - 0.0, "abs<=", 0.15,
                  "paper-exponent"),
        Assertion("slope_vs_log2lambda_minus_(d-1)/p", slope_l - 0.5, "abs<=", 0.10,
                  "paper-exponent"),
    ], [art])
    return res


def _exp_scaling_lp(cfg: ExperimentConfig) -> ExperimentResult:
    d, p = 2, 2.0
    rows, norms_j, norms_l = [], [], []
    js = list(range(3, 9))
    for j in js:
        prof = make_f_j_lambda(j, 16.0).profile(Grid1D.uniform(2 ** -15, 3.0), d=d)
        v = weighted_lp_norm(prof, p, d)
        norms_j.append(v)
        rows.append((j, 16.0, v))
    lams = [4.0, 8.0, 16.0, 32.0, 64.0]
    for lam in lams:
        prof = make_f_j_lambda(5, lam).profile(Grid1D.uniform(2 ** -15, 3.0), d=d)
        v = weighted_lp_norm(prof, p, d)
        norms_l.append(v)
        rows.append((5, lam, v))
    slope_j = float(np.polyfit(js, np.log2(norms_j), 1)[0])
    slope_l = float(np.polyfit(np.log2(lams), np.log2(norms_l), 1)[0])
    art = _write_csv(cfg.output_dir, "scaling-lp.csv", "j,lambda,norm", rows)
    return ExperimentResult("scaling-lp", [
        Assertion("slope_vs_j_minus_(-d/p)", slope_j - (-d / p), "abs<=", 0.02,
                  "paper-exponent"),
        Assertion("slope_vs_log2lambda_minus_(d-1)/p", slope_l - (d - 1) / p,
                  "abs<=", 0.02, "paper-exponent"),
    ], [art])


def _exp_decay_infinity(cfg: ExperimentConfig) -> ExperimentResult:
    assertions, rows = [], []
    for d in (2, 3):
        for p in (1.0, 2.0):
            rep = check_decay4(SpaceParams(1.0 / p, p, 1.0, d),
                               radii=[2.0 ** r for r in range(2, 9)])
            for r, v in zip(rep.radii, rep.ratios):
                rows.append((d, p, r, v))
            assertions.append(Assertion(f"ratio_band_d{d}_p{p:g}", rep.band,
                                        "<=", 4.0, "frozen-baseline"))
    art = _write_csv(cfg.output_dir, "decay-infinity.csv", "d,p,radius,ratio", rows)
    return ExperimentResult("decay-infinity", assertions, [art])


def _exp_strauss(cfg: ExperimentConfig) -> ExperimentResult:
    d, p = 3, 2.0
    centers = [1.5 * 2.0 ** m for m in range(1, 8)]
    train = bump_train((d - 1) / p, centers, width=0.4)
    fit = fit_decay_exponent(train, [1.1 * 2.0 ** m for m in range(1, 8)])
    rows = [(r, a) for r, a in zip(fit.radii, fit.amplitudes)]
    art = _write_csv(cfg.output_dir, "strauss.csv", "radius,amplitude", rows)
    return ExperimentResult("strauss", [
        Assertion("decay_exponent_minus_(d-1)/2", fit.decay_exponent - 1.0,
                  "abs<=", 0.1, "paper-exponent"),
    ], [art])


def _exp_blowup_origin(cfg: ExperimentConfig) -> ExperimentResult:
    params = SpaceParams(0.75, 2.0, 2.0, 2)
    rep = check_decay2(params, r_range=range(2, 11))
    rows = [(r, v) for r, v in zip(rep.radii, rep.lower_values)]
    art = _write_csv(cfg.output_dir, "blowup-origin.csv", "radius,value", rows)
    return ExperimentResult("blowup-origin", [
        Assertion("origin_exponent_minus_(d/p-s)",
                  rep.fitted_exponent - rep.expected_exponent, "abs<=", 0.05,
                  "paper-exponent"),
        Assertion("upper_witness_ratio_max", float(rep.upper_ratios.max()),
                  "<=", 1.0 + 1e-9, "identity"),
    ], [art])


def _exp_log_borderline(cfg: ExperimentConfig) -> ExperimentResult:
    params = SpaceParams(1.0, 2.0, math.inf, 2)
    rep = check_lim1(params, r_range=range(4, 13))
    rows = [(r, v) for r, v in zip(rep.radii, rep.ratios)]
    art = _write_csv(cfg.output_dir, "log-borderline.csv", "radius,ratio", rows)
    return ExperimentResult("log-borderline", [
        Assertion("ratio_band", rep.band, "<=", 2.0, "paper-exponent"),
    ], [art])


# bv-decay's bound on (lhs - tail) / tail: a few ulp, since lhs = tail exactly
# at each staircase's last radius
BV_DECAY_RTOL = 4.0 * float(np.finfo(float).eps)


def _exp_bv_decay(cfg: ExperimentConfig) -> ExperimentResult:
    rng = np.random.default_rng(cfg.seed)
    assertions, rows = [], []
    worst_violation = 0.0
    for d in (2, 3):
        for i in range(50):
            n = int(rng.integers(1, 11))
            radii = np.sort(rng.uniform(0.05, 10.0, n))
            vals = rng.normal(0.0, 2.0, n)
            st = staircase(list(zip(radii, vals)), d=d)
            rep = bv_decay_check(st, radii, d=d)
            violation = float(np.max((rep.lhs - rep.tail_bound) / rep.tail_bound))
            worst_violation = max(worst_violation, violation)
            rows.append((d, i, violation))
    assertions.append(Assertion("max_rel_violation_all_staircases", worst_violation,
                                "<=", BV_DECAY_RTOL, "paper-exponent"))
    for d in (2, 3):
        g = staircase([(2.0, 1.0)], d=d)
        rep = bv_decay_check(g, [2.0], d=d)
        assertions.append(Assertion(
            f"single_step_equality_gap_d{d}",
            float(abs(rep.lhs[0] - rep.tail_bound[0])), "<=", 1e-12, "identity"))
    art = _write_csv(cfg.output_dir, "bv-decay.csv", "d,case,rel_violation", rows)
    return ExperimentResult("bv-decay", assertions, [art])


def _bv_corpus(rng, d: int):
    corpus = []
    for i in range(8):
        n = int(rng.integers(1, 8))
        radii = np.sort(rng.uniform(0.2, 6.0, n))
        vals = rng.normal(0.0, 1.5, n)
        corpus.append(staircase(list(zip(radii, vals)), d=d))
    corpus.append(smooth_bump_bv(2.0, 0.7, d=d))
    corpus.append(smooth_bump_bv(4.0, 1.2, height=-2.0, d=d))
    return corpus


def _exp_bv_equivalence(cfg: ExperimentConfig) -> ExperimentResult:
    rng = np.random.default_rng(cfg.seed)
    assertions, rows = [], []
    for d in (2, 3):
        ratios = []
        for i, g in enumerate(_bv_corpus(rng, d)):
            rep = bv_equivalence_check(g, d)
            ratios.append(rep.ratio)
            rows.append((d, i, rep.ratio))
        band = max(ratios) / min(ratios)
        assertions.append(Assertion(f"ratio_spread_d{d}", band, "<=", 4.0,
                                    "frozen-baseline"))
        g = staircase([(1.0, 1.0), (3.0, -0.5)], d=d)
        base = bv_equivalence_check(g, d).ratio
        drift = max(abs(bv_equivalence_check(g.dilated(lam), d).ratio - base)
                    for lam in (0.25, 4.0))
        assertions.append(Assertion(f"dilation_drift_d{d}", drift, "<=", 1e-6,
                                    "identity"))
    art = _write_csv(cfg.output_dir, "bv-equivalence.csv", "d,case,ratio", rows)
    return ExperimentResult("bv-equivalence", assertions, [art])


def _exp_seq_identities(cfg: ExperimentConfig) -> ExperimentResult:
    rng = np.random.default_rng(cfg.seed)
    worst_bf = 0.0
    worst_hom = 0.0
    worst_mono = 0.0
    for i in range(100):
        d = int(rng.integers(1, 4))
        J = int(rng.integers(0, 7))
        K = int(rng.integers(0, 24))
        c = CoefficientGrid.random(rng, J, K, density=0.5)
        if not len(c):
            continue
        p = float(rng.uniform(0.3, 4.0))
        s = float(rng.uniform(-2.0, 2.0))
        pp = SpaceParams(s, p, p, d)
        b = seq_norm_bspqd(c, pp)
        f = seq_norm_fspqd(c, pp)
        worst_bf = max(worst_bf, abs(b - f) / b)
        scale = float(rng.uniform(0.1, 10.0))
        worst_hom = max(worst_hom, abs(seq_norm_bspqd(c.scaled(scale), pp)
                                       - scale * b) / (scale * b))
        q_lo = SpaceParams(s, p, 1.0, d)
        q_hi = SpaceParams(s, p, 3.0, d)
        gap = seq_norm_bspqd(c, q_hi) - seq_norm_bspqd(c, q_lo)
        worst_mono = max(worst_mono, gap / max(b, 1e-300))
    art = _write_csv(cfg.output_dir, "seq-identities.csv",
                     "b_eq_f_rel,homogeneity_rel,q_monotonicity_gap",
                     [(worst_bf, worst_hom, worst_mono)])
    return ExperimentResult("seq-identities", [
        Assertion("b_eq_f_at_p_eq_q_rel", worst_bf, "<=", 1e-10, "identity"),
        Assertion("homogeneity_rel", worst_hom, "<=", 1e-12, "identity"),
        Assertion("q_monotonicity_gap", worst_mono, "<=", 1e-12, "identity"),
    ], [art])


def _profile_corpus(rng, n: int = 50):
    corpus = []
    grid = Grid1D.uniform(2 ** -10, 4.0)
    for _ in range(n):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            c, w = float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.2, 1.0))
            a = float(rng.normal(0, 2))
            ev = (lambda c=c, w=w, a=a: lambda t:
                  a * (bump((np.abs(t) - c) / w) + bump((np.abs(t) + c) / w)))()
        elif kind == 1:
            w = float(rng.uniform(0.3, 1.5))
            a = float(rng.normal(0, 2))
            ev = (lambda w=w, a=a: lambda t: a * bump(np.abs(t) / w))()
        else:
            c1, c2 = sorted(rng.uniform(0.4, 3.0, 2))
            ev = (lambda c1=c1, c2=c2: lambda t:
                  bump((np.abs(t) - c1) / 0.3) - 0.5 * bump((np.abs(t) - c2) / 0.5)
                  - 0.5 * bump((np.abs(t) + c2) / 0.5))()
        corpus.append(RadialProfile.from_callable(ev, grid, d=2))
    return corpus


def _exp_trace_roundtrip(cfg: ExperimentConfig) -> ExperimentResult:
    rng = np.random.default_rng(cfg.seed)
    corpus = _profile_corpus(rng, 50)
    worst_rt = 0.0
    worst_cm = 0.0
    for prof in corpus:
        f = extend(prof, d=3)
        back = trace(f)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.values - prof.values))))
        for m in (0, 1):
            worst_cm = max(worst_cm, cm_norm(back, m) - cm_norm(f, m))
    art = _write_csv(cfg.output_dir, "trace-roundtrip.csv",
                     "roundtrip_max_err,cm_trace_gap_max",
                     [(worst_rt, worst_cm)])
    return ExperimentResult("trace-roundtrip", [
        Assertion("roundtrip_node_exact", worst_rt, "<=", 0.0, "identity"),
        Assertion("cm_trace_leq_field", worst_cm, "<=", 1e-12, "paper-exponent"),
    ], [art])


def _exp_support_shift(cfg: ExperimentConfig) -> ExperimentResult:
    params = SpaceParams(1.0, 2.0, 2.0, 2)
    taus = [2.0, 4.0, 8.0, 16.0]
    ratios, rows = [], []
    for tau in taus:
        ev = (lambda tau=tau: lambda t: bump((np.abs(t) - (tau + 0.5)) / 0.5))()
        prof = RadialProfile.from_callable(ev, Grid1D.uniform(2 ** -11, tau + 2.0),
                                           d=2)
        oned = lp_besov_norm_1d(prof, params, weighted=False, n_fft=2 ** 16,
                                T=tau + 2.0)
        dd = tb_norm(prof, params, J=10)
        ratios.append(oned / dd)
        rows.append((tau, oned, dd, oned / dd))
    slope = float(np.polyfit(np.log2(taus), np.log2(ratios), 1)[0])
    art = _write_csv(cfg.output_dir, "support-shift.csv",
                     "tau,norm_1d,norm_trace,ratio", rows)
    return ExperimentResult("support-shift", [
        Assertion("ratio_slope_minus_(-(d-1)/p)", slope - (-0.5), "abs<=", 0.15,
                  "paper-exponent"),
    ], [art])


def _exp_spherical_mean(cfg: ExperimentConfig) -> ExperimentResult:
    res = spherical_mean_wavelet_coeffs(d=2, p=1.0, Jmax=6, wavelet="db4",
                                        nodes_per_unit=2000,
                                        richardson_tol=1e-6)
    rows = [(int(j), s, int(c), m) for j, s, c, m in
            zip(res.levels, res.scaled_sums, res.counts, res.max_coeff)]
    art = _write_csv(cfg.output_dir, "spherical-mean-wavelet.csv",
                     "level,scaled_sum,count,max_coeff", rows)
    return ExperimentResult("spherical-mean-wavelet", [
        Assertion("scaled_sum_boundedness", res.boundedness_ratio(), "<=", 3.0,
                  "paper-exponent"),
        Assertion("count_growth_band", res.count_growth_band(), "<=", 2.0,
                  "paper-exponent"),
    ], [art])


def _exp_sobolev_reduction(cfg: ExperimentConfig) -> ExperimentResult:
    ps, shapes, ratio = (1.0, 2.0), ((1.2, 0.8), (0.9, 0.35)), {}
    for d in (2, 3):
        for (c, w) in shapes:
            ev = (lambda c=c, w=w: lambda r:
                  bump((np.asarray(r, float) - c) / w)
                  + bump((np.asarray(r, float) + c) / w))()
            prof = RadialProfile.from_callable(ev, Grid1D.uniform(5e-4, c + 2 * w),
                                               d=d)
            # one gradient field per (d, c, w), reduced for every p
            reps = _gradient_identity_reports(prof, ps, d, evaluator=ev)
            for p, rep in zip(ps, reps):
                ratio[d, p, c, w] = rep.ratio
    rows = [(d, p, c, w, ratio[d, p, c, w])
            for d in (2, 3) for p in ps for (c, w) in shapes]
    worst = max(abs(row[-1] - 1.0) for row in rows)
    art = _write_csv(cfg.output_dir, "sobolev-reduction.csv",
                     "d,p,center,width,ratio", rows)
    return ExperimentResult("sobolev-reduction", [
        Assertion("gradient_identity_max_rel_err", worst, "<=", 1e-4,
                  "paper-exponent"),
    ], [art])


def _exp_predicate_tables(cfg: ExperimentConfig) -> ExperimentResult:
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
    # one column per case (commas in the names become ';'); the first row
    # holds the computed predicates, the second the expected ones, as 1/0
    header = ",".join(name.replace(",", ";") for name, _, _ in cases)
    rows = [tuple(int(got) for _, got, _ in cases),
            tuple(int(want) for _, _, want in cases)]
    art = _write_csv(cfg.output_dir, "predicate-tables.csv", header, rows)
    failures = sum(1 for _, got, want in cases if got != want)
    return ExperimentResult("predicate-tables", [
        Assertion("table_mismatches", float(failures), "<=", 0.0, "paper-exponent"),
    ], [art])


def _exp_classification_map(cfg: ExperimentConfig) -> ExperimentResult:
    d = cfg.opt("d", 2, int)
    x0, x1, y0, y1 = FIGURE_RECT
    rect = (x0, cfg.opt("max_inv_p", x1), cfg.opt("min_s", y0), cfg.opt("max_s", y1))
    resolution = cfg.opt("resolution", 60, int)
    which = cfg.options.get("figure", "fig2")
    region = figure_region(which, d)
    art = cfg.output_dir / f"classification-{which}-d{d}.csv"
    write_classification_csv(art, region, rect, resolution)
    # the paper's label of the anchor (1/p, s) = (1, 1), from its conditions
    # rather than from the predicates drawn above: the trace lands in S' iff
    # s >= d/p - 1; at q = 1 the functions are bounded iff s >= d/p, and
    # below that line the anchor's blow-up at the origin is the controlled one
    inv_p, s = 1.0, 1.0
    expect = {"fig1": "trace-in-Sprime" if s >= d * inv_p - 1 else "not-in-Sprime",
              "fig2": "decay",
              "fig3": "bounded" if s >= d * inv_p else "controlled-unboundedness"}
    ok = 0.0 if region.label(inv_p, s) == expect[which] else 1.0
    return ExperimentResult("classification-map", [
        Assertion("anchor_point_(1,1)", ok, "<=", 0.0, "paper-exponent"),
    ], [art])


# the config options each experiment reads; any other key is refused, and an
# experiment not listed here reads none
OPTIONS: Dict[str, Tuple[str, ...]] = {
    "classification-map": ("figure", "d", "max_inv_p", "min_s", "max_s",
                           "resolution"),
}

REGISTRY: Dict[str, Tuple[Callable[[ExperimentConfig], ExperimentResult], str]] = {
    "scaling-f-j-lambda": (_exp_scaling_fjlam,
                           "thin-annulus norm scaling vs level and radius index"),
    "scaling-lp": (_exp_scaling_lp, "weighted L_p scaling of the annulus bumps"),
    "decay-infinity": (_exp_decay_infinity,
                       "lower-bound witnesses for the (d-1)/p decay rate"),
    "strauss": (_exp_strauss, "H^1 bump-train decay exponent (d-1)/2"),
    "blowup-origin": (_exp_blowup_origin,
                      "origin blow-up exponent d/p - s via dilated witnesses"),
    "log-borderline": (_exp_log_borderline,
                       "log-rate boundedness at s = d/p (q = inf witness)"),
    "bv-decay": (_exp_bv_decay, "r^{d-1}|g| <= tail variation for staircases"),
    "bv-equivalence": (_exp_bv_equivalence,
                       "d-dim vs weighted 1-D BV norm ratio stability"),
    "seq-identities": (_exp_seq_identities,
                       "b = f at p = q plus homogeneity/monotonicity"),
    "trace-roundtrip": (_exp_trace_roundtrip,
                        "tr/ext round trips and the C^m trace inequality"),
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
    result = func(cfg)
    result.write_summary(cfg.output_dir)
    return result
