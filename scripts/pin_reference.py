#!/usr/bin/env python3
"""Rewrite tests/reference/summaries.json from a fresh `radialfs run-all`,
and tests/reference/corpus.json beside it, or check them against it.

Usage: python scripts/pin_reference.py [--check] [reference.json]

Runs every registered experiment at its default options and records each
summary row: assertion name, measured value as float.hex, kind, threshold
and provenance.  The corpus holds values no summary reads, at fixed inputs
and seeds (``corpus``): the atomic norms ``tb_norm``/``tf_norm`` with
p != q, the sequence norms on random coefficient grids with p != q, and
the FFT norm ``lp_besov_norm_1d`` at p in {1, 1.5, 2, inf} with q >= 1,
and both sides of the tensor gradient oracle (``gradient_oracle``).
tests/test_acceptance.py compares every default-option run and the corpus
with these files.  Nothing is written unless every assertion passes.
Before writing, it prints each row whose measured value differs from the
file it replaces (old value, new value, relative change) and the count of
rows that did not move.

With --check it writes nothing: it compares the fresh values with both files
bit for bit (float.hex), prints the moved, new and removed rows the same way,
and exits 1 when any row moved.  The last bit of a value may differ on
another CPU (its SIMD exp), so the check is for one machine, not for CI.
"""

import argparse
import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from radialfs import (CoefficientGrid, Grid1D, RadialProfile, SpaceParams,
                      lp_besov_norm_1d, make_f_j_lambda, seq_norm_bspqd,
                      seq_norm_fspqd, tb_norm, tf_norm)
from radialfs.bump import bump
from radialfs.core import _gradient_identity_reports
from radialfs.cli import main as radialfs_main
from radialfs.experiments import (REGISTRY, SOBOLEV_SHAPES, ExperimentConfig,
                                  _sobolev_evaluator)

DEFAULT = Path(__file__).resolve().parent.parent / "tests" / "reference" / "summaries.json"
INF = float("inf")


def corpus():
    """{route: [(case, value)]}: the values no summary reads.  The profiles
    are f_{j,lambda} for (j, lambda) in {(3, 4), (4, 8)} on a 2^-10 grid
    over [-2, 2], normed at d = 2; the coefficient grids are
    ``CoefficientGrid.random`` at seeds 1..3 with J = 6, K = 48.  The
    gradient oracle's cases are listed in ``gradient_oracle_cases``."""
    grid = Grid1D.uniform(2.0 ** -10, 2.0)
    profiles = [(f"f_{j}_{lam:g}", make_f_j_lambda(j, lam).profile(grid))
                for j, lam in ((3, 4.0), (4, 8.0))]
    out = {"tb_norm": [], "tf_norm": [], "seq_norm_bspqd": [],
           "seq_norm_fspqd": [], "lp_besov_norm_1d": []}
    for name, g in profiles:
        for s, p, q in ((0.5, 2.0, 1.0), (0.5, 1.0, 2.0), (1.2, 1.5, 3.0),
                        (0.75, 2.0, INF)):
            case = f"{name} s={s:g} p={p:g} q={q:g} J=8"
            out["tb_norm"].append((case, tb_norm(g, SpaceParams(s, p, q, 2), J=8)))
            if math.isfinite(q):
                out["tf_norm"].append(
                    (case, tf_norm(g, SpaceParams(s, p, q, 2, "F"), J=8)))
        for p, q in ((1.0, 2.0), (1.5, 1.0), (2.0, 4.0), (INF, 1.5)):
            for weighted in (True, False):
                out["lp_besov_norm_1d"].append((
                    f"{name} s=0.75 p={p:g} q={q:g} weighted={weighted}",
                    lp_besov_norm_1d(g, SpaceParams(0.75, p, q, 2),
                                     weighted=weighted, n_fft=2 ** 14, T=2.0)))
    for seed in (1, 2, 3):
        c = CoefficientGrid.random(np.random.default_rng(seed), 6, 48)
        for s, p, q, d in ((0.7, 1.5, 3.0, 2), (-0.5, 0.8, 2.5, 3),
                           (1.2, 3.0, 0.6, 1), (0.3, 2.0, INF, 2)):
            case = f"seed={seed} s={s:g} p={p:g} q={q:g} d={d}"
            out["seq_norm_bspqd"].append((case, seq_norm_bspqd(c, SpaceParams(s, p, q, d))))
            out["seq_norm_fspqd"].append(
                (case, seq_norm_fspqd(c, SpaceParams(s, p, q, d, "F"))))
        case = f"seed={seed} s=0.4 p=inf q=2 d=2"
        out["seq_norm_bspqd"].append(
            (case, seq_norm_bspqd(c, SpaceParams(0.4, INF, 2.0, 2))))
    out["gradient_oracle"] = gradient_oracle_cases()
    return out


def gradient_oracle_cases():
    """[(case, value)]: lhs_tensor and rhs_radial of the tensor gradient
    oracle on profiles whose nonzero shell differs: sobolev-reduction's bump
    pairs at the default n_grid with their evaluator (the (0.9, 0.35) pair
    vanishes near the origin too), a bump pair on its own piecewise-linear
    interpolation (evaluator None) at odd and even n_grid, the cone
    max(0, 1 - r), and a Gaussian, nonzero on the whole grid."""
    pair = lambda r: bump((r - 1.0) / 0.7) + bump((r + 1.0) / 0.7)
    cone = lambda r: np.maximum(0.0, 1.0 - np.asarray(r, float))
    gauss = lambda r: np.exp(-np.asarray(r, float) ** 2)
    cases = [(f"c={c:g} w={w:g}", _sobolev_evaluator(c, w), True,
              Grid1D.uniform(5e-4, c + 2 * w), d, None, (1.0, 2.0))
             for d in (2, 3) for c, w in SOBOLEV_SHAPES]
    cases += [("bump pair", pair, False, Grid1D.uniform(0.01, 2.0), d, n, (2.0,))
              for d in (2, 3) for n in (40, 41)]
    cases += [("cone", cone, True, Grid1D.uniform(2e-4, 1.3), 3, 200, (1.0,)),
              ("gaussian", gauss, True, Grid1D.uniform(5e-4, 3.0), 2, 301, (1.5,)),
              ("gaussian", gauss, True, Grid1D.uniform(5e-4, 3.0), 3, 61, (1.0, 1.5))]
    out = []
    for name, f, with_evaluator, grid, d, n_grid, ps in cases:
        prof = RadialProfile.from_callable(f, grid)
        reps = _gradient_identity_reports(prof, ps, d,
                                          evaluator=f if with_evaluator else None,
                                          n_grid=n_grid)
        for p, rep in zip(ps, reps):
            case = (f"{name} evaluator={with_evaluator} d={d} "
                    f"n_grid={n_grid or 'default'} p={p:g}")
            out += [(f"{case} lhs_tensor", rep.lhs_tensor),
                    (f"{case} rhs_radial", rep.rhs_radial)]
    return out


def read_summary(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for name, measured, kind, threshold, provenance, _ in reader:
            rows.append({"name": name, "measured": float(measured).hex(),
                         "kind": kind, "threshold": float(threshold),
                         "provenance": provenance})
    return rows


def report_moved(old, new):
    """Print each row whose measured value differs bit for bit (float.hex)
    between the reference groups ``old`` and the fresh ``new`` ({group:
    rows}; a row missing from one of them counts too), then the count of
    unchanged rows; return the count of rows that moved."""
    def values(groups):
        return {(name, row["name"]): row["measured"]
                for name, rows in groups.items() for row in rows}

    before, after = values(old), values(new)
    keys = sorted(before.keys() | after.keys())
    moved = 0
    for key in keys:
        if before.get(key) == after.get(key):
            continue
        moved += 1
        was, now = (None if v is None else float.fromhex(v)
                    for v in (before.get(key), after.get(key)))
        if was is None or now is None:
            change = "new row" if was is None else "row removed"
        else:
            rel = abs(now - was) / abs(was) if was else float("inf")
            change = f"relative change {rel:.3g}"
        print(f"moved: {key[0]} {key[1]}: {was!r} -> {now!r} ({change})")
    print(f"{len(keys) - moved} rows unchanged")
    return moved


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reference", nargs="?", type=Path, default=DEFAULT)
    parser.add_argument("--check", action="store_true",
                        help="compare with the pinned files; write nothing")
    args = parser.parse_args(argv)
    target = args.reference
    with tempfile.TemporaryDirectory() as tmp:
        if radialfs_main(["run-all", tmp]) != 0:
            print("run-all failed; reference left unchanged", file=sys.stderr)
            return 1
        experiments = {name: read_summary(Path(tmp) / name / f"{name}-summary.csv")
                       for name in sorted(REGISTRY)}
    # run-all's seed: the default, or RADIALFS_SEED when that is set
    reference = {"seed": ExperimentConfig("").seed, "experiments": experiments}
    routes = {route: [{"name": case, "measured": value.hex()} for case, value in rows]
              for route, rows in corpus().items()}
    moved = 0
    for path, key, doc in ((target, "experiments", reference),
                           (target.with_name("corpus.json"), "routes", {"routes": routes})):
        moved += report_moved(
            json.loads(path.read_text()).get(key, {}) if path.exists() else {},
            doc[key])
        if args.check:
            print(f"checked {path}")
            continue
        target.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {sum(map(len, doc[key].values()))} rows of "
              f"{len(doc[key])} {key} to {path}")
    if args.check:
        print(f"{moved} rows moved")
        return 1 if moved else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
