#!/usr/bin/env python3
"""Rewrite tests/reference/summaries.json from a fresh `radialfs run-all`,
and tests/reference/corpus.json beside it.

Usage: python scripts/pin_reference.py [reference.json]

Runs every registered experiment at its default options and records each
summary row: assertion name, measured value as float.hex, kind, threshold
and provenance.  The corpus holds values no summary reads, at fixed inputs
and seeds (``corpus``): the atomic norms ``tb_norm``/``tf_norm`` with
p != q, the sequence norms on random coefficient grids with p != q, and
the FFT norm ``lp_besov_norm_1d`` at p in {1, 1.5, 2, inf} with q >= 1.
tests/test_acceptance.py compares every default-option run and the corpus
with these files.  Nothing is written unless every assertion passes.
Before writing, it prints each row whose measured value differs from the
file it replaces (old value, new value, relative change) and the count of
rows that did not move.
"""

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from radialfs import (CoefficientGrid, Grid1D, SpaceParams, lp_besov_norm_1d,
                      make_f_j_lambda, seq_norm_bspqd, seq_norm_fspqd,
                      tb_norm, tf_norm)
from radialfs.cli import main as radialfs_main
from radialfs.experiments import REGISTRY, ExperimentConfig

DEFAULT = Path(__file__).resolve().parent.parent / "tests" / "reference" / "summaries.json"
INF = float("inf")


def corpus():
    """{route: [(case, value)]}: the values no summary reads.  The profiles
    are f_{j,lambda} for (j, lambda) in {(3, 4), (4, 8)} with d = 2 on a
    2^-10 grid over [-2, 2]; the coefficient grids are
    ``CoefficientGrid.random`` at seeds 1..3 with J = 6, K = 48."""
    grid = Grid1D.uniform(2.0 ** -10, 2.0)
    profiles = [(f"f_{j}_{lam:g}", make_f_j_lambda(j, lam).profile(grid, d=2))
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
    """Print each row whose measured value differs between the reference
    groups ``old`` and the fresh ``new`` ({group: rows}; a row missing from
    one of them counts too), then the count of unchanged rows."""
    def values(groups):
        return {(name, row["name"]): float.fromhex(row["measured"])
                for name, rows in groups.items() for row in rows}

    before, after = values(old), values(new)
    unchanged = 0
    for key in sorted(before.keys() | after.keys()):
        was, now = before.get(key), after.get(key)
        if was == now:
            unchanged += 1
            continue
        if was is None or now is None:
            change = "new row" if was is None else "row removed"
        else:
            rel = abs(now - was) / abs(was) if was else float("inf")
            change = f"relative change {rel:.3g}"
        print(f"moved: {key[0]} {key[1]}: {was!r} -> {now!r} ({change})")
    print(f"{unchanged} rows unchanged")


def main(argv):
    target = Path(argv[0]) if argv else DEFAULT
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
    target.parent.mkdir(parents=True, exist_ok=True)
    for path, key, doc in ((target, "experiments", reference),
                           (target.with_name("corpus.json"), "routes", {"routes": routes})):
        report_moved(json.loads(path.read_text()).get(key, {}) if path.exists() else {},
                     doc[key])
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {sum(map(len, doc[key].values()))} rows of "
              f"{len(doc[key])} {key} to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
