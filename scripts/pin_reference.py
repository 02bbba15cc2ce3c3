#!/usr/bin/env python3
"""Rewrite tests/reference/summaries.json from a fresh `radialfs run-all`.

Usage: python scripts/pin_reference.py [reference.json]

Runs every registered experiment at its default options and records each
summary row: assertion name, measured value as float.hex, kind, threshold
and provenance.  tests/test_acceptance.py compares every default-option run
with this file.  Nothing is written unless every assertion passes.  Before
writing, it prints each row whose measured value differs from the file it
replaces (old value, new value, relative change) and the count of rows
that did not move.
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

from radialfs.cli import main as radialfs_main
from radialfs.experiments import REGISTRY, ExperimentConfig

DEFAULT = Path(__file__).resolve().parent.parent / "tests" / "reference" / "summaries.json"


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
    ``old`` and the fresh ``new`` (or that only one of them holds), then the
    count of unchanged rows."""
    def values(ref):
        return {(name, row["name"]): float.fromhex(row["measured"])
                for name, rows in ref.get("experiments", {}).items() for row in rows}

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
    report_moved(json.loads(target.read_text()) if target.exists() else {},
                 reference)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {sum(map(len, experiments.values()))} rows of "
          f"{len(experiments)} experiments to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
