#!/usr/bin/env python3
"""Run every registered experiment and print one status line per assertion.

Usage: python scripts/run_all_experiments.py [output_dir] [--parallel]
Exit status 0 iff every assertion of every experiment passes; 2 on a bad
command line.
"""

import argparse
import sys
import time
from pathlib import Path

from radialfs.experiments import REGISTRY, ExperimentConfig, run_experiment


def main(argv):
    parser = argparse.ArgumentParser(
        description="Run every registered experiment and report each assertion.")
    parser.add_argument("output_dir", nargs="?", default="out", type=Path,
                        help="directory for per-experiment outputs (default: out)")
    parser.add_argument("--parallel", action="store_true",
                        help="witness-level parallelism with deterministic merge")
    args = parser.parse_args(argv)
    options = {"parallel": "1"} if args.parallel else {}
    all_ok = True
    for name in sorted(REGISTRY):
        cfg = ExperimentConfig(name, output_dir=args.output_dir / name,
                               options=dict(options))
        t0 = time.time()
        result = run_experiment(cfg)
        for a in result.assertions:
            status = "pass" if a.passed else "FAIL"
            print(f"[{status}] {name}: {a.name} = {a.measured:.6g} "
                  f"({a.kind} {a.threshold:g}; {a.provenance})")
        print(f"         {name} finished in {time.time() - t0:.1f}s")
        all_ok &= result.passed
    print("ALL PASS" if all_ok else "FAILURES PRESENT")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
