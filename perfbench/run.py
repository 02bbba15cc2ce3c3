#!/usr/bin/env python3
"""radialfs benchmark: one workload in one single-threaded process.

Usage (from the repository root):

    python3 perfbench/run.py --workload {suite,j-sweep,d3-tensor,all} \\
        --seed N --seconds S --trace {0,1}

The run measures set-up time in fresh processes, then repeats passes of the
workload until ``--seconds`` have elapsed (a pass is never cut short, and at
least one runs), gating every operation.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``setup_s``, ``wall_s``, ``peak_rss_mb``); with
``--trace 1`` untraced and traced passes alternate, and the metrics are the
per-layer spans and counts of ``tracing.py`` plus the tracing overhead.

The benchmark imports the package from ``src/`` next to this directory and
exits with status 2, printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
WORKLOADS = ["suite", "j-sweep", "d3-tensor"]
# Slowest experiments first, as ROADMAP measured them; the traced suite run
# reports whether its own ranking agrees.
ROADMAP_TOP4 = ["sobolev-reduction", "spherical-mean-wavelet",
                "scaling-f-j-lambda", "decay-infinity"]


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_environment() -> None:
    """Clear RADIALFS_SEED (ExperimentConfig reads it) and cap BLAS/OpenMP
    threads at nproc; must run before numpy is imported."""
    os.environ.pop("RADIALFS_SEED", None)
    cap = nproc()
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = cap
        os.environ[var] = str(min(max(current, 1), cap))


def import_package():
    if not (SRC / "radialfs" / "__init__.py").is_file():
        print(f"error: no radialfs package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import radialfs
    if Path(radialfs.__file__).resolve().parent != (SRC / "radialfs").resolve():
        print(f"error: imported radialfs from {radialfs.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def setup_probe_seconds() -> float:
    """Process start to the end of lazy set-up, in a fresh interpreter."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                           "--setup-probe"], stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def environment(seed: int) -> dict:
    import numpy
    import scipy
    head = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            head = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            head = None
    source = hashlib.sha256()
    for path in sorted((SRC / "radialfs").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"seed": seed, "nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_head": head, "source_sha256": source.hexdigest()[:16],
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "RADIALFS_SEED": os.environ.get("RADIALFS_SEED")}


def tail_percentile(times) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return f"{n} passes (a tail percentile needs 11 or more)"
    pct = int(100 * (1 - 10 / n))
    return (f"p{pct} {statistics.quantiles(times, n=100)[pct - 1]:.4f} s "
            f"over {n} passes")


def timed_pass(workload, ops) -> float:
    start = time.perf_counter()
    workload.run_pass(ops)
    return time.perf_counter() - start


def run_untraced(workload, ops, seconds: float):
    times, digests = [], []
    while not times or sum(times) < seconds:
        times.append(timed_pass(workload, ops))
        digests.append(ops.take_digest())
    return times, digests


def run_traced(workload, ops, seconds: float):
    """Untraced and traced passes alternate, so the overhead compares passes
    made under the same conditions; returns per-pass snapshots of the spans."""
    import tracing
    tracer = tracing.Tracer()
    untraced, times, snapshots, digests = [], [], [], []
    while not times or sum(untraced) + sum(times) < seconds:
        if len(untraced) <= len(times):
            untraced.append(timed_pass(workload, ops))
        else:
            tracer.reset()
            installed = tracing.Installed(tracer)
            try:
                times.append(timed_pass(workload, ops))
            finally:
                installed.remove()
            snapshots.append(tracer.metrics())
        digests.append(ops.take_digest())
    units = dict(tracing.metric_names())
    metrics = {}
    for name in snapshots[0]:
        values = [snap[name] for snap in snapshots]
        if units[name] == "count" and len(set(values)) > 1:
            print(f"warning: {name} differs between passes: {values}")
        metrics[name] = values[0] if units[name] == "count" else statistics.median(values)
    traced, reference = statistics.median(times), statistics.median(untraced)
    metrics.update({"trace.pass_s": traced, "trace.untraced_pass_s": reference,
                    "trace.overhead_s": traced - reference})
    return times, digests, metrics


def report_layers(metrics: dict, workload: str) -> None:
    rows = sorted(((v, k) for k, v in metrics.items() if k.endswith("busy_s") and v),
                  reverse=True)
    for value, name in rows:
        print(f"  {name:<52} {value:10.4f} s")
    for name, value in metrics.items():
        if not name.endswith("_s") and value:
            print(f"  {name:<52} {value:>14,}")
    if workload == "suite":
        exp = sorted(((v, k) for k, v in metrics.items()
                      if k.startswith("experiments.") and k.endswith(".busy_s")
                      and k != "experiments.run_experiment.busy_s"), reverse=True)
        top4 = [k.split(".")[1] for _, k in exp[:4]]
        print(f"top four experiments by busy_s: {', '.join(top4)} "
              f"({'matches' if top4 == ROADMAP_TOP4 else 'differs from'} ROADMAP)")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        help="'all' runs each workload in its own process, in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        for name in WORKLOADS:
            code = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
            if code:
                return code
        return 0
    pin_environment()
    import_package()
    import workloads

    if args.setup_probe:
        workloads.prepare()
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    seed = args.seed & 0xFFFFFFFF
    setup = sorted(setup_probe_seconds() for _ in range(SETUP_PROBES))
    workloads.prepare()
    scratch = SCRATCH / str(os.getpid())
    workload = workloads.WORKLOADS[args.workload](seed, scratch)
    ops = workloads.Ops()
    try:
        if args.trace:
            times, digests, layer_metrics = run_traced(workload, ops, args.seconds)
        else:
            times, digests = run_untraced(workload, ops, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    control = workloads.negative_control(seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wall = statistics.median(times)
    control_ok = control.attempted == control.failed == 1
    correct = ops.failed == 0 and control_ok
    kind = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}, seed {seed}: {len(times)} {kind} passes "
          f"of {', '.join(f'{t:.3f}' for t in times)} s")
    print(f"setup_s {statistics.median(setup):.4f} s "
          f"(median of {SETUP_PROBES} fresh processes: "
          f"{', '.join(f'{t:.3f}' for t in setup)})")
    if args.trace:
        print(f"traced pass {wall:.4f} s median, untraced pass "
              f"{layer_metrics['trace.untraced_pass_s']:.4f} s, tracing overhead "
              f"{layer_metrics['trace.overhead_s']:+.4f} s")
    else:
        print(f"wall_s {wall:.4f} s median, {tail_percentile(times)}")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"ops_failed_frac {ops.failed / ops.attempted:g} "
          f"({ops.failed} of {ops.attempted} operations failed)")
    for failure in ops.failures:
        print(f"  FAILED {failure}")
    print(f"negative control (b-norm reference weight (1+k)^d): "
          f"{control.failed} of {control.attempted} counted as failed "
          f"({'as required' if control_ok else 'THE GATE CANNOT FAIL'})")
    print(f"digest {digests[-1]} ({len(set(digests))} distinct over "
          f"{len(digests)} passes)")
    print("environment " + json.dumps(environment(seed), sort_keys=True))

    if args.trace:
        report_layers(layer_metrics, args.workload)
        import tracing
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit in tracing.metric_names()}
    else:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                   "wall_s": {"value": wall, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
