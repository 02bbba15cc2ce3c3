"""Command-line experiment runner.

Subcommands:
  radialfs run <config>        run the experiment named in the config file
  radialfs run-all [out_dir]   run every experiment, each into out_dir/<name>
  radialfs list                list experiment names with one-line docs
  radialfs map --region=<fig1|fig2|fig3> [--rect=a,b,c,d] [--res=N] [--d=D]
                               rasterize a (1/p, s) figure; the rectangle
                               defaults to 0.01,3,-1,4

Config files are flat key = value text with an optional [experiment] section
(INI style); JSON files ({"experiment": ..., "seed": ..., ...}) are accepted
as an alternative.  Keys other than experiment, seed and output_dir must be
options the experiment reads (experiments.OPTIONS).  The RADIALFS_SEED
environment variable overrides the config seed; either must be an integer.
Exit codes: 0 all assertions pass, 1 assertion failure, 2 config or runtime
error, an unreadable config or unwritable output path included.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from pathlib import Path

from .decay import FIGURE_RECT, classification_table, figure_region
from .errors import ConfigError, RadialfsError
from .experiments import (ExperimentConfig, ExperimentResult, list_experiments,
                          run_experiment, write_csv)


def _load_config(path: Path) -> ExperimentConfig:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    data = {}
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"bad JSON config {path}: line {e.lineno}: {e.msg}")
        if not isinstance(data, dict):
            raise ConfigError(f"JSON config {path} must hold one object")
    else:
        parser = configparser.ConfigParser()
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        if not first.startswith("["):
            text = "[experiment]\n" + text
        try:
            parser.read_string(text)
        except configparser.Error as e:
            raise ConfigError(f"bad config {path}: {e}")
        for section in parser.sections():
            data.update(dict(parser[section]))
    if "experiment" not in data:
        raise ConfigError(f"config {path} is missing the 'experiment' field")
    name = str(data.pop("experiment"))
    seed = data.pop("seed", ExperimentConfig.seed)
    outdir = Path(data.pop("output_dir", "out"))
    return ExperimentConfig(name, seed=seed, output_dir=outdir,
                            options={k: str(v) for k, v in data.items()})


def _print_assertions(result: ExperimentResult) -> None:
    for a in result.assertions:
        status = "pass" if a.passed else "FAIL"
        print(f"[{status}] {result.name}: {a.name} = {a.measured:.6g} "
              f"({a.kind} {a.threshold:g}; {a.provenance})")


def _cmd_run(args) -> int:
    result = run_experiment(_load_config(Path(args.config)))
    _print_assertions(result)
    print(f"artifacts: {', '.join(str(p) for p in result.artifacts)}")
    return 0 if result.passed else 1


def _cmd_run_all(args) -> int:
    all_ok = True
    for name, _ in list_experiments():
        t0 = time.perf_counter()
        result = run_experiment(ExperimentConfig(name, output_dir=args.output_dir / name))
        _print_assertions(result)
        print(f"         {name} finished in {time.perf_counter() - t0:.1f}s")
        all_ok &= result.passed
    print("ALL PASS" if all_ok else "FAILURES PRESENT")
    return 0 if all_ok else 1


def _cmd_list(_args) -> int:
    for name, doc in list_experiments():
        print(f"{name:26s} {doc}")
    return 0


def _cmd_map(args) -> int:
    rect = FIGURE_RECT
    if args.rect is not None:
        try:
            a, b, c, d = (float(x) for x in args.rect.split(","))
        except ValueError:
            raise ConfigError(f"--rect must be four comma-separated numbers, got {args.rect!r}")
        rect = (a, b, c, d)
    out = Path(args.output)
    header, rows = classification_table(figure_region(args.region, args.d), rect, args.res)
    write_csv(out, header, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="radialfs",
                                     description="radial function space experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_all = sub.add_parser("run-all", help="run every registered experiment")
    p_all.add_argument("output_dir", nargs="?", default="out", type=Path,
                       help="directory for per-experiment outputs (default: out)")
    p_all.set_defaults(func=_cmd_run_all)

    p_list = sub.add_parser("list", help="list experiments")
    p_list.set_defaults(func=_cmd_list)

    p_map = sub.add_parser("map", help="rasterize a classification figure")
    p_map.add_argument("--region", required=True, help="fig1, fig2 or fig3")
    p_map.add_argument("--rect", help="min_inv_p,max_inv_p,min_s,max_s "
                       f"(default: {','.join(map(str, FIGURE_RECT))})")
    p_map.add_argument("--res", type=int, default=60)
    p_map.add_argument("--d", type=int, default=2)
    p_map.add_argument("--output", default="out/classification.csv")
    p_map.set_defaults(func=_cmd_map)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (RadialfsError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
