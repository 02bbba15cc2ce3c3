"""Command-line experiment runner.

Subcommands:
  radialfs run <config>        run the experiment named in the config file
  radialfs run-all [out_dir]   run every experiment, each into out_dir/<name>
  radialfs list                list experiment names with one-line docs

Config files are flat key = value text with an optional [experiment] section
(INI style, no interpolation: a % is literal).  Keys other than experiment,
seed and output_dir must be options the experiment reads
(experiments.OPTIONS); a classification-map config rasterizes a (1/p, s)
figure.  The RADIALFS_SEED environment variable overrides the config seed;
either must be an integer.
Exit codes: 0 all assertions pass, 1 assertion failure, 2 config or runtime
error, an unreadable config or unwritable output path included.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
from pathlib import Path

from .errors import ConfigError, RadialfsError
from .experiments import (ExperimentConfig, ExperimentResult, list_experiments,
                          run_experiment)


def _load_config(path: Path) -> ExperimentConfig:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not UTF-8 text: {e}")
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    if not first.startswith("["):
        text = "[experiment]\n" + text
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"bad config {path}: {e}")
    data = {}
    for section in parser.sections():
        data.update(parser[section])
    if "experiment" not in data:
        raise ConfigError(f"config {path} is missing the 'experiment' field")
    name = data.pop("experiment")
    seed = data.pop("seed", ExperimentConfig.seed)
    outdir = data.pop("output_dir", "out")
    return ExperimentConfig(name, seed=seed, output_dir=outdir, options=data)


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
