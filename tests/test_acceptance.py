"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (run with -s to see them all); the
assertions mirror the summary rows the experiment CLI writes.
"""

import ast
import csv
import dataclasses
import json
import math
import runpy
from pathlib import Path

import pytest

from radialfs import core, decay, experiments, spaces, wavelets
from radialfs.decay import figure_region
from radialfs.experiments import REGISTRY, ExperimentConfig, run_experiment

# every summary row of every experiment at its default options, written by
# scripts/pin_reference.py
REFERENCE = json.loads(
    (Path(__file__).parent / "reference" / "summaries.json").read_text())
REFERENCE_RTOL = 1e-12
# the values no summary reads, at fixed inputs (pin_reference.corpus)
CORPUS = json.loads(
    (Path(__file__).parent / "reference" / "corpus.json").read_text())
PIN_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pin_reference.py"


def _run(name, tmp_path, **options):
    cfg = ExperimentConfig(name, output_dir=tmp_path,
                           options={k: str(v) for k, v in options.items()})
    result = run_experiment(cfg)
    data_file = (f"classification-{options.get('figure', 'fig2')}-d{options.get('d', 2)}.csv"
                 if name == "classification-map" else f"{name}.csv")
    _check_data_csvs(tmp_path, data_file, f"{name}-summary.csv")
    if not options and cfg.seed == REFERENCE["seed"]:
        _check_reference(name, tmp_path / f"{name}-summary.csv")
    return result


def _read_summary(path):
    # rows (name, measured, kind, threshold, provenance)
    with open(path, newline="") as fh:
        header, *lines = csv.reader(fh)
    assert header == ["assertion", "measured", "kind", "threshold",
                      "provenance", "status"]
    rows = []
    for line in lines:
        assert len(line) == len(header), f"{path.name}: ragged row {line}"
        name, measured, kind, threshold, provenance, _ = line
        rows.append((name, float(measured), kind, float(threshold), provenance))
    return rows


def _check_data_csvs(outdir, data_file, summary_file):
    # the run writes exactly its data file and its summary; the data file
    # holds plain numbers under its header, one field per header column; the
    # summary holds its six fields per row, with plain numbers as measured
    # and threshold
    assert sorted(p.name for p in outdir.iterdir()) == sorted([data_file, summary_file])
    assert _read_summary(outdir / summary_file), f"{summary_file}: no assertion rows"
    with open(outdir / data_file, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert rows, f"{data_file}: no data rows"
    for row in rows:
        assert len(row) == len(header), f"{data_file}: ragged row {row}"
        for value in row:
            float(value)


def _check_reference(name, summary):
    # each row matches its pinned value to REFERENCE_RTOL, and a row pinned
    # at 0 exactly; one message lists every row that moved
    pinned = REFERENCE["experiments"][name]
    got = _read_summary(summary)
    names, pinned_names = [r[0] for r in got], [p["name"] for p in pinned]
    assert names == pinned_names, \
        f"{name}: assertion rows {names} differ from the pinned {pinned_names}"
    moved = []
    for (row, measured, kind, threshold, provenance), p in zip(got, pinned):
        want = float.fromhex(p["measured"])
        rel = (abs(measured - want) / abs(want) if want
               else (0.0 if measured == 0.0 else float("inf")))
        if rel > REFERENCE_RTOL:
            moved.append(f"{row}: {measured!r} vs pinned {want!r} "
                         f"(relative difference {rel:.3g})")
        if (kind, threshold, provenance) != (p["kind"], p["threshold"],
                                             p["provenance"]):
            moved.append(f"{row}: {kind} {threshold!r} ({provenance}) vs pinned "
                         f"{p['kind']} {p['threshold']!r} ({p['provenance']})")
    assert not moved, (f"{name}: rows differ from tests/reference/summaries.json"
                       " (rewrite it with scripts/pin_reference.py only for a"
                       " deliberate change):\n" + "\n".join(moved))


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_rows_hold_only_python_numbers_and_strings(name, tmp_path):
    # write_csv writes each field as given: a numpy float would reach the
    # CSV as "np.float64(...)" and a numpy int is no int, so every field of
    # every data row must be a Python int, float or str (bool excluded)
    func, _ = REGISTRY[name]
    out = func(ExperimentConfig(name, output_dir=tmp_path))
    kinds = {type(v) for row in out.rows for v in row}
    assert kinds <= {int, float, str}, f"{name}: {kinds}"


def test_reference_pins_every_experiment():
    assert sorted(REFERENCE["experiments"]) == sorted(REGISTRY)


def test_corpus_matches_the_pinned_values():
    # every value within REFERENCE_RTOL of tests/reference/corpus.json; one
    # message lists every value that moved
    fresh = runpy.run_path(str(PIN_SCRIPT))["corpus"]()
    got = {(route, case): value for route, rows in fresh.items()
           for case, value in rows}
    want = {(route, row["name"]): float.fromhex(row["measured"])
            for route, rows in CORPUS["routes"].items() for row in rows}
    assert sorted(got) == sorted(want)
    moved = [f"{route} {case}: {got[route, case]!r} vs pinned {value!r}"
             for (route, case), value in sorted(want.items())
             if abs(got[route, case] - value) > REFERENCE_RTOL * abs(value)]
    assert not moved, ("values differ from tests/reference/corpus.json:\n"
                       + "\n".join(moved))


def test_report_moved_counts_rows_that_differ_bit_for_bit(capsys):
    # a changed last bit, a sign of zero, a new and a removed row move; a
    # row equal in every bit, though pinned in another group, does not
    report_moved = runpy.run_path(str(PIN_SCRIPT))["report_moved"]
    rows = lambda *pairs: [{"name": n, "measured": v.hex()} for n, v in pairs]
    old = {"a": rows(("same", 1.5), ("last bit", 0.1), ("zero", 0.0),
                     ("gone", 2.0)),
           "b": rows(("same", 1.5))}
    new = {"a": rows(("same", 1.5), ("last bit", math.nextafter(0.1, 1.0)),
                     ("zero", -0.0), ("added", 3.0)),
           "b": rows(("same", 1.5))}
    assert report_moved(old, new) == 4
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[1].strip() for line in out[:-1]] == [
        "a added", "a gone", "a last bit", "a zero"]
    assert "new row" in out[0] and "row removed" in out[1]
    assert out[-1] == "2 rows unchanged"
    assert report_moved(new, new) == 0


def _report(criterion, result):
    status = "PASS" if result.passed else "FAIL"
    detail = "; ".join(f"{a.name}={a.measured:.4g} ({a.kind} {a.threshold:g})"
                       for a in result.assertions)
    print(f"[{status}] criterion {criterion}: {detail}")
    return result.passed


def test_criterion_01_fjlam_norm_scaling(tmp_path):
    # slope of log2 norm of f_{5,lambda} vs log2 lambda: (d-1)/p = 0.5
    # within 0.10
    res = _run("scaling-f-j-lambda", tmp_path)
    assert _report(1, res)


def _force_weight(monkeypatch, weighted):
    # experiments' lp_besov_norm_1d with its weight |t|^{d-1} forced on or off
    norm = experiments.lp_besov_norm_1d
    monkeypatch.setattr(experiments, "lp_besov_norm_1d", lambda g, params, **kw:
                        norm(g, params, **{**kw, "weighted": weighted}))


def test_criterion_01_fails_without_the_weight(tmp_path, monkeypatch):
    # the norm of f_{5,lambda} without the weight |t|^{d-1}, whose support
    # sits near |t| = lambda 2^-5: the lambda slope loses (d-1)/p, so the
    # row moves from -7.0e-4 to about -0.5 against 0.10, and the experiment
    # must FAIL
    _force_weight(monkeypatch, weighted=False)
    res = run_experiment(ExperimentConfig("scaling-f-j-lambda", output_dir=tmp_path))
    [row] = res.assertions
    assert not row.passed and abs(row.measured + 0.5) < 0.01


def test_criterion_03_decay_at_infinity(tmp_path):
    # lower-bound witnesses at |x| = 2^r, r = 2..8, d = 2,3, p = 1,2:
    # ratio band max/min <= experiments.RATIO_BAND_MAX per (d, p); upper
    # route over a fixed corpus: band and largest ratio within
    # experiments.UPPER_ROUTE_BRACKETS
    res = _run("decay-infinity", tmp_path)
    assert _report(3, res)


def test_criterion_03_fails_on_a_wrong_decay_exponent(tmp_path, monkeypatch):
    # the upper route weighted by |x|^{d/p} for |x|^{(d-1)/p}: its largest
    # ratio moves from 0.180, 0.370, 0.154, 0.339 to 1.77, 1.15, 1.66, 1.11
    # and those rows must FAIL; the band of this corpus barely moves (4.87
    # -> 5.13 at d = 2, p = 1) and cannot tell the exponents apart
    far = decay._far_weighted_sup
    monkeypatch.setattr(decay, "_far_weighted_sup",
                        lambda prof, d, p: far(prof, d + 1, p))
    res = run_experiment(ExperimentConfig("decay-infinity", output_dir=tmp_path))
    failed = [a.name for a in res.assertions if not a.passed]
    assert failed == [f"upper_ratio_max_d{d}_p{p}" for d in (2, 3) for p in (1, 2)]


def test_criterion_03_fails_on_a_shifted_lower_exponent(tmp_path, monkeypatch):
    # the lower route's ratios times |x|^{0.1}, as from a decay exponent off
    # by 0.1 over |x| = 4..256: the bands move from 1.10-1.12 to 1.59-1.65
    # against 1.5, and only the four ratio_band rows must FAIL
    def shifted(cells, **kwargs):
        reps = decay.check_decay4(cells, **kwargs)
        out = []
        for rep in reps:
            ratios = rep.ratios * rep.radii ** 0.1
            out.append(dataclasses.replace(
                rep, ratios=ratios, band=float(ratios.max() / ratios.min())))
        return out

    monkeypatch.setattr(experiments, "check_decay4", shifted)
    res = run_experiment(ExperimentConfig("decay-infinity", output_dir=tmp_path))
    failed = [a for a in res.assertions if not a.passed]
    assert [a.name for a in failed] == [f"ratio_band_d{d}_p{p}"
                                        for d in (2, 3) for p in (1, 2)]
    assert all(1.55 < a.measured < 1.7 for a in failed)


def test_criterion_05_blowup_origin(tmp_path):
    # d = 2, p = 2, s = 0.75: measured origin exponent 0.25 +- 0.05
    res = _run("blowup-origin", tmp_path)
    assert _report(5, res)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_criterion_05_fails_on_a_shifted_exponent(tmp_path, monkeypatch, sign):
    # the normalised witness values times 2^{+-0.2 r} at |x| = 2^{-r}, as
    # from an origin exponent off by 0.2, refitted: the row moves from
    # -1.6e-5 to about +-0.2 against 0.05, so the experiment must FAIL
    def shifted(params, **kwargs):
        rep = decay.check_decay2(params, **kwargs)
        values = rep.lower_values * rep.radii ** (-sign * 0.2)
        return dataclasses.replace(rep, lower_values=values,
                                   fitted_exponent=-decay.fit_loglog(rep.radii, values))

    monkeypatch.setattr(experiments, "check_decay2", shifted)
    res = run_experiment(ExperimentConfig("blowup-origin", output_dir=tmp_path))
    failed = [a.name for a in res.assertions if not a.passed]
    assert not res.passed and failed == ["origin_exponent_minus_(d/p-s)"]
    assert abs(res.assertions[0].measured - sign * 0.2) < 1e-3


def test_criterion_07_bv_decay(tmp_path):
    # 100 seeded staircases, d = 2,3: inequality exact at every step radius;
    # single-step equality exact to 1e-12
    res = _run("bv-decay", tmp_path)
    assert _report(7, res)


def test_criterion_11_support_shift(tmp_path):
    # tau in {2,4,8,16}: log-slope of the norm ratio = -0.5 +- 0.15
    res = _run("support-shift", tmp_path)
    assert _report(11, res)


def test_criterion_11_fails_with_the_weight(tmp_path, monkeypatch):
    # the 1-D side weighted by |t|^{d-1}, as the trace side is: the ratio no
    # longer loses tau^{(d-1)/p}, so the row moves from 0.079 to 0.528
    # against 0.15, and the experiment must FAIL
    _force_weight(monkeypatch, weighted=True)
    res = run_experiment(ExperimentConfig("support-shift", output_dir=tmp_path))
    assert not res.passed
    assert abs(res.assertions[0].measured - 0.528) < 0.01


def test_criterion_12_spherical_mean(tmp_path):
    # d = 2, p = 1, j = 0..6: the slope of log2(scaled sum) over j within
    # 0.1 of 0; count growth fits 2^{j(d-1)} within factor 2
    res = _run("spherical-mean-wavelet", tmp_path)
    assert _report(12, res)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_criterion_12_fails_on_a_shifted_exponent(tmp_path, monkeypatch, sign):
    # the scaled sums times 2^{+-0.2 j}, as from a scaling exponent off by
    # 0.2, move the slope to +0.162 and -0.238: the experiment must FAIL
    def shifted(**kwargs):
        res = wavelets.spherical_mean_wavelet_coeffs(**kwargs)
        return dataclasses.replace(
            res, scaled_sums=res.scaled_sums * 2.0 ** (sign * 0.2 * res.levels))

    monkeypatch.setattr(experiments, "spherical_mean_wavelet_coeffs", shifted)
    res = run_experiment(ExperimentConfig("spherical-mean-wavelet",
                                          output_dir=tmp_path))
    failed = [a.name for a in res.assertions if not a.passed]
    assert not res.passed and failed == ["scaled_sum_log2_slope"]


def test_criterion_13_sobolev_reduction(tmp_path):
    # radial reduction vs full-dimensional gradient quadrature within 1e-4
    res = _run("sobolev-reduction", tmp_path)
    assert _report(13, res)


def test_criterion_13_fails_with_the_wrong_sphere_area(tmp_path, monkeypatch):
    # the radial side scaled by |S^d| in place of |S^{d-1}|: at d = 2, p = 1
    # the ratio halves, so the row moves from under 1e-4 to 0.5 and the
    # experiment must FAIL
    area = core.sphere_area
    monkeypatch.setattr(core, "sphere_area", lambda d: area(d + 1))
    res = run_experiment(ExperimentConfig("sobolev-reduction", output_dir=tmp_path))
    assert not res.passed
    assert abs(res.assertions[0].measured - 0.5) < 1e-3


def test_criterion_14_predicate_tables(tmp_path):
    # every cited example row of the five predicates
    res = _run("predicate-tables", tmp_path)
    assert _report(14, res)


def test_criterion_14_fails_with_the_borderline_swapped(tmp_path, monkeypatch):
    # the borderline rule reading p on the B scale and q on the F scale:
    # in_U(1,1,inf,F), in_U(.5,2,1,B) and Linfty(1.5,2,1,d3,B) flip, so
    # 3 mismatches against 0 and the experiment must FAIL
    def swapped(params, thr):
        if params.s == thr:
            return (params.p if params.scale == "B" else params.q) <= 1
        return params.s > thr

    monkeypatch.setattr(spaces, "_above", swapped)
    res = run_experiment(ExperimentConfig("predicate-tables", output_dir=tmp_path))
    assert not res.passed and res.assertions[0].measured == 3.0


def test_criterion_15_classification_map(tmp_path):
    # every figure at d = 2 on the shared rectangle (fig2, the default, also
    # against its pinned summary): (1, 1) carries the paper's label, and
    # every raster row flags exactly the label the region assigns
    for figure in ("fig1", "fig2", "fig3"):
        options = {} if figure == "fig2" else {"figure": figure}
        res = _run("classification-map", tmp_path / figure, **options)
        region = figure_region(figure, 2)
        with open(tmp_path / figure / f"classification-{figure}-d2.csv",
                  newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["inv_p", "s", *region.labels]
        for inv_p, s, *flags in rows:
            assert flags.count("1") == 1
            assert region.labels[flags.index("1")] == region.label(float(inv_p),
                                                                  float(s))
        assert _report(15, res)


def test_criterion_15_fails_with_the_continuity_line_at_d_over_p(tmp_path,
                                                                  monkeypatch):
    # U(A)'s boundary s = 1/p moved to s = d/p: the anchor (1, 1) of fig2 at
    # d = 2 leaves U(A) and reads no-decay, so the row moves from 0 to 1
    # and the experiment must FAIL
    monkeypatch.setattr(spaces, "in_U",
                        lambda params: spaces._above(params, params.d * params.inv_p))
    res = run_experiment(ExperimentConfig("classification-map", output_dir=tmp_path))
    assert not res.passed and res.assertions[0].measured == 1.0


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_criterion_15_anchor_every_figure_and_dimension(tmp_path, figure, d):
    # the anchor (1/p, s) = (1, 1) carries the paper's label in every figure
    # and dimension, read from its conditions (s >= d/p - 1, s >= d/p)
    res = _run("classification-map", tmp_path, figure=figure, d=d, resolution=4)
    assert res.passed, [a.row() for a in res.assertions]


def _mutated_experiments(tree):
    """The experiments a test module runs under a mutant: the first argument
    of each ``ExperimentConfig`` call in a test whose name holds "_fails_"."""
    names = set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and func.name.startswith("test_") \
                and "_fails_" in func.name:
            names |= {call.args[0].value for call in ast.walk(func)
                      if isinstance(call, ast.Call)
                      and getattr(call.func, "id", None) == "ExperimentConfig"
                      and call.args and isinstance(call.args[0], ast.Constant)}
    return names


def test_every_experiment_has_a_mutant_that_fails():
    # a new experiment must bring a test that breaks it and sees it FAIL
    mutated = set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        mutated |= _mutated_experiments(ast.parse(path.read_text()))
    assert mutated == set(REGISTRY)
