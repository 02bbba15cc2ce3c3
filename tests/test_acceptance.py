"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (run with -s to see them all); the
assertions mirror the summary rows the experiment CLI writes.
"""

import csv
import json
from pathlib import Path

import pytest

from radialfs.decay import figure_region
from radialfs.experiments import REGISTRY, ExperimentConfig, run_experiment

# every summary row of every experiment at its default options, written by
# scripts/pin_reference.py
REFERENCE = json.loads(
    (Path(__file__).parent / "reference" / "summaries.json").read_text())
REFERENCE_RTOL = 1e-12


def _run(name, tmp_path, **options):
    cfg = ExperimentConfig(name, output_dir=tmp_path,
                           options={k: str(v) for k, v in options.items()})
    result = run_experiment(cfg)
    _check_data_csvs(tmp_path)
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


def _check_data_csvs(outdir):
    # every data file holds plain numbers under its header, one field per
    # header column; the summary holds its six fields per row, with plain
    # numbers as measured and threshold
    data = []
    for path in sorted(outdir.iterdir()):
        if path.name.endswith("-summary.csv"):
            assert _read_summary(path), f"{path.name}: no assertion rows"
        else:
            data.append(path)
    assert data, f"no data CSV written in {outdir}"
    for path in data:
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows, f"{path.name}: no data rows"
        for row in rows:
            assert len(row) == len(header), f"{path.name}: ragged row {row}"
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


def test_reference_pins_every_experiment():
    assert sorted(REFERENCE["experiments"]) == sorted(REGISTRY)


def _report(criterion, result):
    status = "PASS" if result.passed else "FAIL"
    detail = "; ".join(f"{a.name}={a.measured:.4g} ({a.kind} {a.threshold:g})"
                       for a in result.assertions)
    print(f"[{status}] criterion {criterion}: {detail}")
    return result.passed


def test_criterion_01_fjlam_norm_scaling(tmp_path):
    # slopes of log2 norm vs j and vs log2 lambda: s - d/p = 0 within 0.15,
    # (d-1)/p = 0.5 within 0.10
    res = _run("scaling-f-j-lambda", tmp_path)
    assert _report(1, res)


def test_criterion_02_lp_scaling(tmp_path):
    # slopes -d/p and (d-1)/p within 0.02 (pure quadrature, tight)
    res = _run("scaling-lp", tmp_path)
    assert _report(2, res)


def test_criterion_03_decay_at_infinity(tmp_path):
    # lower-bound witnesses at |x| = 2^r, r = 2..8, d = 2,3, p = 1,2:
    # ratio band max/min <= 4 per (d, p)
    res = _run("decay-infinity", tmp_path)
    assert _report(3, res)


def test_criterion_04_strauss(tmp_path):
    # d = 3, p = 2, s = 1 bump train: fitted decay exponent 1.0 +- 0.1
    res = _run("strauss", tmp_path)
    assert _report(4, res)


def test_criterion_05_blowup_origin(tmp_path):
    # d = 2, p = 2, s = 0.75: measured origin exponent 0.25 +- 0.05
    res = _run("blowup-origin", tmp_path)
    assert _report(5, res)


def test_criterion_06_log_borderline(tmp_path):
    # q = inf witness: (-log|x|)^{-1} |f(x)| constant within factor 2
    res = _run("log-borderline", tmp_path)
    assert _report(6, res)


def test_criterion_07_bv_decay(tmp_path):
    # 100 seeded staircases, d = 2,3: inequality exact at every step radius;
    # single-step equality exact to 1e-12
    res = _run("bv-decay", tmp_path)
    assert _report(7, res)


def test_criterion_08_bv_equivalence(tmp_path):
    # ratio bracket spread <= 4 on the staircase+bump corpus; dilation
    # invariance to 1e-6
    res = _run("bv-equivalence", tmp_path)
    assert _report(8, res)


def test_criterion_09_sequence_identities(tmp_path):
    # b = f at p = q within 1e-10 on 100 random grids; homogeneity and
    # monotonicity properties
    res = _run("seq-identities", tmp_path)
    assert _report(9, res)


def test_criterion_10_trace_roundtrips(tmp_path):
    # node-exact round trips on a 50-profile corpus; C^m trace inequality
    res = _run("trace-roundtrip", tmp_path)
    assert _report(10, res)


def test_criterion_11_support_shift(tmp_path):
    # tau in {2,4,8,16}: log-slope of the norm ratio = -0.5 +- 0.15
    res = _run("support-shift", tmp_path)
    assert _report(11, res)


def test_criterion_12_spherical_mean(tmp_path):
    # d = 2, p = 1, j = 0..6: scaled sums max/first <= 3; count growth fits
    # 2^{j(d-1)} within factor 2
    res = _run("spherical-mean-wavelet", tmp_path)
    assert _report(12, res)


def test_criterion_13_sobolev_reduction(tmp_path):
    # radial reduction vs full-dimensional gradient quadrature within 1e-4
    res = _run("sobolev-reduction", tmp_path)
    assert _report(13, res)


def test_criterion_14_predicate_tables(tmp_path):
    # every cited example row of the five predicates
    res = _run("predicate-tables", tmp_path)
    assert _report(14, res)


def test_criterion_15_classification_map(tmp_path):
    # fig2 at d = 2 on the shared rectangle: (1, 1) lies in the decay region,
    # and every raster row flags exactly the label the region assigns
    res = _run("classification-map", tmp_path)
    region = figure_region("fig2", 2)
    with open(tmp_path / "classification-fig2-d2.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["inv_p", "s", *region.labels]
    for inv_p, s, *flags in rows:
        assert flags.count("1") == 1
        assert region.labels[flags.index("1")] == region.label(float(inv_p), float(s))
    assert _report(15, res)


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_criterion_15_anchor_every_figure_and_dimension(tmp_path, figure, d):
    # the anchor (1/p, s) = (1, 1) carries the paper's label in every figure
    # and dimension, read from its conditions (s >= d/p - 1, s >= d/p)
    res = _run("classification-map", tmp_path, figure=figure, d=d, resolution=4)
    assert res.passed, [a.row() for a in res.assertions]
