import json
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from radialfs import experiments
from radialfs.cli import _load_config, main
from radialfs.errors import ConfigError
from radialfs.experiments import (Assertion, ExperimentConfig, Outcome,
                                  list_experiments, run_experiment, write_csv)
from radialfs.spaces import fig3_region


REQUIRED_EXPERIMENTS = [
    "scaling-f-j-lambda", "decay-infinity", "blowup-origin",
    "bv-decay", "support-shift", "spherical-mean-wavelet",
    "sobolev-reduction", "predicate-tables", "classification-map",
]

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


class TestListing:
    def test_registry_complete(self):
        names = [name for name, _ in list_experiments()]
        assert names == sorted(REQUIRED_EXPERIMENTS)

    def test_docs_one_line(self):
        for _, doc in list_experiments():
            assert doc and "\n" not in doc

    def test_cli_list_exit_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bv-decay" in out and "spherical-mean-wavelet" in out


class TestRunAll:
    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["-h"], 0),
                                            (["--no-such-flag"], 2)])
    def test_bad_or_help_flags_run_nothing(self, tmp_path, monkeypatch, capsys,
                                           argv, code):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run-all"] + argv)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert ("output_dir" in out) if code == 0 else ("--no-such-flag" in err)
        assert list(tmp_path.iterdir()) == []

    def test_failure_exits_one_and_reports_every_experiment(self, tmp_path,
                                                            monkeypatch, capsys):
        def fake(measured):
            return lambda cfg: Outcome(
                [Assertion("check", measured, "<=", 1.0, "identity")], ("x",), [])

        monkeypatch.setattr(experiments, "REGISTRY", {
            "good": (fake(0.5), "passes"),
            "bad": (fake(2.0), "fails")})
        assert main(["run-all", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[pass] good: check = 0.5" in out
        assert "[FAIL] bad: check = 2" in out
        assert "FAILURES PRESENT" in out
        assert (tmp_path / "good" / "good-summary.csv").exists()
        assert (tmp_path / "bad" / "bad-summary.csv").exists()


class TestPinReferenceScript:
    def test_lists_moved_rows(self, capsys):
        report_moved = runpy.run_path(str(SCRIPTS / "pin_reference.py"))["report_moved"]

        def ref(**rows):
            return {"e": [{"name": k, "measured": v.hex()} for k, v in rows.items()]}

        report_moved(ref(a=1.0, b=2.0, c=3.0), ref(a=1.0, b=2.5, d=0.5))
        assert capsys.readouterr().out.splitlines() == [
            "moved: e b: 2.0 -> 2.5 (relative change 0.25)",
            "moved: e c: 3.0 -> None (row removed)",
            "moved: e d: None -> 0.5 (new row)",
            "1 rows unchanged"]


class TestWriteCsv:
    def test_fields_parse_as_numbers(self, tmp_path):
        rows = [(0.25, 1.5, 3), (1e-300, -0.0, 7)]
        path = write_csv(tmp_path / "numbers.csv", ("a", "b", "c"), rows)
        header, *lines = path.read_text().splitlines()
        assert header == "a,b,c"
        parsed = [tuple(float(v) for v in line.split(",")) for line in lines]
        assert parsed == [tuple(float(v) for v in row) for row in rows]

    def test_bytes(self, tmp_path):
        # fields written as given (every experiment's rows hold Python
        # numbers and strings only: test_acceptance), floats by their repr,
        # the sign of -0.0 kept, a field holding a comma quoted, "\n" line
        # ends
        rows = [("anchor_point_(1,1)", 0.25, 3, -0.0),
                ("tiny", 1e-300, 7, -2.5)]
        path = write_csv(tmp_path / "sub" / "t.csv", ("name", "x", "n", "y"), rows)
        assert path.read_bytes() == (b'name,x,n,y\n"anchor_point_(1,1)",0.25,3,-0.0\n'
                                     b"tiny,1e-300,7,-2.5\n")


class TestRun:
    def test_ini_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = predicate-tables\n"
                       f"output_dir = {tmp_path}\nseed = 1\n")
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "predicate-tables-summary.csv").exists()

    def test_json_config(self, tmp_path, capsys):
        # JSON is no config format: the INI reader finds no 'experiment' key
        # in it, or cannot parse it, so the run exits 2 and writes nothing
        doc = {"experiment": "predicate-tables",
               "output_dir": str(tmp_path / "out"), "seed": 2}
        cfg = tmp_path / "exp.json"
        for text in (json.dumps(doc), json.dumps(doc, indent=1)):
            cfg.write_text(text)
            assert main(["run", str(cfg)]) == 2
            assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("text", ['["experiment"]', '"experiment"', "3"])
    def test_json_config_not_an_object_exit_two(self, tmp_path, capsys, text):
        cfg = tmp_path / "exp.json"
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_percent_in_value_is_literal(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = predicate-tables\n"
                       f"output_dir = {tmp_path / 'out%x'}\n")
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "out%x" / "predicate-tables-summary.csv").exists()

    def test_unknown_figure_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = classification-map\nfigure = fig9\n"
                       f"output_dir = {tmp_path}\n")
        assert main(["run", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_experiment_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = nope\noutput_dir = {tmp_path}\n")
        assert main(["run", str(cfg)]) == 2

    def test_empty_witness_set_exit_two(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = decay-infinity\nwitnesses =\n"
                       f"output_dir = {tmp_path}\n")
        assert main(["run", str(cfg)]) == 2

    def test_misspelt_option_exit_two_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg.write_text(f"experiment = classification-map\nfigur = fig3\n"
                       f"output_dir = {out}\n")
        assert main(["run", str(cfg)]) == 2
        assert "figur" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("key,value", [
        ("d", "2.5"), ("d", "0"), ("resolution", "0"), ("resolution", "-3"),
        ("resolution", "many"), ("max_inv_p", "0.01"), ("min_s", "4"),
        ("max_s", "-2"), ("max_s", "inf"), ("max_s", "nan")])
    def test_bad_map_option_value_exit_two_writes_nothing(self, tmp_path, capsys,
                                                          key, value):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg.write_text(f"experiment = classification-map\n{key} = {value}\n"
                       f"output_dir = {out}\n")
        assert main(["run", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_missing_experiment_field_exit_two(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seed = 1\n")
        assert main(["run", str(cfg)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 2

    def test_undecodable_file_exit_two_writes_nothing(self, tmp_path, monkeypatch,
                                                      capsys):
        # a valid config but for two bytes that are not UTF-8; read as
        # Latin-1 it would run and write into the default output directory
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(b"experiment = decay-infinity\n# \xff\xfe\n")
        assert main(["run", str(cfg)]) == 2
        assert "bad.ini" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.ini"]

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RADIALFS_SEED", "777")
        cfg = ExperimentConfig("bv-decay", seed=1, output_dir=tmp_path)
        assert cfg.seed == 777

    @pytest.mark.parametrize("seed", ["abc", "1.5", ""])
    def test_bad_ini_seed_exit_two_writes_nothing(self, tmp_path, capsys, seed):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = bv-decay\nseed = {seed}\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 2
        assert "seed must be an integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("seed", [1.5, True, "abc", None, 2.0])
    def test_bad_json_seed_exit_two_writes_nothing(self, tmp_path, capsys, seed):
        # a JSON config is refused as a whole, before its seed is read
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "bv-decay", "seed": seed,
                                   "output_dir": str(tmp_path / "out")}))
        assert main(["run", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("seed", [3, np.int64(3), np.int32(3), "3"],
                             ids=["int", "int64", "int32", "str"])
    def test_integer_seed_accepted(self, monkeypatch, seed):
        monkeypatch.delenv("RADIALFS_SEED", raising=False)
        cfg = ExperimentConfig("bv-decay", seed=seed)
        assert cfg.seed == 3 and type(cfg.seed) is int

    @pytest.mark.parametrize("seed", [1.5, True, None, 2.0])
    def test_non_integer_seed_rejected(self, monkeypatch, seed):
        # int() would truncate 1.5 and read True as 1
        monkeypatch.delenv("RADIALFS_SEED", raising=False)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            ExperimentConfig("bv-decay", seed=seed)

    @pytest.mark.parametrize("command", ["run", "run-all"])
    def test_bad_env_seed_exit_two_writes_nothing(self, tmp_path, monkeypatch,
                                                  capsys, command):
        monkeypatch.setenv("RADIALFS_SEED", "x")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text("experiment = bv-decay\nseed = 3\n")
        argv = ["run", "exp.cfg"] if command == "run" else ["run-all"]
        assert main(argv) == 2
        assert "RADIALFS_SEED must be an integer, got 'x'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_summary_has_provenance_column(self, tmp_path):
        cfg = ExperimentConfig("bv-decay", output_dir=tmp_path)
        res = run_experiment(cfg)
        header = (tmp_path / "bv-decay-summary.csv").read_text().splitlines()[0]
        assert header == "assertion,measured,kind,threshold,provenance,status"
        assert res.passed

    def test_determinism_byte_identical(self, tmp_path):
        # the same seed gives the same bytes, and another seed other bytes,
        # so a run that ignored its seed would fail too.  Each row holds a
        # staircase's step count and largest radius, which the seed draws
        data = {}
        for out, seed in (("a", 5), ("b", 5), ("c", 6)):
            run_experiment(ExperimentConfig("bv-decay", seed=seed,
                                            output_dir=tmp_path / out))
            data[out] = (tmp_path / out / "bv-decay.csv").read_bytes()
        assert data["a"] == data["b"]
        assert data["c"] != data["a"]


class TestMap:
    # the classification-map experiment's raster, through `radialfs run`
    @staticmethod
    def _raster(tmp_path, options):
        cfg = tmp_path / "map.cfg"
        cfg.write_text(f"experiment = classification-map\n{options}"
                       f"output_dir = {tmp_path}\n")
        assert main(["run", str(cfg)]) == 0
        return next(tmp_path.glob("classification-fig*.csv")).read_text().splitlines()

    def test_map_command(self, tmp_path):
        header, *rows = self._raster(
            tmp_path, "figure = fig3\nd = 3\nresolution = 8\n"
                      "max_inv_p = 2.5\nmin_s = -0.5\nmax_s = 3\n")
        assert header == "inv_p,s,invalid,bounded,controlled-unboundedness,unbounded"
        assert len(rows) == 64
        assert rows[0].startswith("0.01,-0.5,") and rows[-1].startswith("2.5,3.0,")
        labels = header.split(",")[2:]
        region = fig3_region(3)
        for row in rows:
            inv_p, s, *flags = row.split(",")
            assert sorted(flags) == ["0", "0", "0", "1"]
            assert labels[flags.index("1")] == region.label(float(inv_p), float(s))

    def test_map_default_rect(self, tmp_path):
        corners = [row.split(",")[:2]
                   for row in self._raster(tmp_path, "resolution = 2\n")[1:]]
        assert corners == [["0.01", "-1.0"], ["0.01", "4.0"],
                           ["3.0", "-1.0"], ["3.0", "4.0"]]

    def test_bad_region_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "map.cfg"
        cfg.write_text(f"experiment = classification-map\nfigure = fig9\n"
                       f"max_inv_p = 1\nmin_s = 0\nmax_s = 1\n"
                       f"output_dir = {tmp_path / 'sub'}\n")
        assert main(["run", str(cfg)]) == 2
        assert "figure must be one of ['fig1', 'fig2', 'fig3']" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [cfg]

    # ids are the flags of the former `map` command; each value is the config
    # that command line became.  min_inv_p stays at 0.01, and each rectangle
    # is refused without its first value too.
    @pytest.mark.parametrize("options", [
        pytest.param("resolution = 0\n", id="--res=0"),
        pytest.param("resolution = -3\n", id="--res=-3"),
        pytest.param("d = 0\n", id="--d=0"),
        pytest.param("max_inv_p = 0.5\nmin_s = 4\nmax_s = -1\n",
                     id="--rect=3,0.5,4,-1"),
        pytest.param("max_inv_p = 3\nmin_s = 4\nmax_s = 4\n",
                     id="--rect=0.1,3,4,4"),
        pytest.param("max_inv_p = 3\nmin_s = 0\nmax_s = inf\n",
                     id="--rect=0.1,3,0,inf")])
    def test_bad_map_flag_exit_two_writes_nothing(self, tmp_path, capsys, options):
        cfg = tmp_path / "map.cfg"
        cfg.write_text(f"experiment = classification-map\nfigure = fig2\n"
                       f"{options}output_dir = {tmp_path / 'sub'}\n")
        assert main(["run", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [cfg]


def test_readme_config_blocks_load(tmp_path):
    # every ```ini block of README's CLI section is a config the runner reads,
    # naming a registered experiment and only options it reads
    section = (ROOT / "README.md").read_text().split("\n## CLI\n")[1].split("\n## ")[0]
    blocks = re.findall(r"```ini\n(.*?)```", section, re.S)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme-{i}.cfg"
        path.write_text(block)
        cfg = _load_config(path)
        assert cfg.experiment in experiments.REGISTRY
        assert set(cfg.options) <= set(experiments.OPTIONS.get(cfg.experiment, ()))


def test_readme_library_sketch_runs():
    # the one ```python block of README's library sketch runs as written, so
    # a signature change cannot leave it behind
    section = (ROOT / "README.md").read_text().split("\n## Library sketch\n")[1]
    blocks = re.findall(r"```python\n(.*?)```", section.split("\n## ")[0], re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


@pytest.mark.parametrize("argv", [
    lambda d, f: ["run", str(d / "map.cfg")],
    lambda d, f: ["run-all", str(f)],
    lambda d, f: ["run", str(d)],
], ids=["map-output-is-a-directory", "run-all-into-a-file", "run-a-directory"])
def test_unusable_path_exits_two(tmp_path, capsys, argv):
    d, f = tmp_path / "dir", tmp_path / "file"
    d.mkdir()
    f.write_text("")
    # a directory takes the path of the classification-map raster
    (d / "classification-fig2-d2.csv").mkdir()
    (d / "map.cfg").write_text(f"experiment = classification-map\noutput_dir = {d}\n")
    assert main(argv(d, f)) == 2
    assert capsys.readouterr().err.startswith("error: ")
