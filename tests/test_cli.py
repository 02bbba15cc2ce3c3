import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from radialfs.cli import main
from radialfs.experiments import (ExperimentConfig, _write_csv,
                                  list_experiments, run_experiment)


REQUIRED_EXPERIMENTS = [
    "scaling-f-j-lambda", "scaling-lp", "decay-infinity", "strauss",
    "blowup-origin", "log-borderline", "bv-decay", "bv-equivalence",
    "seq-identities", "trace-roundtrip", "support-shift",
    "spherical-mean-wavelet", "sobolev-reduction", "predicate-tables",
    "classification-map",
]

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
RUN_ALL = SCRIPTS / "run_all_experiments.py"


class TestListing:
    def test_registry_complete(self):
        names = [name for name, _ in list_experiments()]
        for required in REQUIRED_EXPERIMENTS:
            assert required in names

    def test_docs_one_line(self):
        for _, doc in list_experiments():
            assert doc and "\n" not in doc

    def test_cli_list_exit_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bv-decay" in out and "spherical-mean-wavelet" in out


class TestRunAllScript:
    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["-h"], 0),
                                            (["--no-such-flag"], 2)])
    def test_bad_or_help_flags_run_nothing(self, tmp_path, monkeypatch, capsys,
                                           argv, code):
        monkeypatch.chdir(tmp_path)
        script_main = runpy.run_path(str(RUN_ALL))["main"]
        with pytest.raises(SystemExit) as exc:
            script_main(argv)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert "output_dir" in (out if code == 0 else err)
        assert list(tmp_path.iterdir()) == []


class TestDecomposeDemoScript:
    def test_writes_coefficients_and_bands(self, tmp_path, monkeypatch, capsys):
        from radialfs.core import Grid1D
        from radialfs.families import parse_family
        monkeypatch.setattr("sys.argv", ["decompose_profile_demo.py",
                                         "psi_cutoff", str(tmp_path)])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(SCRIPTS / "decompose_profile_demo.py"),
                           run_name="__main__")
        assert exc.value.code == 0
        assert "psi_cutoff" in capsys.readouterr().out
        header = (tmp_path / "coefficients.csv").read_text().splitlines()[1]
        assert header == "j,k,coefficient"
        bands = np.loadtxt(tmp_path / "bands.csv", delimiter=",", skiprows=1)
        # the script's profile, rebuilt: the bands sum back to its samples
        fam = parse_family("psi_cutoff")
        prof = fam.profile(Grid1D.uniform(2.0 ** -12,
                                          max(2.0, fam.support[1] * 1.3)), d=2)
        t = bands[:, 0]
        assert np.max(np.abs(bands[:, 1:].sum(axis=1) - prof(t))) <= 1e-8


class TestWriteCsv:
    def test_fields_parse_as_numbers(self, tmp_path):
        rows = [(np.float64(0.25), 1.5, 3), (np.float64(1e-300), -0.0, 7)]
        path = _write_csv(tmp_path, "numbers.csv", "a,b,c", rows)
        header, *lines = path.read_text().splitlines()
        assert header == "a,b,c"
        parsed = [tuple(float(v) for v in line.split(",")) for line in lines]
        assert parsed == [tuple(float(v) for v in row) for row in rows]


class TestRun:
    def test_ini_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = predicate-tables\n"
                       f"output_dir = {tmp_path}\nseed = 1\n")
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "predicate-tables-summary.csv").exists()

    def test_json_config(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"experiment": "predicate-tables",
                                   "output_dir": str(tmp_path), "seed": 2}))
        assert main(["run", str(cfg)]) == 0

    def test_unknown_experiment_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = nope\noutput_dir = {tmp_path}\n")
        assert main(["run", str(cfg)]) == 2

    def test_empty_witness_set_exit_two(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = decay-infinity\nwitnesses =\n"
                       f"output_dir = {tmp_path}\n")
        assert main(["run", str(cfg)]) == 2

    def test_missing_experiment_field_exit_two(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seed = 1\n")
        assert main(["run", str(cfg)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 2

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RADIALFS_SEED", "777")
        cfg = ExperimentConfig("bv-decay", seed=1, output_dir=tmp_path)
        assert cfg.seed == 777

    def test_summary_has_provenance_column(self, tmp_path):
        cfg = ExperimentConfig("bv-decay", output_dir=tmp_path)
        res = run_experiment(cfg)
        header = open(tmp_path / "bv-decay-summary.csv").readline().strip()
        assert header == "assertion,measured,kind,threshold,provenance,status"
        assert res.passed

    def test_parallel_flag_deterministic_merge(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"experiment = decay-infinity\n"
                           f"output_dir = {tmp_path / 'p'}\n")
        assert main(["run", str(cfgfile), "--parallel"]) == 0
        seq = run_experiment(ExperimentConfig("decay-infinity",
                                              output_dir=tmp_path / "s"))
        assert seq.passed
        assert (tmp_path / "p" / "decay-infinity.csv").read_bytes() == \
            (tmp_path / "s" / "decay-infinity.csv").read_bytes()

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            run_experiment(ExperimentConfig("bv-equivalence", seed=5,
                                            output_dir=out))
        assert (out1 / "bv-equivalence.csv").read_bytes() == \
            (out2 / "bv-equivalence.csv").read_bytes()


class TestMap:
    def test_map_command(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["map", "--region=fig3", "--rect=0.1,3,0,4", "--res=8",
                     f"--output={out}"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "inv_p,s,label"
        assert len(lines) == 65

    def test_bad_rect_exit_two(self, tmp_path):
        assert main(["map", "--region=fig2", "--rect=1,2,3",
                     f"--output={tmp_path / 'x.csv'}"]) == 2

    def test_bad_region_exit_two(self, tmp_path):
        assert main(["map", "--region=fig9", "--rect=0,1,0,1",
                     f"--output={tmp_path / 'x.csv'}"]) == 2
