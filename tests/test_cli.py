import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from fidgibbs.cli import main, read_samples_csv


def _run(argv):
    return main([str(a) for a in argv])


class TestSimulateCommand:
    def test_writes_univariate_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        rc = _run(["simulate", "--model", "gamma", "--params", "alpha=2,beta=0.5",
                   "--n", 20, "--seed", 7, "--out", out])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x"]
        assert len(rows) == 21
        assert all(float(r[0]) > 0 for r in rows[1:])

    def test_behrens_fisher_group_format(self, tmp_path):
        out = tmp_path / "bf.csv"
        rc = _run(["simulate", "--model", "behrens_fisher",
                   "--params", "mu_x=0,mu_y=1,sigma_x2=2,sigma_y2=1",
                   "--n", 6, "--seed", 3, "--out", out])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["group", "x"]
        assert sum(1 for r in rows[1:] if r[0] == "1") == 6
        assert sum(1 for r in rows[1:] if r[0] == "2") == 6

    def test_bad_params_exit_one(self, tmp_path):
        rc = _run(["simulate", "--model", "gamma", "--params", "alpha=-1,beta=1",
                   "--n", 5, "--seed", 1, "--out", tmp_path / "x.csv"])
        assert rc == 1

    def test_unknown_param_exit_one(self, tmp_path, capsys):
        rc = _run(["simulate", "--model", "gamma", "--params", "alpha=2,beta=1,rate=5",
                   "--n", 5, "--seed", 1, "--out", tmp_path / "x.csv"])
        assert rc == 1
        assert "unknown parameter 'rate'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


    def test_repeated_param_exit_one(self, tmp_path, capsys):
        rc = _run(["simulate", "--model", "gamma", "--params", "alpha=2,beta=1,alpha=5",
                   "--n", 5, "--seed", 1, "--out", tmp_path / "x.csv"])
        assert rc == 1
        assert "repeated key 'alpha'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestRunCommand:
    def test_full_run_outputs(self, tmp_path):
        out = tmp_path / "out"
        rc = _run(["run", "--model", "normal", "--simulate", "mu=1,sigma2=4,n=12",
                   "--m", 400, "--b", 100, "--chains", 2, "--seed", 5,
                   "--output-dir", out])
        assert rc == 0
        assert (out / "samples.csv").exists()
        assert (out / "report.json").exists()
        for p in ("mu", "sigma2"):
            assert (out / f"hist_{p}.csv").exists()
            assert (out / f"trace_{p}.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["model"] == "normal"
        assert report["m"] == 400 and report["b"] == 100 and report["chains"] == 2
        assert report["seed"] == 5
        assert report["scan_order"] == ["mu", "sigma2"]
        assert report["simulate"]["n"] == 12
        assert len(report["init"]) == 2
        assert {p["param"] for p in report["params"]} == {"mu", "sigma2"}

    def test_samples_round_trip(self, tmp_path):
        out = tmp_path / "out"
        _run(["run", "--model", "normal", "--simulate", "mu=0,sigma2=1,n=10",
              "--m", 300, "--b", 50, "--chains", 2, "--seed", 9,
              "--output-dir", out])
        sm = read_samples_csv(str(out / "samples.csv"), b=50)
        assert sm.values.shape == (2, 300, 2)
        assert sm.labels == ("mu", "sigma2")
        assert np.all(np.isfinite(sm.values))

    def test_data_file_input(self, tmp_path):
        data = tmp_path / "data.csv"
        _run(["simulate", "--model", "pareto", "--params", "alpha=3,beta=2",
              "--n", 15, "--seed", 2, "--out", data])
        out = tmp_path / "out"
        rc = _run(["run", "--model", "pareto", "--data", data,
                   "--m", 300, "--b", 50, "--chains", 2, "--seed", 1,
                   "--output-dir", out])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["data"] == str(data)

    def test_requires_exactly_one_source(self, tmp_path):
        rc = _run(["run", "--model", "normal", "--m", 100, "--b", 10,
                   "--output-dir", tmp_path / "o"])
        assert rc == 1

    def test_bad_burn_in_exit_one(self, tmp_path):
        rc = _run(["run", "--model", "normal", "--simulate", "mu=0,sigma2=1,n=8",
                   "--m", 100, "--b", 100, "--output-dir", tmp_path / "o"])
        assert rc == 1

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("FIDGIBBS_OUTPUT_DIR", str(env_dir))
        rc = _run(["run", "--model", "normal", "--simulate", "mu=0,sigma2=1,n=8",
                   "--m", 120, "--b", 20, "--chains", 1, "--seed", 2,
                   "--output-dir", tmp_path / "ignored"])
        assert rc == 0
        assert (env_dir / "samples.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_scan_order_flag(self, tmp_path):
        out = tmp_path / "o"
        rc = _run(["run", "--model", "normal", "--simulate", "mu=0,sigma2=1,n=8",
                   "--m", 120, "--b", 20, "--chains", 1, "--seed", 2,
                   "--scan-order", "sigma2,mu", "--output-dir", out])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scan_order"] == ["sigma2", "mu"]

    def test_simulate_unknown_parameter_exit_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = _run(["run", "--model", "normal", "--simulate", "mu=1,sigma2=4,n=12,sigma=9",
                   "--m", 100, "--b", 10, "--output-dir", out])
        assert rc == 1
        assert "unknown parameter 'sigma'" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_init_unknown_parameter_exit_one(self, tmp_path, capsys):
        rc = _run(["run", "--model", "normal", "--simulate", "mu=0,sigma2=1,n=8",
                   "--m", 100, "--b", 10, "--init", "mu=0,sigma2=1,sgima2=50",
                   "--output-dir", tmp_path / "o"])
        assert rc == 1
        assert "unknown parameter 'sgima2'" in capsys.readouterr().err

    def test_simulate_repeated_parameter_exit_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = _run(["run", "--model", "normal", "--simulate", "mu=1,sigma2=4,n=12,mu=50",
                   "--m", 100, "--b", 10, "--output-dir", out])
        assert rc == 1
        assert "repeated key 'mu'" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_init_repeated_parameter_exit_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = _run(["run", "--model", "normal", "--simulate", "mu=0,sigma2=1,n=8",
                   "--m", 100, "--b", 10, "--init", "mu=0,sigma2=1, sigma2=50",
                   "--output-dir", out])
        assert rc == 1
        assert "repeated key 'sigma2'" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("spec", ["mu=0,sigma2=1,n=2.9", "mu=0,sigma2=1,n=8,seed=1.5"])
    def test_simulate_non_integer_count_exit_one(self, spec, tmp_path, capsys):
        out = tmp_path / "o"
        rc = _run(["run", "--model", "normal", "--simulate", spec,
                   "--m", 100, "--b", 10, "--output-dir", out])
        assert rc == 1
        assert "must be an integer" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_pareto_init_above_min_exit_one(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x\n2\n3\n5\n7\n11\n")
        rc = _run(["run", "--model", "pareto", "--data", data, "--m", 100, "--b", 10,
                   "--chains", 1, "--init", "alpha=1,beta=2.5", "--output-dir", tmp_path / "o"])
        assert rc == 1
        assert "beta=2.5 exceeds min(x)=2.0" in capsys.readouterr().err


def _write_samples(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "cycle", "theta"])
        writer.writerows(rows)


class TestReadSamples:
    def test_zero_based_cycles_rejected(self, tmp_path):
        # Cycle 0 would wrap to the last index and be overwritten by cycle 9.
        path = tmp_path / "s.csv"
        _write_samples(path, [(0, i, float(i)) for i in range(10)])
        with pytest.raises(ValueError, match="numbered from 1"):
            read_samples_csv(str(path), b=0)
        assert _run(["diag", "--samples", path, "--b", 0]) == 1

    def test_negative_chain_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        _write_samples(path, [(c, i, float(i)) for c in (-1, 0) for i in range(1, 6)])
        with pytest.raises(ValueError, match="chain ids"):
            read_samples_csv(str(path), b=0)
        assert _run(["diag", "--samples", path, "--b", 0]) == 1

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        _write_samples(path, [])
        with pytest.raises(ValueError, match="no sample rows"):
            read_samples_csv(str(path), b=0)

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        _write_samples(path, [(0, i, float(i)) for i in (1, 2, 3, 3, 4)])
        with pytest.raises(ValueError, match="duplicate"):
            read_samples_csv(str(path), b=0)
        assert _run(["diag", "--samples", path, "--b", 0]) == 1


class TestDiagCommand:
    def test_rediagnosis_matches_run_report(self, tmp_path):
        out = tmp_path / "out"
        _run(["run", "--model", "gamma", "--simulate", "alpha=2,beta=0.5,n=20",
              "--m", 600, "--b", 100, "--chains", 2, "--seed", 4,
              "--output-dir", out])
        diag_out = tmp_path / "rediag.json"
        rc = _run(["diag", "--samples", out / "samples.csv", "--b", 100,
                   "--out", diag_out])
        assert rc == 0
        original = json.loads((out / "report.json").read_text())
        rediag = json.loads(diag_out.read_text())
        assert rediag["params"] == original["params"]
        assert rediag["seed"] is None and rediag["scan_order"] is None


class TestCheckCompatCommand:
    def test_normal_compatible(self, tmp_path):
        data = tmp_path / "data.csv"
        _run(["simulate", "--model", "normal", "--params", "mu=0,sigma2=1",
              "--n", 12, "--seed", 8, "--out", data])
        out = tmp_path / "compat.json"
        rc = _run(["check-compat", "--model", "normal", "--data", data, "--out", out])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"mu", "sigma2"}
        assert all(rep["verdict"] == "compatible" for rep in doc.values())

    def test_model_without_kernel_exits_one(self, tmp_path):
        data = tmp_path / "data.csv"
        _run(["simulate", "--model", "gamma", "--params", "alpha=2,beta=1",
              "--n", 10, "--seed", 8, "--out", data])
        rc = _run(["check-compat", "--model", "gamma", "--data", data])
        assert rc == 1


class TestConsoleEntry:
    def test_version_via_interpreter(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fidgibbs.cli", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "fidgibbs" in proc.stdout

    def test_missing_file_exit_one(self):
        rc = _run(["run", "--model", "normal", "--data", "/nonexistent.csv",
                   "--m", 100, "--b", 10, "--output-dir", "/tmp/fidgibbs_nowhere"])
        assert rc == 1
