import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fidgibbs.cli
import fidgibbs.gibbs
from fidgibbs import ChainConfig, SampleMatrix, summarize
from fidgibbs.cli import (_block_text, _cells, _write_chain, load_dataset, main, read_samples_csv,
                          write_histogram_csv, write_samples_csv)
from test_gibbs import _FailAt, _failing_model


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

    def test_report_is_one_indented_json_document(self, tmp_path):
        out = tmp_path / "out"
        assert _run(["run", "--model", "gamma", "--simulate", "alpha=2,beta=0.5,n=5",
                     "--m", 300, "--b", 50, "--chains", 1, "--output-dir", out]) == 0
        text = (out / "report.json").read_bytes().decode()
        assert json.dumps(json.loads(text), indent=2) + "\n" == text

    def test_trace_is_chain_0_column_of_samples(self, tmp_path):
        # 2500 cycles of 4 parameters: three write blocks of 1024 rows.
        out = tmp_path / "out"
        assert _run(["run", "--model", "quadreg",
                     "--simulate", "beta0=1,beta1=-0.5,beta2=0.25,sigma2=0.5,n=25",
                     "--m", 2500, "--b", 50, "--chains", 3, "--scan-order",
                     "sigma2,beta2,beta0,beta1", "--output-dir", out]) == 0
        with open(out / "samples.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        for j, label in enumerate(header[2:], start=2):
            with open(out / f"trace_{label}.csv", newline="") as fh:
                trace = list(csv.reader(fh))
            assert trace == [["cycle", "value"]] + [[r[1], r[j]] for r in rows if r[0] == "0"]

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

    @pytest.mark.parametrize("bad", ["bins", "output_dir"])
    def test_output_arguments_checked_before_sampling(self, bad, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(fidgibbs.cli, "run", lambda *args: pytest.fail("a chain ran"))
        (tmp_path / "file").write_text("")
        args = {"bins": ["--bins", 0, "--output-dir", tmp_path / "o"],
                "output_dir": ["--output-dir", tmp_path / "file" / "o"]}[bad]
        rc = _run(["run", "--model", "normal", "--simulate", "mu=0,sigma2=1,n=8",
                   "--m", 200_000, "--b", 10, *args])
        assert rc == 1
        err = capsys.readouterr().err
        if bad == "bins":
            assert err == "error: bins must be >= 1, got 0\n"
        else:
            assert err.startswith("error: ") and "Not a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_diag_checks_bins_before_reading(self, tmp_path, capsys):
        rc = _run(["diag", "--samples", tmp_path / "missing.csv", "--bins", 0])
        assert rc == 1
        assert capsys.readouterr().err == "error: bins must be >= 1, got 0\n"

    def test_failed_run_removes_the_directories_it_made(self, tmp_path, monkeypatch):
        # The output directory is made before the chains run; a run that
        # fails removes it and the parents it made, and nothing else.
        (tmp_path / "kept").mkdir()
        monkeypatch.setattr(fidgibbs.cli, "run", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            _run(["run", "--model", "normal", "--simulate", "mu=0,sigma2=1,n=8",
                  "--m", 100, "--b", 10, "--output-dir", tmp_path / "kept" / "a" / "b"])
        assert list(tmp_path.rglob("*")) == [tmp_path / "kept"]

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


class TestForkedRun:
    """The run command with its chains forked: the children only sample,
    and the caller writes every chain's rows once the run returns."""

    ARGS = ["run", "--model", "normal", "--simulate", "mu=0,sigma2=1,n=12", "--m", 700,
            "--b", 100, "--chains", 4, "--seed", 3]

    @staticmethod
    def _fork_always(monkeypatch):
        monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(fidgibbs.gibbs, "_FORK_BREAK_EVEN_S", 0.0)

    def test_same_files_as_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 1)
        assert _run([*self.ARGS, "--output-dir", tmp_path / "serial"]) == 0
        self._fork_always(monkeypatch)
        assert _run([*self.ARGS, "--output-dir", tmp_path / "forked"]) == 0
        serial = sorted((tmp_path / "serial").iterdir())
        assert [p.name for p in serial] == sorted(p.name for p in (tmp_path / "forked").iterdir())
        for path in serial:
            assert path.read_bytes() == (tmp_path / "forked" / path.name).read_bytes()

    @pytest.mark.parametrize("chain", [1, 2])
    def test_failing_chain_writes_nothing(self, chain, tmp_path, monkeypatch, capsys):
        # Chain 1 fails in the forked child, chain 2 in this process.
        model = _failing_model("mu", lambda inner: _FailAt(inner, {chain: 400}))
        monkeypatch.setattr(fidgibbs.cli, "get_model", lambda name: model)
        monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 1)
        assert _run([*self.ARGS, "--output-dir", tmp_path / "serial"]) == 2
        serial = capsys.readouterr()
        self._fork_always(monkeypatch)
        assert _run([*self.ARGS, "--output-dir", tmp_path / "forked"]) == 2
        forked = capsys.readouterr()
        assert serial.err.startswith(f"structural error: chain {chain} fails")
        assert forked == serial
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no sample rows"):
                read_samples_csv(str(path), b=0)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, cell):
        path = tmp_path / "s.csv"
        _write_samples(path, [(0, 1, "0.5"), (0, 2, cell), (0, 3, "0.25")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="column 'theta' contains non-finite values"):
                read_samples_csv(str(path), b=0)
            assert _run(["diag", "--samples", path, "--b", 0]) == 1
        assert "column 'theta' contains non-finite values" in capsys.readouterr().err

    def test_sparse_ids_rejected_before_allocating(self, tmp_path):
        # One row naming chain 10**12 must not size a mask of 10**12 cells.
        path = tmp_path / "s.csv"
        _write_samples(path, [(0, 1, 0.5), (10**12, 1, 0.5)])
        with pytest.raises(ValueError, match="missing"):
            read_samples_csv(str(path), b=0)

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        _write_samples(path, [(0, i, float(i)) for i in (1, 2, 3, 3, 4)])
        with pytest.raises(ValueError, match="duplicate"):
            read_samples_csv(str(path), b=0)
        assert _run(["diag", "--samples", path, "--b", 0]) == 1


class TestReaderRules:
    """Samples and data files share one reader: a stripped csv header, then
    one numpy parse of the body."""

    def test_short_row_names_the_path(self, tmp_path):
        samples = tmp_path / "s.csv"
        samples.write_text("chain,cycle,theta\n0,1,0.5\n0,2\n")
        with pytest.raises(ValueError, match=re.escape(str(samples))):
            read_samples_csv(str(samples), b=0)
        data = tmp_path / "d.csv"
        data.write_text("x,y\n1,2\n3\n4,5\n")
        with pytest.raises(ValueError, match=re.escape(str(data))):
            load_dataset("quadreg", str(data))

    # The header is line 1, and skipped blank lines are counted.
    @pytest.mark.parametrize("body,line,text", [
        ("0,1,1.5\n1.0,2,3\n", 3, "could not convert string '1.0' to int64 at column 1."),
        ("0,1,1.5\n0,2\n", 3, "the dtype passed requires 3 columns but 2 were found"),
        ("0,1,1.5\n\n  ,\n0,2\n0,3,1\n", 5,
         "the dtype passed requires 3 columns but 2 were found"),
        ("\r\n0,1,1.5\r\n0,2,x\r\n", 4, "could not convert string 'x' to float64 at column 3."),
    ], ids=["bad-cell", "short-row", "after-blank-lines", "crlf"])
    def test_error_names_the_file_line(self, tmp_path, body, line, text):
        path = tmp_path / "s.csv"
        path.write_bytes(("chain,cycle,a\n" + body).encode())
        with pytest.raises(ValueError) as err:
            read_samples_csv(str(path), b=0)
        assert str(err.value) == f"{path}: line {line}: {text}"

    def test_data_file_error_names_the_file_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n\n3,abc\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 4: could not convert string 'abc' to float64 at column 2.")):
            load_dataset("quadreg", str(path))

    # int() accepted "1_0" and ids beyond int64; "1.0" was always rejected.
    @pytest.mark.parametrize("chain", ["1.0", "1_0", "9223372036854775808"])
    def test_non_integer_chain_id_rejected(self, tmp_path, chain):
        path = tmp_path / "s.csv"
        _write_samples(path, [(0, 1, 0.5), (chain, 1, 0.5)])
        with pytest.raises(ValueError, match=re.escape(f"'{chain}'")):
            read_samples_csv(str(path), b=0)
        assert _run(["diag", "--samples", path, "--b", 0]) == 1

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("chain,cycle,theta\n\n0,1,0.5\n   \n,,\n \t, ,\n0,2,0.25\n\n")
        assert read_samples_csv(str(path), b=0).values.tolist() == [[[0.5], [0.25]]]
        data = tmp_path / "d.csv"
        data.write_text("x\n1.5\n \n,\n\n2.5\n")
        assert load_dataset("normal", str(data)).col("x").tolist() == [1.5, 2.5]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_endings(self, tmp_path, newline):
        path = tmp_path / "s.csv"
        path.write_bytes(newline.join(["chain,cycle,theta", "0,1,0.5", "0,2,0.25", ""]).encode())
        assert read_samples_csv(str(path), b=0).values.tolist() == [[[0.5], [0.25]]]

    def test_quoted_cells(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text('"chain","cycle"," theta"\n"0","1","0.5"\n0,2," 0.25 "\n')
        sm = read_samples_csv(str(path), b=0)
        assert sm.labels == ("theta",)
        assert sm.values.tolist() == [[[0.5], [0.25]]]

    def test_behrens_fisher_group_stripped(self, tmp_path):
        path = tmp_path / "bf.csv"
        path.write_text("group,x\n 1 ,1.5\n2,2.5\n1 ,3.5\n\" 2\",4.5\n")
        data = load_dataset("behrens_fisher", str(path))
        assert data.col("x").tolist() == [1.5, 3.5]
        assert data.col("y").tolist() == [2.5, 4.5]


class TestRepeatedColumns:
    def test_data_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("x,x\n1,2\n3,4\n5,7\n")
        rc = _run(["run", "--model", "normal", "--data", path, "--m", 100, "--b", 10,
                   "--output-dir", tmp_path / "out"])
        assert rc == 1
        assert "repeated column 'x'" in capsys.readouterr().err

    def test_samples_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("chain,cycle,mu,mu\n0,1,0.5,0.5\n0,2,0.25,0.25\n")
        with pytest.raises(ValueError, match="repeated column 'mu'"):
            read_samples_csv(str(path), b=0)
        assert _run(["diag", "--samples", path, "--b", 0]) == 1
        assert "repeated column 'mu'" in capsys.readouterr().err


class TestWriters:
    """The samples and trace writers give the bytes of csv.writer with
    every float formatted as format(v, ".17g")."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               3.0, -7.0, 1e16, 0.1, 1.0 / 3.0]

    def _matrix(self, chains, m):
        g = np.random.default_rng(4)
        values = g.standard_normal((chains, m, 3)) * 10.0 ** g.integers(-300, 300, (chains, m, 3))
        values[0, :len(self.SPECIAL), 0] = self.SPECIAL
        values[-1, -len(self.SPECIAL):, 2] = self.SPECIAL
        return SampleMatrix(values, ("a", "b", "c"), ChainConfig(m=m, b=1, chains=chains))

    @staticmethod
    def _reference(path, header, rows):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([c if isinstance(c, int) else format(c, ".17g") for c in row])
        return path.read_bytes()

    @staticmethod
    def _write_traces(sm, paths):
        """Chain 0's trace of each column to its path, written as run writes
        them: in the pass that formats chain 0's rows."""
        with contextlib.ExitStack() as stack:
            traces = [stack.enter_context(open(path, "w", newline="")) for path in paths]
            for trace in traces:
                csv.writer(trace).writerow(["cycle", "value"])
            _write_chain(sm.values[0], 0, io.TextIOWrapper(io.BytesIO(), newline=""), traces)

    @pytest.mark.parametrize("chains,m", [(1, 20), (3, 5000)])
    def test_samples_bytes(self, tmp_path, chains, m):
        sm = self._matrix(chains, m)
        write_samples_csv(sm, tmp_path / "samples.csv")
        rows = [(c, i + 1, *sm.values[c, i].tolist()) for c in range(chains) for i in range(m)]
        ref = self._reference(tmp_path / "ref.csv", ["chain", "cycle", *sm.labels], rows)
        assert (tmp_path / "samples.csv").read_bytes() == ref

    @given(chains=st.integers(1, 4), m=st.integers(1, 12), data=st.data())
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_samples_round_trip(self, tmp_path_factory, chains, m, data):
        cells = st.one_of(st.sampled_from(self.SPECIAL),
                          st.floats(allow_nan=False, allow_infinity=False))
        values = np.array(data.draw(st.lists(cells, min_size=chains * m * 2,
                                             max_size=chains * m * 2)))
        sm = SampleMatrix(values.reshape(chains, m, 2), ("a", "b"),
                          ChainConfig(m=m, b=0, chains=chains))
        path = tmp_path_factory.mktemp("round_trip") / "samples.csv"
        write_samples_csv(sm, path)
        back = read_samples_csv(str(path), b=0)
        assert back.labels == sm.labels
        assert back.values.tobytes() == sm.values.tobytes()
        written = path.read_bytes()
        write_samples_csv(back, path)
        assert path.read_bytes() == written

    def test_diag_of_extreme_matrix_is_finite(self, tmp_path):
        # Draws up to 1e308: squares and the FFT autocovariance would overflow
        # without summarize's power-of-two scaling.
        sm = self._matrix(3, 700)
        write_samples_csv(sm, tmp_path / "samples.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = _run(["diag", "--samples", tmp_path / "samples.csv", "--b", 1,
                       "--out", tmp_path / "diag.json"])
        assert rc == 0
        params = json.loads((tmp_path / "diag.json").read_text())["params"]
        for p in params:
            assert all(math.isfinite(p[k]) for k in ("rhat", "ess", "mean", "sd"))
            assert 1.0 <= p["ess"] <= 3 * 699
        # The quantiles are order statistics of the draws themselves.
        pooled = sm.values[:, 1:, 0].reshape(-1)
        assert params[0]["quantiles"]["50%"] == float(np.quantile(pooled / 2, 0.5) * 2)

    def test_histogram_bytes(self, tmp_path):
        g = np.random.default_rng(5)
        values = g.standard_normal((2, 300, 3)) * np.array([1.0, 1e-200, 1e200])
        sm = SampleMatrix(values, ("a", "b", "c"), ChainConfig(m=300, b=1, chains=2))
        for summary in summarize(sm, bins=7).params:
            write_histogram_csv(summary, tmp_path / "hist.csv")
            edges, counts = summary.hist_edges.tolist(), summary.hist_counts.tolist()
            rows = [(edges[i], edges[i + 1], int(count), density) for i, (count, density)
                    in enumerate(zip(counts, summary.hist_densities().tolist()))]
            ref = self._reference(tmp_path / "ref.csv",
                                  ["bin_left", "bin_right", "count", "density"], rows)
            assert (tmp_path / "hist.csv").read_bytes() == ref

    def test_chain_text_bytes(self, tmp_path):
        # The longest rows: two-digit chain ids and 24-character values.
        sm = self._matrix(11, 1000)
        sm.values[4] = -1.2345678901234567e-300
        files = [tmp_path / name for name in ("samples.csv", "a.csv", "b.csv", "c.csv")]
        with contextlib.ExitStack() as stack:
            fh, *traces = (stack.enter_context(open(f, "w", newline="")) for f in files)
            fh.write("chain,cycle,a,b,c\r\n")
            for t in traces:
                t.write("cycle,value\r\n")
            for chain, values in enumerate(sm.values):
                _write_chain(values, chain, fh, traces if chain == 0 else [])
        rows = [(c, i + 1, *sm.values[c, i].tolist()) for c in range(11) for i in range(1000)]
        ref = self._reference(tmp_path / "ref.csv", ["chain", "cycle", *sm.labels], rows)
        assert files[0].read_bytes() == ref
        for j, path in enumerate(files[1:]):
            rows = [(i + 1, v) for i, v in enumerate(sm.values[0, :, j].tolist())]
            assert path.read_bytes() == self._reference(tmp_path / "ref.csv", ["cycle", "value"],
                                                        rows)

    def test_trace_bytes(self, tmp_path):
        sm = self._matrix(2, 300)
        paths = [tmp_path / f"trace_{label}.csv" for label in sm.labels]
        self._write_traces(sm, paths)
        for j, path in enumerate(paths):
            rows = [(i + 1, v) for i, v in enumerate(sm.values[0, :, j].tolist())]
            ref = self._reference(tmp_path / "ref.csv", ["cycle", "value"], rows)
            assert path.read_bytes() == ref


def _cell_texts(values: np.ndarray) -> list:
    """The writer's text of each of values, a 1-d float64 array."""
    texts = []
    for start in range(0, len(values), 1 << 16):
        words = _cells(values[start:start + (1 << 16)])
        words[:, 5] |= np.uint64(ord("\n") << 56)
        texts += words.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    return texts


def _decimal_digits(v: float) -> str:
    """The significant digits of v's exact decimal value."""
    return format(Decimal(v), "f").replace("-", "").replace(".", "").strip("0")


class TestCellText:
    """The writer's text of every float is '%.17g''s, byte for byte; run
    against the installed package too, so its writer is checked."""

    @staticmethod
    def _check(values):
        values = np.asarray(values, dtype=np.float64)
        want = ["%.17g" % v for v in values.tolist()]
        got = _cell_texts(values)
        assert len(got) == len(want)
        assert [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w][:5] == []

    def test_raw_bit_patterns(self):
        bits = np.random.default_rng(29).integers(0, 2**64, 10**6, dtype=np.uint64)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                            2.2250738585072009e-308, 2.2250738585072014e-308,
                            1.7976931348623157e308, -1.7976931348623157e308]).view(np.uint64)
        nan_payloads = np.array([0x7FF0000000000001, 0xFFF8000000000001], np.uint64)
        self._check(np.concatenate([special, nan_payloads, bits]).view(np.float64))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        self._check(np.concatenate([values, -values]))

    def test_exact_decimal_ties(self):
        # a / 2^k with a odd and a 5^k of 18 digits is exactly a decimal of
        # 18 significant digits ending in 5: a tie at 17 digits.
        ties = [1 + 2.0 ** -17]
        for k in range(2, 26):
            lo, hi = 10 ** 17 // 5 ** k + 1, min(10 ** 18 // 5 ** k, 2 ** 53)
            odd = [a for a in (lo, lo + 1, (lo + hi) // 2, hi - 2, hi - 1) if a % 2 and a < hi]
            ties += [a / 2 ** k for a in odd]
        for v in ties:
            digits = _decimal_digits(v)
            assert len(digits) == 18 and digits.endswith("5"), v
        # Integers from 10^17 up ending in 5, as the nearest doubles (every
        # double there is even).
        integers = [float(x) for x in range(10 ** 17 + 5, 2 ** 63, (2 ** 63 - 10 ** 17) // 1000 * 10)]
        self._check(np.array(ties + [-v for v in ties] + integers))

    def test_notation_boundaries(self):
        # %g's fixed notation runs from 1e-4 to just below 1e17.
        edges = np.array([1e-5, 1e-4, 1e16, 1e17])
        values = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
        self._check(np.concatenate([values, -values]))

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_any_float(self, values):
        self._check(values)

    def test_normal_draws_take_no_format_call(self, monkeypatch):
        calls = []
        format_cells = fidgibbs.cli._format_cells

        def counting(words, v, which):
            calls.append(len(which))
            format_cells(words, v, which)

        monkeypatch.setattr(fidgibbs.cli, "_format_cells", counting)
        self._check(np.random.default_rng(30).standard_normal(10 ** 5))
        assert calls and sum(calls) == 0

    @pytest.mark.parametrize("digits", range(1, 19))
    def test_chain_and_cycle_numbers(self, digits):
        # Chains and cycles on both sides of 10^digits.
        block = np.array([[0.5, -2.0], [1e-7, 3.0], [1.0 / 3.0, 1e300], [0.0, 123.25]])
        first = 10 ** digits - 2
        for chain in (10 ** digits - 1, 10 ** digits):
            rows, *traces = _block_text(block, chain, first, True)
            cycles = range(first, first + len(block))
            assert rows.decode() == "".join(f"{chain},{c},{'%.17g,%.17g' % (a, b)}\r\n"
                                            for c, (a, b) in zip(cycles, block.tolist()))
            for j, trace in enumerate(traces):
                assert trace.decode() == "".join(f"{c},{'%.17g' % v}\r\n"
                                                 for c, v in zip(cycles, block[:, j].tolist()))


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
        assert set(doc) == {"mu,sigma2"}
        assert all(rep["verdict"] == "compatible" for rep in doc.values())

    def test_gamma_reports_its_pair(self, tmp_path):
        # The numeric models are checked through the same path: exit 0 and
        # one report per pair, whatever its verdict.
        data = tmp_path / "data.csv"
        _run(["simulate", "--model", "gamma", "--params", "alpha=2,beta=1",
              "--n", 10, "--seed", 8, "--out", data])
        out = tmp_path / "compat.json"
        rc = _run(["check-compat", "--model", "gamma", "--data", data, "--out", out])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"alpha,beta"}
        assert doc["alpha,beta"]["verdict"] in ("compatible", "incompatible", "inconclusive")


def _parser_calls(out):
    """run, diag, an argparse error, --version, simulate, run with other
    --bins and --chains, and run with the defaults."""
    data = out / "pareto.csv"
    run = ["--m", "300", "--b", "50"]
    return [
        ["run", "--model", "normal", "--simulate", "mu=1,sigma2=4,n=12", *run,
         "--chains", "2", "--output-dir", str(out / "normal")],
        ["diag", "--samples", str(out / "normal" / "samples.csv"), "--b", "50"],
        ["run", "--model", "normal", "--bins"],
        ["--version"],
        ["simulate", "--model", "pareto", "--params", "alpha=3,beta=2", "--n", "15",
         "--seed", "4", "--out", str(data)],
        ["run", "--model", "pareto", "--data", str(data), *run, "--bins", "7", "--chains", "3",
         "--output-dir", str(out / "options")],
        ["run", "--model", "pareto", "--data", str(data), *run, "--output-dir", str(out / "defaults")],
    ]


class TestParserReuse:
    def _outcomes(self, out, capsys):
        """Each call's exit code and output, then every file the calls wrote."""
        outcomes = []
        for argv in _parser_calls(out):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            outcomes.append((code, *capsys.readouterr()))
        files = {path: path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}
        return outcomes, files

    def test_a_reused_parser_is_stateless(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        # A parser built afresh for every call.
        with monkeypatch.context() as fresh:
            fresh.setattr(fidgibbs.cli, "_parser", fidgibbs.cli.build_parser)
            want = self._outcomes(out, capsys)
        shutil.rmtree(out)
        # One parser for the whole sequence, built on the first call.
        fidgibbs.cli._parser.cache_clear()
        got = self._outcomes(out, capsys)
        assert fidgibbs.cli._parser.cache_info().misses == 1
        assert got == want
        codes = [code for code, _, _ in got[0]]
        assert codes == [0, 0, ("SystemExit", 2), ("SystemExit", 0), 0, 0, 0]
        reports = [json.loads((out / run / "report.json").read_text())
                   for run in ("options", "defaults")]
        assert [(r["bins"], r["chains"]) for r in reports] == [(7, 3), (60, 4)]
        # The reused parser reads every call as a new one does.
        for argv in _parser_calls(out)[:2] + _parser_calls(out)[4:]:
            fresh = fidgibbs.cli.build_parser().parse_args(argv)
            assert vars(fidgibbs.cli._parser().parse_args(argv)) == vars(fresh)


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
