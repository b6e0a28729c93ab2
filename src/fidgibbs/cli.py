"""Command-line front end: simulate data, run the sampler, check joints,
re-diagnose saved sample files.

Data files are headered CSV: column ``x`` for the univariate models,
``x,y`` for quadreg and bivariate_normal, and either a ``group,x`` file or
two single-column files for behrens_fisher.  All floating-point output is
written with 17 significant digits so files round-trip losslessly.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path
from typing import Mapping

import numpy as np

from . import __version__
from .compat import CLOSED_FORM_TOL, DEFAULT_GRID_POINTS, check_model
from .diagnostics import DEFAULT_BINS, summarize
from .errors import FidgibbsError, StructuralError
from .gibbs import ChainConfig, DEFAULT_BURN_IN, SampleMatrix, _run
from .models import MODEL_NAMES, Dataset, get_model, simulate_dataset
from .randvar import RngStream

OUTPUT_DIR_ENV = "FIDGIBBS_OUTPUT_DIR"
_TWO_COLUMN_MODELS = {"quadreg", "bivariate_normal"}


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _parse_kv(text: str) -> dict:
    out = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise ValueError(f"expected key=value, got '{part}'")
        k, v = part.split("=", 1)
        k = k.strip()
        if k in out:
            raise ValueError(f"repeated key '{k}' in '{text}'")
        out[k] = float(v)
    return out


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

# Characters of a body line that holds no cell: such lines are skipped.
_BLANK_LINE = ",\t\n\v\f\r "
_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": '"', "ndmin": 1}
# numpy's row number (it counts parsed rows, not file lines) and its advice
# to pass usecols, which the reader does not take.
_NUMPY_ROW = re.compile(r"(?<= at )row \d+, | at row \d+(?!,)|; use `usecols`.*")


def _read_csv(path: str, dtypes: Mapping[str, type], other: type) -> dict:
    """Columns of a headered CSV file, keyed by stripped header name.

    Column ``name`` is read as ``dtypes.get(name, other)``; text (object)
    columns are stripped.  The body goes through one ``np.loadtxt`` call:
    cells may be quoted, and lines holding only whitespace and commas are
    skipped.  Raises ValueError naming the path for an empty file, a
    repeated header name or a row numpy cannot parse; the last names the
    file line of the first such row (the header is line 1).
    """
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]))
        if not header:
            raise ValueError(f"{path}: empty file")
        names = [h.strip() for h in header]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"{path}: repeated column '{name}' in the header")
        # Positional field names: numpy would rename an empty header name.
        dtype = np.dtype([(f"f{i}", dtypes.get(name, other)) for i, name in enumerate(names)])
        rows = fh.readlines()
    lines = [line for line in rows if line.strip(_BLANK_LINE)]
    if not lines:
        # loadtxt would warn about the empty input.
        body = np.empty(0, dtype)
    else:
        try:
            body = np.loadtxt(lines, dtype=dtype, **_LOADTXT)
        except ValueError as exc:
            raise ValueError(f"{path}: {_first_bad_row(rows, dtype) or exc}") from None
    cols = {}
    for i, name in enumerate(names):
        col = body[f"f{i}"]
        if col.dtype == object:
            col = np.array([cell.strip() for cell in col], dtype=object)
        cols[name] = col
    return cols


def _first_bad_row(rows: list, dtype: np.dtype) -> str | None:
    """'line <k>: <numpy's error>' for the first body row numpy cannot parse
    on its own, counting file lines from the header's 2 onwards."""
    for k, line in enumerate(rows, start=2):
        if line.strip(_BLANK_LINE):
            try:
                np.loadtxt([line], dtype=dtype, **_LOADTXT)
            except ValueError as exc:
                return f"line {k}: {_NUMPY_ROW.sub('', str(exc))}"
    return None


def _read_data_columns(path: str) -> dict:
    """A data file's columns: x and y as float64, any other column as text."""
    return _read_csv(path, {"x": np.float64, "y": np.float64}, object)


def load_dataset(model_name: str, path: str, path2: str | None = None) -> Dataset:
    """Read a dataset in the model's expected CSV layout."""
    cols = _read_data_columns(path)
    if model_name == "behrens_fisher":
        if path2 is not None:
            x = _require_col(cols, "x", path)
            y = _require_col(_read_data_columns(path2), "x", path2)
            return Dataset({"x": x, "y": y})
        if "group" in cols:
            groups = cols["group"]
            values = _require_col(cols, "x", path)
            levels = sorted(set(groups))
            if len(levels) != 2:
                raise ValueError(f"{path}: 'group' must have exactly two levels, got {levels}")
            first = groups == levels[0]
            return Dataset({"x": values[first], "y": values[~first]})
        raise ValueError(
            "behrens_fisher needs either a 'group,x' file or two files (--data and --data2)")
    if model_name in _TWO_COLUMN_MODELS:
        return Dataset({"x": _require_col(cols, "x", path), "y": _require_col(cols, "y", path)})
    return Dataset({"x": _require_col(cols, "x", path)})


def _require_col(cols: dict, name: str, path: str) -> np.ndarray:
    if name not in cols:
        raise ValueError(f"{path}: missing required column '{name}' (has {sorted(cols)})")
    return cols[name]


def write_dataset(data: Dataset, model_name: str, path: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if model_name == "behrens_fisher":
            writer.writerow(["group", "x"])
            for v in data.col("x"):
                writer.writerow(["1", _fmt(v)])
            for v in data.col("y"):
                writer.writerow(["2", _fmt(v)])
        elif model_name in _TWO_COLUMN_MODELS:
            writer.writerow(["x", "y"])
            for xv, yv in zip(data.col("x"), data.col("y")):
                writer.writerow([_fmt(xv), _fmt(yv)])
        else:
            writer.writerow(["x"])
            for v in data.col("x"):
                writer.writerow([_fmt(v)])


# Rows formatted per write: bounds the Python floats and strings alive at once.
_ROWS_PER_WRITE = 512


def _rows(fmt: str, cycles: range, cols) -> str:
    """fmt once per cycle, in one % call over the cycles interleaved with cols."""
    return fmt * len(cycles) % tuple(itertools.chain.from_iterable(zip(cycles, *cols)))


def _write_chain(values: np.ndarray, chain: int, fh, traces: list):
    """Write the samples.csv rows of chain `chain`, whose draws are values,
    an (m, k) array, to fh, the bytes csv.writer gives for the same cells
    with _fmt on every float, and, from the same strings, the rows of
    column j's trace file to traces[j] for each of traces."""
    fmt = f"{chain},%d" + ",%s" * values.shape[1] + "\r\n"
    for start in range(0, values.shape[0], _ROWS_PER_WRITE):
        block = values[start:start + _ROWS_PER_WRITE]
        cycles = range(start + 1, start + 1 + len(block))
        # One format call per column; the split leaves a trailing "", which
        # zip with the cycles drops.
        cols = [("%.17g," * len(col) % tuple(col)).split(",") for col in block.T.tolist()]
        fh.write(_rows(fmt, cycles, cols))
        for trace, col in zip(traces, cols):
            trace.write(_rows("%d,%s\r\n", cycles, [col]))


def write_samples_csv(samples: SampleMatrix, path: str):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["chain", "cycle", *samples.labels])
        for chain, values in enumerate(samples.values):
            _write_chain(values, chain, fh, [])


# The longest %.17g text of a float: a sign, 17 digits, the point and "e-308".
_FLOAT_CHARS = 24


class _Region:
    """A file-like writer of text into the file fd from byte start on."""

    def __init__(self, fd: int, start: int):
        self.fd, self.start, self.end = fd, start, start

    def write(self, text: str):
        data = memoryview(text.encode("ascii"))
        while data:
            written = os.pwrite(self.fd, data, self.end)
            self.end += written
            data = data[written:]


class _Discard:
    """A file-like writer that keeps nothing."""

    def write(self, text: str):
        pass


class _ChainText:
    """The samples.csv rows of every chain of a run, and the trace rows of
    chain 0, formatted by _write_chain in the process that sampled the chain
    when the run forks (gibbs._run takes it as its chain_text).

    The text goes into one unnamed temporary file, opened before the run, so
    a forked child's rows reach the caller without passing through a pipe.
    The file has a region for each chain and for each trace, sized from the
    longest row; the unwritten rest of a region is a hole that takes no
    space.  The text is held in the page cache, which the kernel can write
    out to the file under memory pressure, not in the memory of a process,
    and is dropped when the file is closed.  A call returns the (start, end)
    of each region it wrote, samples rows first.
    """

    def __init__(self, chains: int, m: int, k: int):
        row = len(f"{chains - 1},{m}") + k * (1 + _FLOAT_CHARS) + 2
        trace_row = len(f"{m},") + _FLOAT_CHARS + 2
        sizes = [m * row] * chains + [m * trace_row] * k
        self.starts = [sum(sizes[:i]) for i in range(len(sizes))]
        self.chains = chains
        self.file = tempfile.TemporaryFile()

    def __call__(self, chain: int, values: np.ndarray) -> tuple:
        fd = self.file.fileno()
        regions = [chain] + (list(range(self.chains, len(self.starts))) if chain == 0 else [])
        rows, *traces = (_Region(fd, self.starts[i]) for i in regions)
        _write_chain(values, chain, rows, traces)
        return tuple((r.start, r.end) for r in (rows, *traces))

    @staticmethod
    def trial(values: np.ndarray):
        """Format values as chain 0's samples.csv rows and keep nothing."""
        _write_chain(values, 0, _Discard(), [])

    def write(self, record: tuple, fh, traces: list):
        """Copy the text record names to fh and, for chain 0's record, to the
        trace files."""
        for (start, end), out in zip(record, (fh, *traces)):
            out.flush()
            while start < end:
                start += os.sendfile(out.fileno(), self.file.fileno(), start, end - start)

    def close(self):
        self.file.close()


def read_samples_csv(path: str, b: int) -> SampleMatrix:
    """Re-ingest a samples.csv written by the run command."""
    cols = _read_csv(path, {"chain": np.int64, "cycle": np.int64}, np.float64)
    if "chain" not in cols or "cycle" not in cols:
        raise ValueError(f"{path}: needs 'chain' and 'cycle' columns")
    labels = tuple(k for k in cols if k not in ("chain", "cycle"))
    if not labels:
        raise ValueError(f"{path}: no parameter columns found")
    chain_ids, cycles = cols["chain"], cols["cycle"]
    if cycles.size == 0:
        raise ValueError(f"{path}: no sample rows")
    for lb in labels:
        if not np.all(np.isfinite(cols[lb])):
            raise ValueError(f"{path}: column '{lb}' contains non-finite values")
    # Negative indexes would wrap around instead of failing.
    if chain_ids.min() < 0:
        raise ValueError(f"{path}: chain ids must be >= 0, got {int(chain_ids.min())}")
    if cycles.min() < 1:
        raise ValueError(f"{path}: cycles are numbered from 1, got {int(cycles.min())}")
    chains = int(chain_ids.max()) + 1
    m = int(cycles.max())
    # Fewer rows than cells leaves a cell empty; the check also bounds the
    # mask below by the row count.
    if chains * m > cycles.size:
        raise ValueError(f"{path}: missing (chain, cycle) rows")
    filled = np.zeros((chains, m), dtype=bool)
    filled[chain_ids, cycles - 1] = True
    if not filled.all():
        raise ValueError(f"{path}: missing (chain, cycle) rows")
    # Every cell is filled, so any row beyond chains * m repeats a cell.
    if cycles.size != chains * m:
        raise ValueError(f"{path}: duplicate (chain, cycle) rows")
    values = np.empty((chains, m, len(labels)))
    values[chain_ids, cycles - 1] = np.column_stack([cols[lb] for lb in labels])
    cfg = ChainConfig(m=m, b=b, chains=chains, seed=0, scan_order=labels)
    return SampleMatrix(values=values, labels=labels, config=cfg)


def write_histogram_csv(summary, path: str):
    densities = summary.hist_densities().tolist()
    edges = summary.hist_edges.tolist()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["bin_left", "bin_right", "count", "density"])
        fh.write("".join([
            "%.17g,%.17g,%d,%.17g\r\n" % (edges[i], edges[i + 1], count, densities[i])
            for i, count in enumerate(summary.hist_counts.tolist())]))


def write_trace_csv(samples: SampleMatrix, param: str, path: str):
    j = samples.index(param)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["cycle", "value"])
        _write_chain(samples.values[0, :, j:j + 1], 0, _Discard(), [fh])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _output_dir(args) -> Path:
    out = os.environ.get(OUTPUT_DIR_ENV) or args.output_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_run(args) -> int:
    model = get_model(args.model)
    if (args.data is None) == (args.simulate is None):
        print("error: provide exactly one of --data or --simulate", file=sys.stderr)
        return 1
    sim_block = None
    if args.simulate is not None:
        kv = _parse_kv(args.simulate)
        if "n" not in kv:
            print("error: --simulate needs n=<count>", file=sys.stderr)
            return 1
        for key in ("n", "seed"):
            if key in kv and not kv[key].is_integer():
                print(f"error: --simulate {key} must be an integer, got {kv[key]}",
                      file=sys.stderr)
                return 1
        n = int(kv.pop("n"))
        sim_seed = int(kv.pop("seed", args.seed))
        data = simulate_dataset(model, kv, n, RngStream(sim_seed, stream_id=2**32))
        sim_block = {"theta": kv, "n": n, "seed": sim_seed}
    else:
        data = load_dataset(args.model, args.data, args.data2)

    config = ChainConfig(
        m=args.m, b=args.b, chains=args.chains, seed=args.seed,
        scan_order=tuple(args.scan_order.split(",")) if args.scan_order else None,
        init=(tuple(_parse_kv(args.init) for _ in range(args.chains))
              if args.init else None),
    )
    with contextlib.ExitStack() as stack:
        text = _ChainText(config.chains, config.m, len(model.params))
        stack.callback(text.close)
        samples, formatted = _run(model, data, config, text)
        report = summarize(samples, bins=args.bins)

        out = _output_dir(args)
        fh = stack.enter_context(open(out / "samples.csv", "w", newline=""))
        csv.writer(fh).writerow(["chain", "cycle", *samples.labels])
        traces = []
        for label in samples.labels:
            traces.append(stack.enter_context(open(out / f"trace_{label}.csv", "w", newline="")))
            csv.writer(traces[-1]).writerow(["cycle", "value"])
        # Chain 0 is formatted with the traces, here or in run.
        for chain, values in enumerate(samples.values):
            if chain in formatted:
                text.write(formatted[chain], fh, traces)
            else:
                _write_chain(values, chain, fh, traces if chain == 0 else [])
    doc = report.to_dict()
    doc.update({
        "version": __version__,
        "model": args.model,
        "data": args.data,
        "data2": args.data2,
        "simulate": sim_block,
        "bins": args.bins,
        "init": [dict(st) for st in (samples.config.init or [])],
    })
    (out / "report.json").write_text(json.dumps(doc, indent=2) + "\n")
    for summary in report.params:
        write_histogram_csv(summary, out / f"hist_{summary.param}.csv")
    for summary in report.params:
        rhat = "nan" if math.isnan(summary.rhat) else f"{summary.rhat:.4f}"
        print(f"{summary.param}: mean={summary.mean:.6g} sd={summary.sd:.6g} "
              f"rhat={rhat} ess={summary.ess:.0f} converged={summary.converged}")
    if samples.warnings:
        print(f"warnings: {samples.warnings}")
    print(f"wrote outputs to {out}")
    return 0


def _cmd_simulate(args) -> int:
    model = get_model(args.model)
    theta = _parse_kv(args.params)
    data = simulate_dataset(model, theta, args.n, RngStream(args.seed, stream_id=2**32))
    write_dataset(data, args.model, args.out)
    print(f"wrote {data.n} observations to {args.out}")
    return 0


def _cmd_check_compat(args) -> int:
    data = load_dataset(args.model, args.data, args.data2)
    reports = check_model(args.model, data, grid_points=args.grid_points, tol=args.tol)
    doc = {param: rep.to_dict() for param, rep in reports.items()}
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for param, rep in reports.items():
        print(f"{param}: {rep.verdict} (max spread {rep.max_spread:.3g})", file=sys.stderr)
    return 0


def _cmd_diag(args) -> int:
    samples = read_samples_csv(args.samples, args.b)
    report = summarize(samples, bins=args.bins)
    doc = report.to_dict()
    # Seed and scan order are not recoverable from a samples file.
    doc["seed"] = None
    doc["scan_order"] = None
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fidgibbs",
        description="Joint fiducial distributions via full conditional samplers and Gibbs composition",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the Gibbs sampler and write outputs")
    p_run.add_argument("--model", required=True, choices=MODEL_NAMES)
    p_run.add_argument("--data", help="input CSV path")
    p_run.add_argument("--data2", help="second group CSV (behrens_fisher only)")
    p_run.add_argument("--simulate", help="k=v list with n=<count> to synthesize data")
    p_run.add_argument("--m", type=int, required=True, help="cycles per chain")
    p_run.add_argument("--b", type=int, default=DEFAULT_BURN_IN, help="burn-in cycles")
    p_run.add_argument("--chains", type=int, default=4)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--scan-order", dest="scan_order", help="comma-separated parameter order")
    p_run.add_argument("--init", help="k=v starting point applied to every chain")
    p_run.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p_run.add_argument("--output-dir", dest="output_dir", default="fidgibbs_out",
                       help=f"output directory (env {OUTPUT_DIR_ENV} overrides)")
    p_run.set_defaults(func=_cmd_run)

    p_sim = sub.add_parser("simulate", help="draw a dataset from a model")
    p_sim.add_argument("--model", required=True, choices=MODEL_NAMES)
    p_sim.add_argument("--params", required=True, help="k=v parameter list")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cc = sub.add_parser("check-compat", help="test conditionals against the analytic joint")
    p_cc.add_argument("--model", required=True, choices=MODEL_NAMES)
    p_cc.add_argument("--data", required=True)
    p_cc.add_argument("--data2")
    p_cc.add_argument("--tol", type=float, default=CLOSED_FORM_TOL)
    p_cc.add_argument("--grid-points", dest="grid_points", type=int, default=DEFAULT_GRID_POINTS)
    p_cc.add_argument("--out")
    p_cc.set_defaults(func=_cmd_check_compat)

    p_diag = sub.add_parser("diag", help="re-diagnose an existing samples.csv")
    p_diag.add_argument("--samples", required=True)
    p_diag.add_argument("--b", type=int, default=DEFAULT_BURN_IN)
    p_diag.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p_diag.add_argument("--out")
    p_diag.set_defaults(func=_cmd_diag)

    return parser


# main's parser, built on its first call: parse_args keeps no state in it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except StructuralError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return 2
    except (FidgibbsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
