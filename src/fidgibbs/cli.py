"""Command-line front end: simulate data, run the sampler, check joints,
re-diagnose saved sample files.

Data files are headered CSV: column ``x`` for the univariate models,
``x,y`` for quadreg and bivariate_normal, and either a ``group,x`` file or
two single-column files for behrens_fisher.  All floating-point output is
written with 17 significant digits so files round-trip losslessly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .compat import CLOSED_FORM_TOL, check_model
from .diagnostics import DEFAULT_BINS, summarize
from .errors import FidgibbsError, StructuralError
from .gibbs import ChainConfig, DEFAULT_BURN_IN, SampleMatrix, run
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

def _read_csv_columns(path: str) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path}: empty file")
        names = [h.strip() for h in header]
        cols = {name: [] for name in names}
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(names):
                raise ValueError(f"{path}: row has {len(row)} fields, expected {len(names)}")
            for name, cell in zip(names, row):
                cols[name].append(cell.strip())
    return cols


def load_dataset(model_name: str, path: str, path2: str | None = None) -> Dataset:
    """Read a dataset in the model's expected CSV layout."""
    cols = _read_csv_columns(path)
    if model_name == "behrens_fisher":
        if path2 is not None:
            x = np.array([float(v) for v in _require_col(cols, "x", path)])
            cols2 = _read_csv_columns(path2)
            y = np.array([float(v) for v in _require_col(cols2, "x", path2)])
            return Dataset({"x": x, "y": y})
        if "group" in cols:
            groups = cols["group"]
            values = [float(v) for v in _require_col(cols, "x", path)]
            levels = sorted(set(groups))
            if len(levels) != 2:
                raise ValueError(f"{path}: 'group' must have exactly two levels, got {levels}")
            x = np.array([v for g, v in zip(groups, values) if g == levels[0]])
            y = np.array([v for g, v in zip(groups, values) if g == levels[1]])
            return Dataset({"x": x, "y": y})
        raise ValueError(
            "behrens_fisher needs either a 'group,x' file or two files (--data and --data2)")
    if model_name in _TWO_COLUMN_MODELS:
        x = np.array([float(v) for v in _require_col(cols, "x", path)])
        y = np.array([float(v) for v in _require_col(cols, "y", path)])
        return Dataset({"x": x, "y": y})
    x = np.array([float(v) for v in _require_col(cols, "x", path)])
    return Dataset({"x": x})


def _require_col(cols: dict, name: str, path: str) -> list:
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


def write_samples_csv(samples: SampleMatrix, path: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "cycle", *samples.labels])
        chains, m, _ = samples.values.shape
        for c in range(chains):
            for i in range(m):
                writer.writerow([c, i + 1, *(_fmt(v) for v in samples.values[c, i])])


def read_samples_csv(path: str, b: int) -> SampleMatrix:
    """Re-ingest a samples.csv written by the run command."""
    cols = _read_csv_columns(path)
    if "chain" not in cols or "cycle" not in cols:
        raise ValueError(f"{path}: needs 'chain' and 'cycle' columns")
    labels = tuple(k for k in cols if k not in ("chain", "cycle"))
    if not labels:
        raise ValueError(f"{path}: no parameter columns found")
    chain_ids = np.array([int(v) for v in cols["chain"]])
    cycles = np.array([int(v) for v in cols["cycle"]])
    if cycles.size == 0:
        raise ValueError(f"{path}: no sample rows")
    # Negative indexes would wrap around instead of failing.
    if chain_ids.min() < 0:
        raise ValueError(f"{path}: chain ids must be >= 0, got {int(chain_ids.min())}")
    if cycles.min() < 1:
        raise ValueError(f"{path}: cycles are numbered from 1, got {int(cycles.min())}")
    chains = int(chain_ids.max()) + 1
    m = int(cycles.max())
    values = np.full((chains, m, len(labels)), np.nan)
    for j, lb in enumerate(labels):
        col = np.array([float(v) for v in cols[lb]])
        values[chain_ids, cycles - 1, j] = col
    if np.any(np.isnan(values)):
        raise ValueError(f"{path}: missing (chain, cycle) rows")
    # Every cell is filled, so any row beyond chains * m repeats a cell.
    if cycles.size != chains * m:
        raise ValueError(f"{path}: duplicate (chain, cycle) rows")
    cfg = ChainConfig(m=m, b=b, chains=chains, seed=0, scan_order=labels)
    return SampleMatrix(values=values, labels=labels, config=cfg)


def write_histogram_csv(summary, path: str):
    densities = summary.hist_densities()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count", "density"])
        for i, count in enumerate(summary.hist_counts):
            writer.writerow([
                _fmt(summary.hist_edges[i]),
                _fmt(summary.hist_edges[i + 1]),
                int(count),
                _fmt(densities[i]),
            ])


def write_trace_csv(samples: SampleMatrix, param: str, path: str):
    j = samples.index(param)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cycle", "value"])
        for i, v in enumerate(samples.values[0, :, j]):
            writer.writerow([i + 1, _fmt(v)])


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
    samples = run(model, data, config)
    report = summarize(samples, bins=args.bins)

    out = _output_dir(args)
    write_samples_csv(samples, out / "samples.csv")
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
    with open(out / "report.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for summary in report.params:
        write_histogram_csv(summary, out / f"hist_{summary.param}.csv")
        write_trace_csv(samples, summary.param, out / f"trace_{summary.param}.csv")
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
    p_cc.add_argument("--grid-points", dest="grid_points", type=int, default=64)
    p_cc.add_argument("--out")
    p_cc.set_defaults(func=_cmd_check_compat)

    p_diag = sub.add_parser("diag", help="re-diagnose an existing samples.csv")
    p_diag.add_argument("--samples", required=True)
    p_diag.add_argument("--b", type=int, default=DEFAULT_BURN_IN)
    p_diag.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p_diag.add_argument("--out")
    p_diag.set_defaults(func=_cmd_diag)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
