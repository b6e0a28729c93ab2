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
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from . import __version__
from .compat import CLOSED_FORM_TOL, DEFAULT_GRID_POINTS, check_model
from .diagnostics import DEFAULT_BINS, _check_bins, summarize
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


# ---------------------------------------------------------------------------
# samples.csv text
# ---------------------------------------------------------------------------
#
# The rows of samples.csv and of the traces are built a block of draws at a
# time with numpy, byte for byte what csv.writer gives for the cells with
# '%.17g' on every float.  A cell is six little-endian 8-byte words that
# hold its characters in order, with 0 bytes in the unused places, which
# are dropped from a block's text at the end:
#   word 0     the sign, the "0." and zeros before the digits of a value
#              below 1 in fixed notation, the first digit, and in its last
#              byte a point after that digit;
#   words 1-4  the other 16 digits in their even bytes, each followed by a
#              byte that holds a point after that digit;
#   word 5     the exponent ("e+17", "e-305"), then the comma or line end
#              of the row in its last two bytes.
# The 17 digits are those of D = round(|v| 10^(16 - E)), E = floor(log10 |v|)
# (log10's floor, corrected by comparing |v| with the powers of ten); a D
# of 10^17 is 10^16 with E + 1.  The power of ten is the pair hi + lo of
# doubles, within 2^-106 of it; Dekker's product splits |v| hi exactly into
# p + err, and p, a double above 2^53, is an integer, so D is p plus
# err + |v| lo (whose error is under 1e-14) rounded.  Zeros, non-finite
# values, |v| outside [1e-280, 1e280] (where the pair or the product leaves
# the normal doubles) and values where err + |v| lo lies within 1e-9 of a
# half, exact decimal ties included, are formatted with '%'.  %g's layout
# follows from E, from whether digits after the point are left once
# trailing zeros go, and from the sign: one key per cell picks its
# template words.

_WORD = np.dtype("<u8")
_POW_OFFSET = 300  # the power-of-ten tables run from 10^-300 to 10^300
_FAST = (1e-280, 1e280)
_TIE = 1e-9
_VELTKAMP = 2.0 ** 27 + 1
_FIXED = range(-4, 17)  # the exponents %.17g writes in fixed notation
_SCI = len(_FIXED)  # the template class of exponent notation
# Cells formatted per block: bounds the temporaries of the writer.
_CELLS_PER_BLOCK = 4096
_COMMA, _LINE_END = (int.from_bytes(b.rjust(8, b"\0"), "little") for b in (b",", b"\r\n"))


class _TextTables(NamedTuple):
    hi: np.ndarray  # 10^k, k = -300..300, rounded to a double
    lo: np.ndarray  # 10^k - hi, rounded
    hi_big: np.ndarray  # hi split into two 26-bit halves
    hi_small: np.ndarray
    key: np.ndarray  # by exponent: 4 x the template class
    int_digits: np.ndarray  # by exponent: digits after the first before the point
    exponent: np.ndarray  # by exponent: word 5
    templates: np.ndarray  # (5, key): words 0-4 without digits
    first: np.ndarray  # by digit: word 0's digit
    digits: np.ndarray  # by 4-digit group: its digits in lanes; + 10000: trailing zeros dropped
    zeros: np.ndarray  # by 4-digit group: trailing zeros (4 for 0000)
    groups: np.ndarray  # by 4-digit group: its 4 bytes; + 10000: leading zeros dropped


@functools.cache
def _text_tables() -> _TextTables:
    """The writer's tables, built on its first block."""
    hi, lo = [], []
    for k in range(-_POW_OFFSET, _POW_OFFSET + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    big = _VELTKAMP * hi
    big -= big - hi

    exponents = range(-_POW_OFFSET, _POW_OFFSET + 1)
    classes = np.array([e - _FIXED[0] if e in _FIXED else _SCI for e in exponents])
    int_digits = np.array([max(e, 0) if e in _FIXED else 0 for e in exponents])
    exponent = np.array([0 if e in _FIXED else int.from_bytes(b"e%+03d" % e, "little")
                         for e in exponents], _WORD)

    # Templates by key = 4 class + 2 (digits follow the point) + negative.
    templates = np.zeros((4 * (_SCI + 1), 40), np.uint8)
    for key, row in enumerate(templates):
        cls, point, negative = key // 4, key // 2 % 2, key % 2
        if negative:
            row[0] = ord("-")
        e = _FIXED[cls] if cls < _SCI else 0
        if e < 0:
            lead = b"0." + b"0" * (-e - 1)
            row[1:1 + len(lead)] = np.frombuffer(lead, np.uint8)
            continue
        row[8:8 + 2 * e:2] = ord("0")  # zeros of the integer part stay
        if point:
            row[7 + 2 * e] = ord(".")

    # The digits of 0000..9999, where a nonzero digit is at or after each
    # place (kept), and where one is at or before it (leading).
    g = np.arange(10000)
    quads = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    kept = np.maximum.accumulate(quads[:, ::-1] != 0, axis=1)[:, ::-1]
    leading = np.maximum.accumulate(quads != 0, axis=1)
    quads += 48
    lanes = np.zeros((2, 10000, 8), np.uint8)
    lanes[0, :, ::2] = quads
    lanes[1, :, ::2] = quads * kept
    return _TextTables(
        hi=hi, lo=np.array(lo), hi_big=big, hi_small=hi - big,
        key=4 * classes, int_digits=int_digits, exponent=exponent,
        templates=np.ascontiguousarray(templates.view(_WORD).T),
        first=np.array([(48 + d) << 48 for d in range(10)], _WORD),
        digits=lanes.reshape(20000, 8).view(_WORD)[:, 0].copy(),
        zeros=(4 - kept.sum(axis=1)).astype(np.uint8),
        groups=np.concatenate([quads, quads * leading]).view("<u4")[:, 0].copy())


def _cells(v: np.ndarray) -> np.ndarray:
    """The '%.17g' text of each of v, 1-d float64, as (len(v), 6) cell
    words, word 5's last two bytes 0."""
    t = _text_tables()
    a = np.abs(v)
    with np.errstate(invalid="ignore"):
        slow = ~((a >= _FAST[0]) & (a <= _FAST[1]))
    a[slow] = 1.0
    # E, as an index into the tables: log10's floor, then exact checks.
    e = np.floor(np.log10(a)).astype(np.int64)
    e += _POW_OFFSET
    below = t.hi[e]
    e -= (a < below) | ((a == below) & (t.lo[e] > 0))
    above = t.hi[e + 1]
    e += (a > above) | ((a == above) & (t.lo[e + 1] <= 0))
    s = (2 * _POW_OFFSET + 16) - e  # 10^(16 - E)
    p = a * t.hi[s]
    big = _VELTKAMP * a
    big -= big - a
    small = a - big
    hi_big, hi_small = t.hi_big[s], t.hi_small[s]
    err = big * hi_big - p
    err += big * hi_small
    err += small * hi_big
    err += small * hi_small
    err += a * t.lo[s]
    up = np.rint(err)
    err -= up
    slow |= np.abs(np.abs(err) - 0.5) < _TIE
    d = p.astype(np.int64)
    d += up.astype(np.int64)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    g0, rest = np.divmod(d, 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    g1, g2 = np.divmod(high, 10 ** 4)
    g3, g4 = np.divmod(low, 10 ** 4)
    # zN: groups N.. are 0000, so group N - 1 ends the digits.
    z4 = g4 == 0
    z3 = z4 & (g3 == 0)
    z2 = z3 & (g2 == 0)
    zeros = t.zeros[g4] + z4 * t.zeros[g3] + z3 * t.zeros[g2] + z2 * t.zeros[g1]
    key = t.key[e] + 2 * (zeros + t.int_digits[e] < 16) + np.signbit(v)
    words = np.empty((len(v), 6), _WORD)
    words[:, 0] = t.templates[0][key] | t.first[g0]
    for w, (g, last) in enumerate(((g1, z2), (g2, z3), (g3, z4), (g4, True)), start=1):
        words[:, w] = t.digits[g + 10000 * last] | t.templates[w][key]
    words[:, 5] = t.exponent[e]
    _format_cells(words, v, np.flatnonzero(slow))
    return words


def _format_cells(words: np.ndarray, v: np.ndarray, which: np.ndarray):
    """Write the '%.17g' text of v[i] into cell words[i] for each i of which."""
    chars = words.view(np.uint8)
    for i in which.tolist():
        text = b"%.17g" % v[i]
        chars[i] = 0
        chars[i, :len(text)] = np.frombuffer(text, np.uint8)


def _cycle_words(first: int, n: int) -> np.ndarray:
    """(n, words) words: the decimal digits of first .. first + n - 1, each
    followed by a comma, in the same zero-padded form as a cell."""
    groups = -(-len(str(first + n - 1)) // 4)
    cols = np.zeros((n, (4 * groups + 8) // 8 * 2), "<u4")
    tables = _text_tables()
    number = np.arange(first, first + n, dtype=np.int64)
    leading = True
    for i in range(groups - 1):
        g, number = np.divmod(number, 10 ** (4 * (groups - 1 - i)))
        cols[:, i] = tables.groups[g + 10000 * leading]
        leading = leading & (g == 0)
    cols[:, groups - 1] = tables.groups[number + 10000 * leading]
    cols[:, -1] = ord(",") << 24
    return cols.view(_WORD)


def _block_text(block: np.ndarray, chain: int, first: int, traces: bool) -> list:
    """The samples.csv rows of block, chain `chain`'s (rows, k) draws from
    cycle first on, and if traces, then the rows of each column's trace
    file: a list of bytes."""
    block = np.asarray(block, dtype=np.float64)
    rows, k = block.shape
    prefix = b"%d," % chain
    head = np.frombuffer(prefix.rjust(-(-len(prefix) // 8) * 8, b"\0"), _WORD)
    cells = _cells(block.reshape(-1)).reshape(rows, k, 6)
    cycles = _cycle_words(first, rows)
    lead = len(head) + cycles.shape[1]
    text = np.empty((rows, lead + 6 * k), _WORD)
    text[:, :len(head)] = head
    text[:, len(head):lead] = cycles
    body = text[:, lead:].reshape(rows, k, 6)
    body[:] = cells
    body[:, :, 5] |= np.array([_COMMA] * (k - 1) + [_LINE_END], _WORD)
    out = [text.tobytes().translate(None, b"\0")]
    if traces:
        trace = np.empty((rows, cycles.shape[1] + 6), _WORD)
        trace[:, :cycles.shape[1]] = cycles
        for j in range(k):
            trace[:, -6:] = cells[:, j]
            trace[:, -1] |= np.uint64(_LINE_END)
            out.append(trace.tobytes().translate(None, b"\0"))
    return out


def _write_chain(values: np.ndarray, chain: int, fh, traces: list):
    """Write the samples.csv rows of chain `chain`, whose draws are values,
    an (m, k) array, to fh and the rows of column j's trace file to
    traces[j] for each of traces: text files opened with newline="", whose
    binary buffers take the rows after a flush."""
    for out in (fh, *traces):
        out.flush()
    rows = max(1, _CELLS_PER_BLOCK // values.shape[1])
    for start in range(0, values.shape[0], rows):
        text, *trace_texts = _block_text(values[start:start + rows], chain, start + 1,
                                         bool(traces))
        fh.buffer.write(text)
        for trace, trace_text in zip(traces, trace_texts):
            trace.buffer.write(trace_text)


def write_samples_csv(samples: SampleMatrix, path: str):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["chain", "cycle", *samples.labels])
        for chain, values in enumerate(samples.values):
            _write_chain(values, chain, fh, [])


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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _output_dir(args) -> tuple:
    """The output directory, made with its missing parents, and the
    directories made, deepest first."""
    path = Path(os.environ.get(OUTPUT_DIR_ENV) or args.output_dir)
    made = [d for d in (path, *path.parents) if not d.exists()]
    path.mkdir(parents=True, exist_ok=True)
    return path, made


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
    # The outputs' arguments are checked, and their directory made, before
    # any chain runs; a run that fails removes the directories it made.
    _check_bins(args.bins)
    out, made = _output_dir(args)
    try:
        samples = run(model, data, config)
        report = summarize(samples, bins=args.bins)
    except BaseException:
        for d in made:
            d.rmdir()
        raise

    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(open(out / "samples.csv", "w", newline=""))
        csv.writer(fh).writerow(["chain", "cycle", *samples.labels])
        traces = []
        for label in samples.labels:
            traces.append(stack.enter_context(open(out / f"trace_{label}.csv", "w", newline="")))
            csv.writer(traces[-1]).writerow(["cycle", "value"])
        for chain, values in enumerate(samples.values):
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
    doc = {pair: rep.to_dict() for pair, rep in reports.items()}
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for pair, rep in reports.items():
        print(f"{pair}: {rep.verdict} (max |mixed| {rep.max_spread:.3g}, "
              f"{rep.mismatches} mismatch cells)", file=sys.stderr)
    return 0


def _cmd_diag(args) -> int:
    _check_bins(args.bins)
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

    p_cc = sub.add_parser("check-compat", help="test each pair of conditionals for compatibility")
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
