#!/usr/bin/env python3
"""Microseconds per conditional draw for the seven catalog models, and where
the time of a ``fidgibbs run`` goes.

    python3 scripts/draw_times.py [--cycles 20000] [--repeats 3] [--against REV]

Each model runs one chain of --cycles cycles in process (``fidgibbs.run``
with one chain never forks) on a fixed simulated dataset, at the sizes of
the per-draw table in ROADMAP.md.  A draw's time is the process CPU time of
the run, Gibbs bookkeeping included, divided by cycles x parameters; the
table gives the best of --repeats rounds.  Every round runs in a fresh
worker process that first runs a short chain of each model, so lazy imports
are not timed.  For bivariate_normal another table gives the microseconds
per draw of each conditional (the two means, the two sigmas, rho), next to
the model's average: each conditional's ``draw`` is called once at every
state of the timed chain, in process time, and a pair of conditionals
gives the mean of the two.

A shape-solve table gives, for the gamma and beta cases of SHAPE_CASES,
the special-function evaluations (calls of the shape map's ``_shape_fdf``)
per solve inside the certificate and per solve outside it, and the share
of solves outside it, counted on an untimed chain of EVALUATION_CYCLES
cycles per case, redraws and chain-start probes included.  A solve is
inside the certificate where gamma < sqrt n (gamma shape) or
gamma < sqrt(n min(1, b)) (beta shape, other shape b).  Its "start us"
column gives the microseconds per call of the solves' elementary start,
``_shape_start``, in process time: the calls of that chain are recorded
and called again, best of the rounds.

A second table splits one in-process ``cli.main(["run", ...])`` per model,
``--simulate`` with the same parameters and n, at m = --cycles with 4
chains, after a short warm-up run of each model, into its phases in wall
time: sample (the sampler call), summarize (``summarize``) and write
(everything after summarize: samples.csv, the traces, report.json and the
histograms).  The shares are of the whole ``cli.main`` call; the table
gives the round with the shortest call, and whether that run forked.  The
children of a forked run only sample: the caller formats every chain's
samples.csv rows and the trace rows in write, forked or not.  (Trees that
formatted rows in the processes that sampled them, as each chain ended,
time their ``cli._run`` as sample, and their write mostly copied text.)

With --against REV the rounds also run in a ``git archive`` checkout of REV,
as ``scripts/bench_pairs.py`` makes one, the two trees alternating which
goes first from round to round.  The tables then give both trees, the
relative change and whether the two trees drew the same bytes.  On a
loaded host the best-of columns of the two trees can come from rounds
under different load, so the per-draw table also gives, per model, the
median over rounds of the change within a round, where the two trees ran
back to back, and in how many rounds this tree was faster.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent

# model -> (parameters of the simulated data, n)
CASES = {
    "normal": ({"mu": 0.0, "sigma2": 1.0}, 50),
    "pareto": ({"alpha": 3.0, "beta": 2.0}, 50),
    "quadreg": ({"beta0": 1.0, "beta1": -0.5, "beta2": 0.25, "sigma2": 0.5}, 30),
    "behrens_fisher": ({"mu_x": 1.0, "mu_y": 0.5, "sigma_x2": 4.0, "sigma_y2": 1.0}, 20),
    "gamma": ({"alpha": 2.0, "beta": 0.5}, 20),
    "beta": ({"alpha": 8.0, "beta": 3.0}, 50),
    "bivariate_normal": ({"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0,
                          "rho": 0.8}, 200),
}
DATA_SEED, CHAIN_SEED, WARM_UP_CYCLES = 2018, 17, 50
RUN_CHAINS = 4
# case -> (model, parameters of the simulated data, n) of the shape-solve
# table: the per-draw table's gamma and beta, and the two golden cases with
# the most solves outside the certificate; the cycles of each case's chain
SHAPE_CASES = {
    "gamma n=20": ("gamma", CASES["gamma"][0], 20),
    "gamma n=5": ("gamma", {"alpha": 2.0, "beta": 0.5}, 5),
    "beta 8/3 n=50": ("beta", CASES["beta"][0], 50),
    "beta 0.4/0.3 n=25": ("beta", {"alpha": 0.4, "beta": 0.3}, 25),
}
EVALUATION_CYCLES = 2000
# row of the bivariate_normal per-conditional table -> the conditionals it averages
BVN_ROWS = {"mu": ("mu_x", "mu_y"), "sigma": ("sigma_x2", "sigma_y2"), "rho": ("rho",)}


def shape_solves() -> dict:
    """{case: [evaluations per solve inside the certificate, per solve
    outside it or None without one, share of solves outside it, us per
    _shape_start call or None without one]} of one chain per SHAPE_CASES
    case, or {} in a tree without _shape_fdf."""
    from fidgibbs import ChainConfig, RngStream, get_model, models, run, simulate_dataset

    solve, fdf = getattr(models, "_shape_solve", None), getattr(models, "_shape_fdf", None)
    start = getattr(models, "_shape_start", None)
    if solve is None or fdf is None:
        return {}
    counts, certified, starts = {}, [True], []

    def recording_start(*args):
        starts.append(args)
        return start(*args)

    def counting_solve(*args):
        # (c, gamma, n, b, ...) in every tree that has _shape_fdf.
        _, g, n, b = args[:4]
        certified[0] = g < 0.0 or g * g < n * (1.0 if b is None else min(1.0, b))
        counts[certified[0]][0] += 1
        return solve(*args)

    def counting_fdf(*args):
        counts[certified[0]][1] += 1
        return fdf(*args)

    models._shape_solve, models._shape_fdf = counting_solve, counting_fdf
    if start is not None:
        models._shape_start = recording_start
    out = {}
    try:
        for case, (model, theta, n) in SHAPE_CASES.items():
            counts.update({True: [0, 0], False: [0, 0]})
            starts.clear()
            spec = get_model(model)
            data = simulate_dataset(spec, theta, n, RngStream(DATA_SEED, 0))
            run(spec, data, ChainConfig(m=EVALUATION_CYCLES, b=0, chains=1, seed=CHAIN_SEED))
            (inside, inside_calls), (outside, outside_calls) = counts[True], counts[False]
            start_us = None
            if starts:
                clock = time.process_time()
                for args in starts:
                    start(*args)
                start_us = 1e6 * (time.process_time() - clock) / len(starts)
            out[case] = [inside_calls / inside, outside_calls / outside if outside else None,
                         outside / (inside + outside), start_us]
    finally:
        models._shape_solve, models._shape_fdf = solve, fdf
        if start is not None:
            models._shape_start = start
    return out


def conditional_times(spec, data, samples) -> dict:
    """{row of BVN_ROWS: us per draw}: each bivariate_normal conditional's
    draw called once at each state of chain 0 of samples."""
    from fidgibbs import RngStream

    conditionals = spec.build_conditionals(data)
    states = [dict(zip(samples.labels, row)) for row in samples.values[0].tolist()]
    rng, warnings = RngStream(CHAIN_SEED, 1), Counter()
    out = {}
    for row, labels in BVN_ROWS.items():
        seconds = 0.0
        for label in labels:
            draw = conditionals[label].draw
            start = time.process_time()
            for state in states:
                draw(data, state, rng, warnings)
            seconds += time.process_time() - start
        out[row] = 1e6 * seconds / (len(labels) * len(states))
    return out


def draw_times(cycles: int) -> dict:
    """{model: [us per draw, sha256 of the draws, {row: us per draw of its
    conditionals} or None]} of one chain per model."""
    from fidgibbs import ChainConfig, RngStream, get_model, run, simulate_dataset

    jobs = []
    for model, (theta, n) in CASES.items():
        spec = get_model(model)
        data = simulate_dataset(spec, theta, n, RngStream(DATA_SEED, 0))
        run(spec, data, ChainConfig(m=WARM_UP_CYCLES, b=0, chains=1, seed=CHAIN_SEED))
        jobs.append((model, spec, data))
    out = {}
    for model, spec, data in jobs:
        config = ChainConfig(m=cycles, b=0, chains=1, seed=CHAIN_SEED)
        start = time.process_time()
        samples = run(spec, data, config)
        seconds = time.process_time() - start
        out[model] = [1e6 * seconds / (cycles * len(spec.params)),
                      hashlib.sha256(samples.values.tobytes()).hexdigest(),
                      conditional_times(spec, data, samples) if model == "bivariate_normal"
                      else None]
    return out


def run_phases(cycles: int) -> dict:
    """{model: [run s, sample s, summarize s, write s, forked]}: the wall time
    of one cli.main(["run", ...]) per model and of its phases, and whether
    the run forked."""
    from fidgibbs import cli
    from fidgibbs.gibbs import DEFAULT_BURN_IN

    spans, forks = {}, []
    fork = os.fork
    os.fork = lambda: forks.append(1) or fork()
    # The sampler call: _run in the trees that formatted rows where they
    # were sampled, run before and since.
    sampler = "_run" if hasattr(cli, "_run") else "run"

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            spans[name] = (start, time.perf_counter())
            return result
        return wrapper

    setattr(cli, sampler, timed("sample", getattr(cli, sampler)))
    cli.summarize = timed("summarize", cli.summarize)
    out = {}
    with tempfile.TemporaryDirectory(prefix="draw-times-run-") as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        # The timed runs overwrite the warm-up runs' entries.
        for m in (WARM_UP_CYCLES, cycles):
            for model, (theta, n) in CASES.items():
                simulate = ",".join(f"{k}={v}" for k, v in theta.items())
                argv = ["run", "--model", model, "--simulate", f"{simulate},n={n}",
                        "--seed", str(DATA_SEED), "--m", str(m),
                        "--b", str(min(DEFAULT_BURN_IN, m // 2)),
                        "--chains", str(RUN_CHAINS), "--output-dir", tmp]
                forks.clear()
                start = time.perf_counter()
                if cli.main(argv) != 0:
                    raise RuntimeError(f"fidgibbs {' '.join(argv)} failed")
                stop = time.perf_counter()
                (s0, s1), (z0, z1) = spans["sample"], spans["summarize"]
                out[model] = [stop - start, s1 - s0, z1 - z0, stop - z1, bool(forks)]
    return out


def worker(cycles: int) -> dict:
    """One round in this process: the draw times, the run phases, then the
    shape-solve counts."""
    return {"draws": draw_times(cycles), "phases": run_phases(cycles), "solves": shape_solves()}


def round_in(tree: Path, cycles: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--cycles", str(cycles)]
    done = subprocess.run(cmd, env=env, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"worker in {tree} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def best_of(rounds: list) -> dict:
    return {model: min(r["draws"][model][0] for r in rounds) for model in CASES}


def solve_table(rounds: dict):
    """The shape-solve table: the counts are the same in every round of a
    tree, the start times the best of its rounds."""
    print(f"\nshape solves: _shape_fdf calls per solve, 1 chain x {EVALUATION_CYCLES} cycles per "
          "case, redraws and chain-start probes included; start us: process time per "
          "_shape_start call of that chain, best of the rounds\n\n"
          "| case | tree | per certified solve | per solve outside the certificate | "
          "share outside | start us |\n| --- | --- | --- | --- | --- | --- |")
    for case in SHAPE_CASES:
        for name, rs in rounds.items():
            cells = rs[0]["solves"].get(case)
            if cells is None:
                print(f"| {case} | {name} | - | - | - | - |")
                continue
            inside, outside, share = cells[:3]
            times = [r["solves"][case][3] for r in rs if r["solves"][case][3] is not None]
            print(f"| {case} | {name} | {inside:.3g} | "
                  f"{'-' if outside is None else f'{outside:.3g}'} | {100.0 * share:.2g}% | "
                  f"{f'{min(times):.3g}' if times else '-'} |")


def bvn_table(rounds: dict, base_name: Optional[str]):
    """The bivariate_normal per-conditional table: best of the rounds per
    tree and, against a base, the median change within a round."""
    names = list(rounds)
    extra = " | change | median round change | faster rounds" if base_name else ""
    print("\nbivariate_normal per conditional: us per draw at the states of the timed chain, "
          f"best of the rounds\n\n| conditional | {' | '.join(names)}{extra} |\n| --- |"
          + " --- |" * (len(names) + (3 if base_name else 0)))
    cells = {"average (chain)": lambda r: r["draws"]["bivariate_normal"][0]}
    cells.update({row: (lambda r, row=row: r["draws"]["bivariate_normal"][2][row])
                  for row in BVN_ROWS})
    for row, value in cells.items():
        best = {name: min(value(r) for r in rs) for name, rs in rounds.items()}
        line = f"| {row} | " + " | ".join(f"{best[name]:.3g}" for name in names)
        if base_name:
            # Round r ran the two trees back to back.
            ratios = [value(t) / value(b) for b, t in zip(rounds[base_name], rounds["this tree"])]
            line += (f" | {100.0 * (best['this tree'] / best[base_name] - 1.0):+.1f}% | "
                     f"{100.0 * (statistics.median(ratios) - 1.0):+.1f}% | "
                     f"{sum(q < 1.0 for q in ratios)}/{len(ratios)}")
        print(line + " |")


def phase_table(rounds: dict, cycles: int):
    print(f"\nfidgibbs run phases: m = {cycles}, {RUN_CHAINS} chains, cli.main in this process, wall seconds "
          "(share of the run), the round with the shortest run\n\n"
          "| model | tree | run s | sample | summarize | write | forked |\n"
          "| --- | --- | --- | --- | --- | --- | --- |")
    for model in CASES:
        for name, rs in rounds.items():
            total, *parts, forked = min(r["phases"][model] for r in rs)
            cells = " | ".join(f"{p:.3g} ({100.0 * p / total:.0f}%)" for p in parts)
            print(f"| {model} | {name} | {total:.3g} | {cells} | {'yes' if forked else 'no'} |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cycles", type=int, default=20000, help="cycles of each model's chain")
    ap.add_argument("--repeats", type=int, default=3, help="rounds; the table gives the best")
    ap.add_argument("--against", metavar="REV", help="git revision to time alongside this tree")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.cycles < 1 or args.repeats < 1:
        ap.error("--cycles and --repeats must be positive")
    if args.worker:
        print(json.dumps(worker(args.cycles)))
        return 0

    trees = {"this tree": ROOT}
    with tempfile.TemporaryDirectory(prefix="draw-times-") as tmp:
        if args.against:
            base = Path(tmp) / "base"
            base.mkdir()
            archive = subprocess.run(["git", "archive", args.against], cwd=ROOT,
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "x", "-C", str(base)], input=archive, check=True)
            trees = {args.against: base, "this tree": ROOT}
        rounds = {name: [] for name in trees}
        for r in range(args.repeats):
            names = list(trees) if r % 2 == 0 else list(reversed(trees))
            for name in names:
                rounds[name].append(round_in(trees[name], args.cycles))

    best = {name: best_of(rs) for name, rs in rounds.items()}
    print(f"us per conditional draw: 1 chain x {args.cycles} cycles, in process, "
          f"best of {args.repeats}")
    if not args.against:
        print("\n| model | n | us/draw |\n| --- | --- | --- |")
        for model, (_, n) in CASES.items():
            print(f"| {model} | {n} | {best['this tree'][model]:.3g} |")
        bvn_table(rounds, None)
        solve_table(rounds)
        phase_table(rounds, args.cycles)
        return 0
    base_name = args.against
    print(f"\n| model | n | {base_name} | this tree | change | median round change | "
          "faster rounds | same draws |\n"
          "| --- | --- | --- | --- | --- | --- | --- | --- |")
    for model, (_, n) in CASES.items():
        old, new = best[base_name][model], best["this tree"][model]
        # Round r ran the two trees back to back.
        ratios = [t["draws"][model][0] / b["draws"][model][0]
                  for b, t in zip(rounds[base_name], rounds["this tree"])]
        same = {r["draws"][model][1] for rs in rounds.values() for r in rs}
        print(f"| {model} | {n} | {old:.3g} | {new:.3g} | {100.0 * (new / old - 1.0):+.1f}% | "
              f"{100.0 * (statistics.median(ratios) - 1.0):+.1f}% | "
              f"{sum(q < 1.0 for q in ratios)}/{len(ratios)} | "
              f"{'yes' if len(same) == 1 else 'no'} |")
    bvn_table(rounds, base_name)
    solve_table(rounds)
    phase_table(rounds, args.cycles)
    return 0


if __name__ == "__main__":
    sys.exit(main())
