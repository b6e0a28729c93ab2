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
are not timed.

A second table splits one in-process ``cli.main(["run", ...])`` per model,
``--simulate`` with the same parameters and n, at m = --cycles with 4
chains, after a short warm-up run of each model, into its phases in wall
time: sample (the sampler call), summarize (``summarize``) and write
(everything after summarize: samples.csv, the traces, report.json and the
histograms).  The shares are of the whole ``cli.main`` call; the table
gives the round with the shortest call, and whether that run forked.  A
forked run formats the samples.csv and trace rows in the processes that
sampled the chains, as each chain ends, so on such a run most of the
formatting is inside sample and write mostly copies the formatted text.

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
from pathlib import Path

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


def draw_times(cycles: int) -> dict:
    """{model: [us per draw, sha256 of the draws]} of one chain per model."""
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
                      hashlib.sha256(samples.values.tobytes()).hexdigest()]
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
    # The sampler call: run in trees older than the per-chain formatting.
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
    """One round in this process: the draw times, then the run phases."""
    return {"draws": draw_times(cycles), "phases": run_phases(cycles)}


def round_in(tree: Path, cycles: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--cycles", str(cycles)]
    done = subprocess.run(cmd, env=env, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"worker in {tree} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def best_of(rounds: list) -> dict:
    return {model: min(r["draws"][model][0] for r in rounds) for model in CASES}


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
        phase_table(rounds, args.cycles)
        return 0
    base_name = args.against
    print(f"\n| model | n | {base_name} | this tree | change | median round change | "
          "faster rounds | same draws |\n| --- | --- | --- | --- | --- | --- | --- | --- |")
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
    phase_table(rounds, args.cycles)
    return 0


if __name__ == "__main__":
    sys.exit(main())
