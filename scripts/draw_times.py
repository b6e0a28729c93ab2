#!/usr/bin/env python3
"""Microseconds per conditional draw for the seven catalog models.

    python3 scripts/draw_times.py [--cycles 20000] [--repeats 3] [--against REV]

Each model runs one chain of --cycles cycles in process (``fidgibbs.run``
with one chain never forks) on a fixed simulated dataset, at the sizes of
the per-draw table in ROADMAP.md.  A draw's time is the process CPU time of
the run, Gibbs bookkeeping included, divided by cycles x parameters; the
table gives the best of --repeats rounds.  Every round runs in a fresh
worker process that first runs a short chain of each model, so lazy imports
are not timed.

With --against REV the rounds also run in a ``git archive`` checkout of REV,
as ``scripts/bench_pairs.py`` makes one, the two trees alternating which
goes first from round to round.  The table then gives both trees, the
relative change and whether the two trees drew the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
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


def worker(cycles: int) -> dict:
    """One round in this process: {model: [us per draw, sha256 of the draws]}."""
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


def round_in(tree: Path, cycles: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--cycles", str(cycles)]
    done = subprocess.run(cmd, env=env, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"worker in {tree} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def best_of(rounds: list) -> dict:
    return {model: min(r[model][0] for r in rounds) for model in CASES}


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
        return 0
    base_name = args.against
    print(f"\n| model | n | {base_name} | this tree | change | same draws |\n"
          "| --- | --- | --- | --- | --- | --- |")
    for model, (_, n) in CASES.items():
        old, new = best[base_name][model], best["this tree"][model]
        same = {r[model][1] for rs in rounds.values() for r in rs}
        print(f"| {model} | {n} | {old:.3g} | {new:.3g} | {100.0 * (new / old - 1.0):+.1f}% | "
              f"{'yes' if len(same) == 1 else 'no'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
