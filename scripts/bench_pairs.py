#!/usr/bin/env python3
"""Before/after pairs of the benchmark: the base revision against this tree.

    python3 scripts/bench_pairs.py --base-rev <rev> --workload closed_form_cli \\
        --seeds 101-110 --seconds 30 --out BENCH_<n>.json

Each pair runs ``bench/run.py --workload W --seed S --seconds T --trace 0``
once in a checkout of the base revision and once in this working tree, one
after the other; even pairs run the base first and odd pairs the change, so
that neither side always runs on a warmer or cooler host.  The base
checkout is made with ``git archive`` into a temporary directory.  Several
``--workload`` options give several workloads in one file; each gets its
own pairs, and a workload already in the ``--out`` file is replaced while
the others are kept.

The JSON written to ``--out`` holds, per workload and end-to-end metric,
the per-run values of each side in pair order, their median, quartiles and
interquartile range, and in how many pairs the change was better (the
direction comes from BENCHMARK.json); ``wall_summary`` does the same for
the unscaled wall-time metrics of each run's record, and each run keeps
the median wall seconds of every job it ran (``job_median_s``).  A gain
claim needs the change to be better in at least 9 of 10 pairs and its
median to differ from the base's by more than the base's interquartile
range; ``claim_holds`` says whether it does.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # The run record also holds the metrics in unscaled wall time.
    record = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    jobs = {}
    for op in record.get("operations", []):
        if op["ok"]:
            jobs.setdefault(op["name"], []).append(op["seconds"])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "wall_metrics": {k: v["value"] for k, v in record.get("wall_metrics", {}).items()},
            "job_median_s": {name: statistics.median(s) for name, s in sorted(jobs.items())}}


def summarize_side(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list, directions: dict, key: str = "metrics") -> dict:
    out = {}
    for name, better in directions.items():
        if not all(name in p["base"][key] and name in p["head"][key] for p in pairs):
            continue
        base = [p["base"][key][name] for p in pairs]
        head = [p["head"][key][name] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        b, h = summarize_side(base), summarize_side(head)
        out[name] = {
            "better": better, "base": b, "head": h, "head_better_pairs": wins,
            "pairs": len(pairs), "median_change_pct": 100.0 * (h["median"] / b["median"] - 1.0),
            "claim_holds": (wins >= 0.9 * len(pairs) and len(pairs) >= 10
                            and sign * (h["median"] - b["median"]) > b["iqr"]),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base-rev", required=True, help="git revision to compare against")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10", help="one pair per seed, e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    directions = {m["name"]: m["better"]
                  for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        ap.error("--seeds needs at least two seeds for quartiles")
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        archive = subprocess.run(["git", "archive", args.base_rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "x", "-C", str(base)], input=archive, check=True)
        base_rev = subprocess.run(["git", "rev-parse", args.base_rev], cwd=ROOT, text=True,
                                  capture_output=True, check=True).stdout.strip()
        head_rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  capture_output=True).stdout.strip()
        # An existing --out file keeps its other workloads.
        record = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
        record["environment"] = {"python": platform.python_version(),
                                 "machine": platform.machine(), "nproc": os.cpu_count()}
        run_info = {"command": " ".join(["scripts/bench_pairs.py", *(argv or sys.argv[1:])]),
                    "base_rev": base_rev, "head": f"working tree at {head_rev}",
                    "seconds": args.seconds}
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = bench_once(base if side == "base" else ROOT, workload, seed,
                                            args.seconds)
                pairs.append(pair)
                b, h = pair["base"]["metrics"], pair["head"]["metrics"]
                print(f"{workload} seed {seed}: cycles_per_s {b['cycles_per_s']:.6g} -> "
                      f"{h['cycles_per_s']:.6g}, failed {pair['base']['failed']} -> "
                      f"{pair['head']['failed']}", flush=True)
            record["workloads"][workload] = {
                **run_info, "pairs": pairs, "summary": summarize(pairs, directions),
                "wall_summary": summarize(pairs, directions, "wall_metrics")}
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
