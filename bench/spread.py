#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload numeric_shapes --seeds 1-10 [--seconds 30]

Runs bench/run.py once per seed, one run at a time, and prints for every
end-to-end metric the median of its values and their spread: the distance
between the first and the third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.  A
spread under a third of the bound is the benchmark's steadiness target.
Use --records to summarise runs already made instead of running again.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="a range such as 1-10")
    ap.add_argument("--seconds", default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--records", action="store_true",
                    help="read .bench_out records of earlier runs instead of running")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(spec["run_seconds"])
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seed_list(args.seeds):
        record = ROOT / ".bench_out" / f"{args.workload}-seed{seed}-trace0.json"
        if not args.records:
            cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
        metrics = json.loads(record.read_text())["metrics"]
        for name in values:
            values[name].append(metrics[name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        s = spread(vals)
        mark = "ok" if s < m["bound"] / 3 else ("WIDE" if s <= m["bound"] else "OVER")
        print(f"{m['name']:14s} median {statistics.median(vals):12.6g} {m['unit']:4s} "
              f"spread {s:.3f}  bound {m['bound']}  {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
