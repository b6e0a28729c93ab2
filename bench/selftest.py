#!/usr/bin/env python3
"""Smoke test of the benchmark: all three workloads and the traced run, in seconds.

    python3 bench/selftest.py

Runs bench/run.py on every workload with --trace 0 and once with --trace 1,
at a reduced --scale, and checks that each prints, as its last line, a
result carrying every metric that BENCHMARK.json names, each with its unit.
Then checks that a directory holding only BENCHMARK.json and the benchmark's
files makes run.py fail without printing a result.  Chains this short may
fail their R-hat checks, so the smoke test checks the form of the output,
not `correct`.  Exits with status 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.1"


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--seed", "7", "--scale", SCALE, *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, expected: dict, label: str):
    if proc.returncode != 0:
        raise SystemExit(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{label}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise SystemExit(f"{label}: attempted/failed {result['attempted']}/{result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise SystemExit(f"{label}: missing {sorted(set(expected) - set(metrics))}, "
                         f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics[name]
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            raise SystemExit(f"{label}: metric {name} is {m}, expected unit {unit}")
    if not any(line.startswith("failed_frac") for line in lines):
        raise SystemExit(f"{label}: no failed_frac line")
    print(f"ok  {label}: {len(metrics)} metrics, {result['attempted']} operations, "
          f"failed {result['failed']}, correct {result['correct']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        proc = run_bench(ROOT, "--workload", w["name"], "--seconds", "1", "--trace", "0")
        check_result(proc, end_to_end, f"{w['name']} --trace 0")
    proc = run_bench(ROOT, "--workload", spec["workloads"][0]["name"], "--seconds", "2",
                     "--trace", "1")
    check_result(proc, per_layer, "traced run")

    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", spec["workloads"][0]["name"], "--seconds", "1",
                         "--trace", "0")
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or last.startswith("{"):
            raise SystemExit(f"bare directory: exit {proc.returncode}, last line {last!r}")
        print(f"ok  bare directory: exit {proc.returncode} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
