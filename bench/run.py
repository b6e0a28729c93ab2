#!/usr/bin/env python3
"""Benchmark for fidgibbs: one workload per process, end to end or traced.

    python3 bench/run.py --workload closed_form_cli --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the named workload runs untraced in whole
passes for about ``--seconds`` and the end-to-end metrics are printed.
With ``--trace 1`` the traced layer suite runs instead (see tracing.py) and
the per-layer metrics are printed.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  A
record of the run (environment, every operation with its timing, check
outcome and sample-matrix sha256) is written to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.  End-to-end times are
scaled to a reference host speed measured during the run (see HostProbe).

Exit status is 0 when a result was printed, 2 when the package sources are
missing, 1 on any other error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

# numpy and fidgibbs are imported only inside the timed set-up (workloads.py),
# so the workload names are listed here for argument parsing.
WORKLOAD_NAMES = ("closed_form_cli", "numeric_shapes", "postprocess")

# set-up is measured this many times per run (once in this process, the
# rest in fresh interpreters) and reported as the median.
SETUP_REPEATS = 5

# The tail percentile of job_s per workload, over the operations of one pass
# (24, 7 and 13), each at its median time in the run: the highest percentile
# with about ten operations of a 30-second baseline run beyond it.
# numeric_shapes completes only 2 to 4 passes, so its p80 has three to six.
# The percentile is fixed, so that a faster program, which completes more
# passes, is compared on the same percentile.
TAIL_QUANTILE = {"closed_form_cli": 0.9, "numeric_shapes": 0.8, "postprocess": 0.95}

# Host speed.  On a shared host the speed of the whole machine drifts by 20%
# to 60% within minutes, and by about 15% from one second to the next; every
# operation drifts with it.  So the run probes the host: a SIGALRM handler
# times a fixed pure-Python loop every PROBE_INTERVAL_S of wall time, also in
# the middle of an operation, and its time is taken out of that operation's
# time.  Each operation's time is then scaled to the host speed at which one
# loop takes REF_NOMINAL_S, using the mean loop time within PROBE_WINDOW_S of
# the operation.  The loop is the benchmark's own code, so a change to the
# package moves the metrics and not the scale.  Set-up is probed
# PROBE_REPS times just before and just after.
REF_LOOPS = 6000
REF_NOMINAL_S = 5e-4
PROBE_INTERVAL_S = 0.05
PROBE_WINDOW_S = 0.1
PROBE_REPS = 5

# The benchmark generates load from this one process; native thread pools
# are capped at two threads unless the caller set them.
THREAD_CAP = "2"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply chain lengths and matrix sizes (smoke tests only)")
    ap.add_argument("--setup-only", action="store_true",
                    help="measure one set-up, print it and exit (used internally)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        ap.error("--seed must be >= 0, --seconds and --scale > 0")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def thread_count():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(load_at_start, versions) -> dict:
    return {
        "python": sys.version.split()[0],
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "loadavg_at_start": load_at_start,
        "load_generator": {"processes": 1, "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}},
    }


def make_workdir(tag: str) -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    return path


def setup_workload(name: str, seed: int, scale: float, workdir: Path):
    """Import fidgibbs and generate the workload's inputs.

    Returns (workload, seconds, host scale); the host is probed just before
    and just after.
    """
    probes = [reference_loop() for _ in range(PROBE_REPS)]
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOAD_CLASSES[name](seed, workdir, scale)
    seconds = time.perf_counter() - t0
    probes += [reference_loop() for _ in range(PROBE_REPS)]
    return wl, seconds, REF_NOMINAL_S / statistics.fmean(probes)


def setup_in_subprocess(args):
    """One set-up in a fresh interpreter; returns (seconds, host scale)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--scale", str(args.scale), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed ({proc.returncode}): {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(out["setup_s"]), float(out["host_scale"])


def reference_loop() -> float:
    """Seconds taken by one pass of the fixed host-speed probe loop."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(REF_LOOPS):
        s += math.sqrt(i + 1.0) * 1.0001
    return time.perf_counter() - t0


class HostProbe:
    """Times reference_loop every PROBE_INTERVAL_S from a SIGALRM handler.

    samples holds (perf_counter at entry, loop seconds, handler seconds).
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        loop = reference_loop()
        self.samples.append((t0, loop, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def adjust(self, r):
        """Take the probes that ran inside r's timed call out of r.seconds;
        return r's host scale, REF_NOMINAL_S over the mean loop time near r."""
        end = r.start + r.seconds
        inside = sum(h for at, _, h in self.samples if r.start <= at < end)
        near = [d for at, d, _ in self.samples
                if r.start - PROBE_WINDOW_S <= at <= end + PROBE_WINDOW_S]
        if not near:  # the handler waits for a long native call to return
            mid = r.start + r.seconds / 2
            near = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        r.extra["probe_s"] = inside
        r.seconds -= inside
        return REF_NOMINAL_S / statistics.fmean(near)


def run_passes(ops, seconds: float):
    """Passes over ops while the next operation is predicted to end in time.

    The prediction is the operation's time in the pass before (the first
    pass always runs whole).  An operation that raises is recorded as
    failed; the run goes on.  The host is probed throughout (see HostProbe).
    Returns the results, with the probes taken out of their times, each
    result's host scale, the probe samples as (seconds into the run, loop
    seconds), the number of whole passes and the most threads seen.
    """
    from workloads import OpResult
    results = []
    start = time.perf_counter()
    last = [0.0] * len(ops)
    passes = 0
    threads = []
    with HostProbe() as probe:
        while True:
            for j, op in enumerate(ops):
                t0 = time.perf_counter()
                if passes and t0 - start + last[j] > seconds:
                    break
                try:
                    results.append(op(passes))
                except Exception as exc:
                    results.append(OpResult(f"op{j}", "error", time.perf_counter() - t0,
                                            error=f"{type(exc).__name__}: {exc}", start=t0))
                last[j] = time.perf_counter() - t0
            else:
                passes += 1
                threads.append(thread_count())
                continue
            break
        time.sleep(PROBE_WINDOW_S)  # probes after the last operation
    scales = [probe.adjust(r) for r in results]
    for r, f in zip(results, scales):
        r.extra["at_s"] = r.start - start
        r.extra["host_scale"] = f
    samples = [(at - start, d) for at, d, _ in probe.samples]
    return (results, scales, samples, passes,
            max((t for t in threads if t is not None), default=None))


def _quantile(xs, q: float) -> float:
    import numpy as np
    return float(np.quantile(np.asarray(xs, dtype=float), q))


def op_medians(results, times) -> dict:
    """Each operation's median time over the run's passes, by operation name."""
    by_name = {}
    for r, t in zip(results, times):
        by_name.setdefault(r.name, []).append(t)
    return {name: statistics.median(ts) for name, ts in by_name.items()}


def _rate(results, medians: dict, attr: str, kinds) -> float:
    """attr per second over one pass of the operations of the given kinds,
    each at its median time and its mean attr over the run's passes."""
    amounts = {}
    for r in results:
        if r.kind in kinds and r.ok:
            amounts.setdefault(r.name, []).append(getattr(r, attr) or 0)
    total = sum(medians[name] for name in amounts)
    return sum(statistics.fmean(a) for a in amounts.values()) / total if total > 0 else 0.0


def end_to_end_metrics(workload: str, results, setup_s: float, scales=None) -> dict:
    """The end-to-end metrics; each job time is multiplied by its host scale."""
    times = [r.seconds * (scales[i] if scales else 1.0) for i, r in enumerate(results)]
    medians = op_medians(results, times)
    if workload == "postprocess":
        # Throughput over the operations that handle a sample matrix; ESS
        # over the diag operations that report it.
        value_kinds, ess_kinds = ("write", "diag", "estimate"), ("diag",)
    else:
        value_kinds = ess_kinds = ("sample",)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "job_s.p50": (_quantile(list(medians.values()), 0.5), "s"),
        "job_s.tail": (_quantile(list(medians.values()), TAIL_QUANTILE[workload]), "s"),
        "cycles_per_s": (_rate(results, medians, "cycles", value_kinds), "1/s"),
        "ess_per_s": (_rate(results, medians, "ess", ess_kinds), "1/s"),
        "values_per_s": (_rate(results, medians, "values", value_kinds), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def op_record(r) -> dict:
    return {"name": r.name, "kind": r.kind, "seconds": r.seconds, "ok": r.ok, "error": r.error,
            "model": r.model, "cycles": r.cycles, "values": r.values, "ess": r.ess,
            "rhat_max": r.rhat_max, "sha256": r.sha256, **r.extra}


def emit(args, metrics: dict, attempted: int, failed: int, correct: bool, record: dict):
    """Write the run record, print the summary and, last, the result line."""
    OUT_ROOT.mkdir(exist_ok=True)
    path = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "scale": args.scale, "attempted": attempted,
                   "failed": failed, "failed_frac": failed / attempted, "correct": correct,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in record.get("summary", []):
        print(line)
    for k, (v, u) in metrics.items():
        print(f"{k:42s} {v:14.6g} {u}")
    print(f"{'failed_frac':42s} {failed / attempted:14.6g} ({failed} of {attempted} operations)")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fidgibbs" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'fidgibbs'}; run from a fidgibbs checkout",
              file=sys.stderr)
        return 2
    load_at_start = list(os.getloadavg())
    for key in THREAD_ENV:
        os.environ.setdefault(key, THREAD_CAP)
    os.environ.pop("FIDGIBBS_OUTPUT_DIR", None)
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        workdir = make_workdir(f"setup-{args.workload}")
        try:
            wl, seconds, host_scale = setup_workload(args.workload, args.seed, args.scale, workdir)
            wl.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds, "host_scale": host_scale}))
        return 0

    workdir = make_workdir(f"{args.workload}-trace{args.trace}")
    try:
        if args.trace:
            record = trace_run(args, workdir)
        else:
            record = end_to_end_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import workloads
    record["environment"] = environment(load_at_start, workloads.versions())
    results = record["operations"]
    for r in results:
        if not r.ok:
            print(f"FAILED {r.name}: {r.error}", file=sys.stderr)
    record["operations"] = [op_record(r) for r in results]
    failed = sum(not r.ok for r in results)
    emit(args, record.pop("metrics"), len(results), failed, failed == 0, record)
    return 0


def end_to_end_run(args, workdir: Path) -> dict:
    setups = [setup_in_subprocess(args) for _ in range(SETUP_REPEATS - 1)]
    wl, seconds, host_scale = setup_workload(args.workload, args.seed, args.scale, workdir)
    setups.append((seconds, host_scale))
    try:
        results, scales, probes, passes, threads = run_passes(wl.ops(), args.seconds)
    finally:
        wl.close()
    metrics = end_to_end_metrics(args.workload, results,
                                 statistics.median(s * f for s, f in setups), scales)
    wall = end_to_end_metrics(args.workload, results, statistics.median(s for s, _ in setups))
    q = TAIL_QUANTILE[args.workload]
    medians = op_medians(results, [r.seconds * f for r, f in zip(results, scales)])
    beyond = sum(medians[r.name] > metrics["job_s.tail"][0] for r in results)
    probe_s = [d for _, d in probes]
    return {
        "metrics": metrics,
        "wall_metrics": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
        "host_speed": {"probes": len(probes),
                       "probe_quartiles_s": statistics.quantiles(probe_s, n=4),
                       "scale_range": [min(scales), max(scales)], "probe_samples": probes},
        "setup_samples": [{"seconds": s, "host_scale": f} for s, f in setups],
        "passes": passes,
        "threads_max": threads,
        "tail": {"percentile": 100 * q, "operations": len(results), "beyond": beyond},
        "summary": [
            f"workload {args.workload} seed {args.seed}: {passes} whole passes, "
            f"{len(results)} operations",
            f"job_s.tail is p{100 * q:g} of the {len(medians)} operations of a pass at their "
            f"median time ({beyond} of {len(results)} operations beyond it)",
            f"host speed: probe loop median {statistics.median(probe_s) * 1e3:.4g} ms over "
            f"{len(probes)} probes, scales {min(scales):.3g} to {max(scales):.3g}; "
            f"unscaled wall time: setup_s {wall['setup_s'][0]:.6g} s, job_s.p50 "
            f"{wall['job_s.p50'][0]:.6g} s, cycles_per_s {wall['cycles_per_s'][0]:.6g} 1/s",
        ],
        "operations": results,
    }


def trace_run(args, workdir: Path) -> dict:
    import tracing
    OUT_ROOT.mkdir(exist_ok=True)
    spans = OUT_ROOT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    metrics, record = tracing.run_suite(args.seed, args.seconds, args.scale, workdir, spans)
    record["metrics"] = metrics
    return record


if __name__ == "__main__":
    sys.exit(main())
