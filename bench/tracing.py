"""Traced layer suite: the per-layer split of each conditional draw.

A draw is *compute q, draw gamma, invert phi*.  The spans here are
recorded from the benchmark's side, around the package's public callables:

- ``gibbs.run[<model>]``: the call to ``fidgibbs.run`` (the root of a job);
- ``models.build_conditionals``: ``ModelSpec.build_conditionals``, replaced
  through ``dataclasses.replace``;
- ``models.statistic`` and ``models.setup``: ``FiducialStatistic.compute``
  and ``ConditionalFiducialSampler.equation_for`` of every conditional,
  also replaced through ``dataclasses.replace``;
- ``core.invert``: ``StructuralEquation.invert`` of each equation that
  ``equation_for`` returns;
- ``randvar.sample`` and ``core.check_injectivity``: the names ``sample``
  and ``check_injectivity`` as bound in ``fidgibbs.core`` and
  ``fidgibbs.gibbs``, patched only for the duration of a traced run;
- the CSV, diagnostics, estimate and compatibility calls of postprocess.

Every sampling job runs once untraced and once traced with the same seed;
the two sample matrices must be bit-identical, and the ratio of their wall
times is the tracing overhead.  If an entry point no longer exists, its
layer is reported absent instead of failing the run.  This module is only
imported by ``run.py --trace 1``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import math
import time
from collections import defaultdict

import numpy as np

import workloads as W
from fidgibbs import ChainConfig, Dataset, check_model, estimate, get_model, run, summarize
from fidgibbs import cli
from fidgibbs.gibbs import DEFAULT_BURN_IN

SAMPLING_MODELS = W.CLOSED_FORM_MODELS + ("gamma", "beta", "bivariate_normal")
# Models whose conditionals probe injectivity at the start of each chain.
PROBED_MODELS = ("gamma", "beta", "bivariate_normal")
# Share of --seconds given to sampling jobs; postprocess layers get the rest.
SAMPLING_SHARE = 0.75
# Spans written out per job (the root span of a job is always kept).
SPANS_PER_JOB = 2000


class Tracer:
    """Named spans with parent links, aggregated by path and kept in memory.

    A span's path is its parent's path plus its own name, so the same
    callable is accounted separately under different callers.  Self time
    of a path is its total minus the time covered by its direct children.
    """

    def __init__(self):
        self.totals = {}        # path -> [count, ns]
        self.child_ns = {}      # path -> ns covered by direct children
        self.spans = []         # (job, id, parent id, name, start ns, end ns)
        self.job = ""
        self._budget = 0
        self._stack = []        # open spans: (path, id)
        self._ids = itertools.count(1)

    def start_job(self, job: str):
        self.job = job
        self._budget = SPANS_PER_JOB

    def wrap(self, name: str, fn):
        stack, totals, child_ns, spans = self._stack, self.totals, self.child_ns, self.spans
        ids, clock = self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent, parent_id = stack[-1] if stack else ("", 0)
            path = parent + "/" + name if parent else name
            sid = next(ids)
            stack.append((path, sid))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tot = totals.get(path)
                if tot is None:
                    totals[path] = [1, dur]
                else:
                    tot[0] += 1
                    tot[1] += dur
                if parent:
                    child_ns[parent] = child_ns.get(parent, 0) + dur
                if self._budget > 0 or not parent:
                    self._budget -= 1
                    spans.append((self.job, sid, parent_id, name, start, end))

        return traced

    def total_ns(self, path: str) -> int:
        return self.totals.get(path, (0, 0))[1]

    def count(self, path: str) -> int:
        return self.totals.get(path, (0, 0))[0]

    def self_ns(self, path: str) -> int:
        return self.total_ns(path) - self.child_ns.get(path, 0)


def _invoke(fn, *args):
    return fn(*args)


def _noop():
    return None


def calibrate(reps: int = 20000, rounds: int = 5) -> dict:
    """Tracing cost that lands outside every span, in the caller's self time.

    glue_ns is what one traced call adds to its caller's self time: the
    traced loop's root self time less an empty loop's time, per call.
    copy_ns is the per-draw cost of handing out an equation with a traced
    invert.  Both are medians over rounds.
    """
    glue, copy = [], []
    try:
        from fidgibbs import Normal, StructuralEquation
        eq = StructuralEquation(gamma_dist=Normal(0.0, 1.0), phi=lambda g, t: t + g,
                                invert=lambda q, g: q - g, theta_domain=(-math.inf, math.inf),
                                gamma_domain=(-5.0, 5.0))
    except (ImportError, TypeError):  # the equation type changed: no copy to calibrate
        eq = None
    clock = time.perf_counter_ns
    for _ in range(rounds):
        tracer = Tracer()
        child = tracer.wrap("child", _noop)

        def traced_loop():
            for _ in range(reps):
                child()

        t0 = clock()
        for _ in range(reps):
            pass
        empty = clock() - t0
        tracer.wrap("root", traced_loop)()
        glue.append((tracer.self_ns("root") - empty) / reps)
        if eq is not None:
            invoke = tracer.wrap("core.invert", _invoke)
            t0 = clock()
            for _ in range(reps):
                _with_invert(eq, functools.partial(invoke, eq.invert))
            copy.append((clock() - t0 - empty) / reps)
    return {"glue_ns": float(np.median(glue)),
            "copy_ns": float(np.median(copy)) if copy else 0.0}


def _with_invert(eq, invert):
    """A copy of a StructuralEquation whose invert is the traced one."""
    new = object.__new__(type(eq))
    new.__dict__.update(eq.__dict__)
    new.__dict__["invert"] = invert
    return new


def traced_sampler(tracer: Tracer, sampler, absent: set):
    changes = {}
    try:
        stat = sampler.statistic
        changes["statistic"] = dataclasses.replace(
            stat, compute=tracer.wrap("models.statistic", stat.compute))
    except (AttributeError, TypeError):
        absent.add("models.statistic")
    equation_for = getattr(sampler, "equation_for", None)
    if equation_for is None:
        absent.update(("models.setup", "core.invert"))
    else:
        setup = tracer.wrap("models.setup", equation_for)
        invoke = tracer.wrap("core.invert", _invoke)

        def traced_equation_for(data, state):
            eq = setup(data, state)
            try:
                return _with_invert(eq, functools.partial(invoke, eq.invert))
            except (AttributeError, TypeError):
                absent.add("core.invert")
                return eq

        changes["equation_for"] = traced_equation_for
    try:
        return dataclasses.replace(sampler, **changes)
    except (TypeError, ValueError):
        absent.update(("models.statistic", "models.setup", "core.invert"))
        return sampler


def traced_model(tracer: Tracer, spec, absent: set):
    build = tracer.wrap("models.build_conditionals", spec.build_conditionals)

    def build_conditionals(data):
        return {label: traced_sampler(tracer, s, absent) for label, s in build(data).items()}

    return dataclasses.replace(spec, build_conditionals=build_conditionals)


@contextlib.contextmanager
def patched_entry_points(tracer: Tracer, absent: set):
    """Trace `sample` as core binds it and `check_injectivity` as gibbs binds it."""
    import fidgibbs.core as core
    import fidgibbs.gibbs as gibbs
    saved = []
    for module, attr, layer in ((core, "sample", "randvar.sample"),
                                (gibbs, "check_injectivity", "core.check_injectivity")):
        orig = getattr(module, attr, None)
        if orig is None:
            absent.add(layer)
            continue
        saved.append((module, attr, orig))
        setattr(module, attr, tracer.wrap(layer, orig))
    try:
        yield
    finally:
        for module, attr, orig in saved:
            setattr(module, attr, orig)


def sampling_rounds():
    """Jobs in rounds of one per model, so every model is covered early."""
    by_model = defaultdict(list)
    for i, cfg in enumerate(W.closed_form_configs()):
        by_model[cfg.model].append((cfg, W.CLI_SALT, i))
    for i, cfg in enumerate(W.NUMERIC_CONFIGS):
        by_model[cfg.model].append((cfg, W.NUMERIC_SALT, i))
    for r in itertools.count():
        for model in SAMPLING_MODELS:
            jobs = by_model[model]
            cfg, salt, i = jobs[r % len(jobs)]
            yield r, cfg, salt, i, r // len(jobs)


class ModelTally:
    def __init__(self):
        self.runs = self.chains = self.draws = self.redraws = 0
        self.untraced_s = self.traced_s = 0.0


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def failed(name: str, kind: str, t0: float, exc: Exception) -> W.OpResult:
    """An operation that raised: it counts as failed."""
    return W.OpResult(name, kind, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")


def traced_pair(r, cfg, data, config, spec, traced_spec, root, tracer, absent, tally):
    """One job untraced and traced, in alternating order; compares the draws."""
    def traced():
        tracer.start_job(f"{cfg.name}#{config.seed}")
        with patched_entry_points(tracer, absent):
            return _timed(root, traced_spec, data, config)

    if r % 2 == 0:  # alternate which side runs first, so warm-up favours neither
        (su, t_u), (st, t_t) = _timed(run, spec, data, config), traced()
    else:
        (st, t_t), (su, t_u) = traced(), _timed(run, spec, data, config)
    res = W.OpResult(f"traced_run:{cfg.name}", "sample", t_u, model=cfg.model,
                     cycles=su.values.shape[0] * su.values.shape[1], values=su.values.size,
                     sha256=W.matrix_sha256(su.values))
    res.extra.update(traced_seconds=t_t, warnings=dict(su.warnings))
    if not np.array_equal(su.values, st.values) or su.warnings != st.warnings:
        res.error = "traced draws differ from the untraced draws for the same seed"
    else:
        report = summarize(su)
        res.rhat_max = max(q.rhat for q in report.params)
        res.error = (W.check_draws(cfg.model, su.values, su.labels)
                     or W.check_rhat({q.param: q.rhat for q in report.params}))
    tally.runs += 1
    tally.chains += su.values.shape[0]
    tally.draws += su.values.size
    tally.redraws += sum(v for k, v in su.warnings.items() if k.endswith("gamma_redraw"))
    tally.untraced_s += t_u
    tally.traced_s += t_t
    return res


def sampling_phase(seed, scale, deadline, tracer, absent, results, tallies):
    specs = {m: get_model(m) for m in SAMPLING_MODELS}
    traced_specs = {m: traced_model(tracer, specs[m], absent) for m in SAMPLING_MODELS}
    roots = {m: tracer.wrap(f"gibbs.run[{m}]", run) for m in SAMPLING_MODELS}
    for r, cfg, salt, i, p in sampling_rounds():
        if time.perf_counter() > deadline and r > 0:
            break
        m = cfg.model
        data = Dataset(W.panel_data(cfg, salt, i))
        config = ChainConfig(m=W._scaled_cycles(cfg.cycles, scale), seed=W._job_seed(seed, salt, i, p))
        t0 = time.perf_counter()
        try:
            res = traced_pair(r, cfg, data, config, specs[m], traced_specs[m], roots[m],
                              tracer, absent, tallies[m])
        except Exception as exc:
            res = failed(f"traced_run:{cfg.name}", "sample", t0, exc)
        results.append(res)


def postprocess_phase(seed, scale, deadline, workdir, tracer, results, rows):
    pp = W.Postprocess(seed, workdir, scale)
    write = tracer.wrap("cli.write_samples_csv", cli.write_samples_csv)
    read = tracer.wrap("cli.read_samples_csv", cli.read_samples_csv)
    summ = tracer.wrap("diagnostics.summarize", summarize)
    est = tracer.wrap("gibbs.estimate", estimate)
    compat = {m: tracer.wrap(f"compat.check_model[{m}]", check_model) for m in W.CLOSED_FORM_MODELS}
    path = workdir / "traced_samples.csv"
    for p in itertools.count():
        if p > 0 and time.perf_counter() > deadline:
            break
        tracer.start_job(f"postprocess#{p}")
        for k, (cycles, phis) in enumerate(pp.shapes):
            sm = pp.matrices[k, p % W.VARIANTS]
            c, m, nparams = sm.values.shape
            post = c * (m - DEFAULT_BURN_IN)
            t0 = time.perf_counter()
            try:
                write(sm, path)
                back = read(path, DEFAULT_BURN_IN)
                report = summ(back)
                e = est(W.estimate_h, sm)
            except Exception as exc:
                results.append(failed(f"traced_postprocess:{k}", "postprocess", t0, exc))
                continue
            res = W.OpResult(f"traced_postprocess:{k}", "postprocess", time.perf_counter() - t0,
                             cycles=c * m, values=sm.values.size)
            rows["rows"] += c * m
            rows["post_rows"] += post
            rows["post_values"] += post * nparams
            if back.labels != sm.labels or not np.array_equal(back.values, sm.values):
                res.error = "read_samples_csv did not return the written values"
            elif not all(abs(q.ess - W.ar1_ess(m, phi)) <= W.ESS_TOLERANCE * W.ar1_ess(m, phi)
                         for q, phi in zip(report.params, phis)):
                res.error = "summarize ESS outside the tolerance of the analytic AR(1) ESS"
            elif not np.isclose(e.value, W.estimate_reference(sm.values), rtol=1e-12, atol=0.0):
                res.error = f"estimate gave {e.value!r}"
            results.append(res)
        for model in W.CLOSED_FORM_MODELS:
            t0 = time.perf_counter()
            try:
                reports = compat[model](model, pp.compat_data[model, p % W.VARIANTS])
            except Exception as exc:
                results.append(failed(f"traced_check_model:{model}", "compat", t0, exc))
                continue
            res = W.OpResult(f"traced_check_model:{model}", "compat", time.perf_counter() - t0,
                             model=model)
            verdicts = {k: rep.verdict for k, rep in reports.items()}
            if set(verdicts.values()) != {"compatible"}:
                res.error = f"check_model verdicts {verdicts}"
            results.append(res)
    pp.close()


def corrected_self_ns(tracer: Tracer, root: str, cal: dict) -> float:
    """Self time of root less the tracing glue charged to it (see calibrate)."""
    children = sum(c for path, (c, _) in tracer.totals.items()
                   if path.startswith(root + "/") and "/" not in path[len(root) + 1:])
    copies = tracer.count(f"{root}/models.setup")
    return tracer.self_ns(root) - cal["glue_ns"] * children - cal["copy_ns"] * copies


def layer_metrics(tracer: Tracer, tallies: dict, rows: dict, absent: set, cal: dict):
    metrics, missing = {}, {}

    def put(name, value, unit, why=None):
        if value is None:
            missing[name] = why
        else:
            metrics[name] = (value, unit)

    for model in SAMPLING_MODELS:
        t = tallies[model]
        root = f"gibbs.run[{model}]"
        if t.draws == 0:
            missing[model] = "no traced job completed"
            continue

        def per_draw_us(layer):
            path = f"{root}/{layer}"
            if layer in absent or tracer.count(path) == 0:
                return None
            return tracer.total_ns(path) / t.draws / 1e3

        put(f"models.setup_us.{model}", per_draw_us("models.setup"), "us", "no equation_for")
        put(f"models.statistic_us.{model}", per_draw_us("models.statistic"), "us", "no statistic")
        put(f"randvar.primary_us.{model}", per_draw_us("randvar.sample"), "us", "no core.sample")
        put(f"core.invert_us.{model}", per_draw_us("core.invert"), "us", "no invert")
        build = f"{root}/models.build_conditionals"
        put(f"models.build_ms.{model}",
            tracer.total_ns(build) / t.runs / 1e6 if tracer.count(build) else None,
            "ms", "no build_conditionals")
        probe = f"{root}/core.check_injectivity"
        if model in PROBED_MODELS:
            put(f"core.injectivity_ms.{model}",
                tracer.total_ns(probe) / t.chains / 1e6 if tracer.count(probe) else None,
                "ms", "no injectivity probe")
        put(f"gibbs.self_us.{model}", corrected_self_ns(tracer, root, cal) / t.draws / 1e3, "us")
        put(f"gibbs.draw_us.{model}", t.untraced_s / t.draws * 1e6, "us")
    if tallies["gamma"].draws:
        put("core.redraw_ratio.gamma", tallies["gamma"].redraws / tallies["gamma"].draws, "ratio")

    def per(path, denom, scale):
        return tracer.total_ns(path) / denom * scale if tracer.count(path) and denom else None

    put("cli.write_us_per_row", per("cli.write_samples_csv", rows["rows"], 1e-3), "us")
    put("cli.read_us_per_row", per("cli.read_samples_csv", rows["rows"], 1e-3), "us")
    put("diagnostics.summarize_ns_per_value",
        per("diagnostics.summarize", rows["post_values"], 1.0), "ns")
    put("gibbs.estimate_us_per_row", per("gibbs.estimate", rows["post_rows"], 1e-3), "us")
    for model in W.CLOSED_FORM_MODELS:
        path = f"compat.check_model[{model}]"
        put(f"compat.check_ms.{model}", per(path, tracer.count(path), 1e-6), "ms")
    untraced = sum(t.untraced_s for t in tallies.values())
    traced = sum(t.traced_s for t in tallies.values())
    put("trace.overhead_pct", 100.0 * (traced / untraced - 1.0) if untraced else None, "%")
    return metrics, missing


def run_suite(seed: int, seconds: float, scale: float, workdir, spans_path):
    """Run the traced suite and write its spans; returns (metrics, record)."""
    tracer, absent, results = Tracer(), set(), []
    tallies = defaultdict(ModelTally)
    rows = defaultdict(int)
    start = time.perf_counter()
    cal = calibrate()
    sampling_phase(seed, scale, start + SAMPLING_SHARE * seconds, tracer, absent, results, tallies)
    postprocess_phase(seed, scale, start + seconds, workdir, tracer, results, rows)
    metrics, missing = layer_metrics(tracer, tallies, rows, absent, cal)

    with open(spans_path, "w") as fh:
        for job, sid, parent, name, t0, t1 in tracer.spans:
            fh.write(json.dumps({"job": job, "id": sid, "parent": parent, "name": name,
                                 "start_ns": t0, "end_ns": t1}) + "\n")
    summary = [f"traced suite seed {seed}: {len(results)} operations",
               f"{'model':18s} {'jobs':>5s} {'draws':>9s} {'untraced_us':>12s} "
               f"{'traced_us':>10s} {'overhead':>9s} {'redraws':>8s}"]
    for model in SAMPLING_MODELS:
        t = tallies[model]
        if t.draws:
            summary.append(f"{model:18s} {t.runs:5d} {t.draws:9d} {t.untraced_s / t.draws * 1e6:12.3f} "
                           f"{t.traced_s / t.draws * 1e6:10.3f} "
                           f"{100 * (t.traced_s / t.untraced_s - 1):8.1f}% {t.redraws / t.draws:8.5f}")
    for name, why in sorted(missing.items()):
        summary.append(f"absent: {name} ({why})")
    record = {
        "summary": summary,
        "absent": missing,
        "calibration": cal,
        "spans_file": spans_path.name,
        "span_totals": {path: {"count": c, "total_ms": ns / 1e6,
                               "self_ms": (ns - tracer.child_ns.get(path, 0)) / 1e6}
                        for path, (c, ns) in sorted(tracer.totals.items())},
        "models": {m: vars(t) for m, t in tallies.items()},
        "operations": results,
    }
    return metrics, record
