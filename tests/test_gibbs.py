import dataclasses
import math
import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import numpy as np
import oracles
import pytest
from conftest import layered
from scipy import stats

import fidgibbs.core
import fidgibbs.gibbs
import fidgibbs.models
import fidgibbs.randvar
from fidgibbs import (
    ChainConfig,
    ChiSquare,
    Dataset,
    DomainError,
    Normal,
    RngStream,
    SampleMatrix,
    StructuralEquation,
    StructuralError,
    estimate,
    get_model,
    run,
    simulate_dataset,
)
from fidgibbs.core import INJECTIVITY_GRID_SIZE, InjectivityReport
from fidgibbs.diagnostics import ess_of_chains
from fidgibbs.randvar import quantile

CATALOG_DATA = [
    ("normal", "normal_data"),
    ("pareto", "pareto_data"),
    ("quadreg", "quadreg_data"),
    ("gamma", "gamma_data"),
    ("beta", "beta_data"),
    ("behrens_fisher", "bf_data"),
    ("bivariate_normal", "bvn_data"),
]


class TestChainConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            ChainConfig(m=0)
        with pytest.raises(DomainError):
            ChainConfig(m=100, b=100)
        with pytest.raises(DomainError):
            ChainConfig(m=100, b=10, chains=0)
        with pytest.raises(DomainError):
            ChainConfig(m=100, b=10, chains=2, init=({"mu": 0.0},))

    def test_scan_order_must_be_permutation(self, normal_data):
        cfg = ChainConfig(m=20, b=0, chains=1, scan_order=("mu", "mu"))
        with pytest.raises(DomainError):
            run(get_model("normal"), normal_data, cfg)


class TestRun:
    def test_determinism(self, normal_data):
        cfg = ChainConfig(m=500, b=50, chains=3, seed=42)
        a = run(get_model("normal"), normal_data, cfg)
        b = run(get_model("normal"), normal_data, cfg)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("name,data_fixture", [
        ("normal", "normal_data"), ("pareto", "pareto_data"), ("gamma", "gamma_data")])
    def test_chain_does_not_depend_on_chain_count(self, name, data_fixture, request):
        # Chain i draws from its own (seed, i) stream with its own blocks.
        data = request.getfixturevalue(data_fixture)
        two = run(get_model(name), data, ChainConfig(m=300, b=50, chains=2, seed=11))
        four = run(get_model(name), data, ChainConfig(m=300, b=50, chains=4, seed=11))
        assert np.array_equal(two.values[1], four.values[1])
        assert not np.array_equal(four.values[1], four.values[2])

    def test_single_cycle_with_deterministic_primaries(self, normal_data, monkeypatch):
        # Force every primary draw to its distribution mean: one cycle must
        # land exactly on the implied deterministic update.  The primaries
        # come from fidgibbs.core.sample on the layered path, which replaced
        # samplers take.
        model = get_model("normal")

        def build(data):
            return {label: layered(c) for label, c in model.build_conditionals(data).items()}

        def fixed_sample(dist, rng):
            if isinstance(dist, Normal):
                return dist.mean
            if isinstance(dist, ChiSquare):
                return float(dist.df)
            raise AssertionError(f"unexpected primary {dist}")

        monkeypatch.setattr(fidgibbs.core, "sample", fixed_sample)
        x = normal_data.col("x")
        cfg = ChainConfig(m=1, b=0, chains=1, seed=0)
        sm = run(dataclasses.replace(model, build_conditionals=build), normal_data, cfg)
        xbar = float(np.mean(x))
        assert sm.values[0, 0, sm.index("mu")] == pytest.approx(xbar, abs=1e-14)
        sighat2 = float(np.mean((x - xbar) ** 2))
        assert sm.values[0, 0, sm.index("sigma2")] == pytest.approx(sighat2, rel=1e-14)

    def test_scan_order_respected_in_output_columns(self, normal_data):
        cfg = ChainConfig(m=50, b=0, chains=1, seed=1, scan_order=("sigma2", "mu"))
        sm = run(get_model("normal"), normal_data, cfg)
        # Output stays in declared model order regardless of scan order.
        assert sm.labels == ("mu", "sigma2")
        assert sm.config.scan_order == ("sigma2", "mu")

    @pytest.mark.parametrize("name,data_fixture", CATALOG_DATA)
    def test_domain_preservation(self, name, data_fixture, request):
        data = request.getfixturevalue(data_fixture)
        model = get_model(name)
        sm = run(model, data, ChainConfig(m=200, b=0, chains=2, seed=7))
        for p in model.params:
            col = sm.values[:, :, sm.index(p.label)]
            assert np.all(col > p.lo) and np.all(col < p.hi), p.label

    def test_pareto_beta_never_exceeds_min(self, pareto_data):
        sm = run(get_model("pareto"), pareto_data, ChainConfig(m=500, b=0, chains=2, seed=3))
        assert np.all(sm.pooled("beta") <= float(np.min(pareto_data.col("x"))))

    @pytest.mark.parametrize("beta", [2.5, 100.0])
    def test_pareto_start_above_min_rejected(self, beta):
        # beta > min(x) lies outside the joint's support: no alpha conditional.
        data = Dataset({"x": np.array([2.0, 3.0, 5.0, 7.0, 11.0])})
        cfg = ChainConfig(m=10, b=0, chains=1, init=({"alpha": 1.0, "beta": beta},))
        with pytest.raises(DomainError, match=rf"beta={beta} exceeds min\(x\)=2\.0"):
            run(get_model("pareto"), data, cfg)

    def test_unknown_init_parameter_rejected(self, normal_data):
        cfg = ChainConfig(m=10, b=0, chains=1,
                          init=({"mu": 0.0, "sigma2": 1.0, "sgima2": 50.0},))
        with pytest.raises(DomainError, match="unknown parameter 'sgima2'"):
            run(get_model("normal"), normal_data, cfg)

    def test_pareto_start_above_min_fine_when_beta_drawn_first(self):
        data = Dataset({"x": np.array([2.0, 3.0, 5.0, 7.0, 11.0])})
        cfg = ChainConfig(m=10, b=0, chains=1, scan_order=("beta", "alpha"),
                          init=({"alpha": 1.0, "beta": 2.5},))
        sm = run(get_model("pareto"), data, cfg)
        assert np.all(sm.pooled("beta") <= 2.0)

    @pytest.mark.parametrize("name,data_fixture", CATALOG_DATA)
    def test_single_draw_path(self, name, data_fixture, request, monkeypatch):
        # run draws through the conditionals built once per dataset: it never
        # evaluates a quantile, and builds a StructuralEquation only for the
        # injectivity probe at the start of each chain.  The calls are
        # counted in this process, so the chains must run here.
        monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 1)
        data = request.getfixturevalue(data_fixture)
        calls = {"quantile": 0, "equation": 0}

        def counting_quantile(dist, p):
            calls["quantile"] += 1
            return quantile(dist, p)

        for module in (fidgibbs.core, fidgibbs.models, fidgibbs.randvar):
            if getattr(module, "quantile", None) is quantile:
                monkeypatch.setattr(module, "quantile", counting_quantile)
        post_init = StructuralEquation.__post_init__

        def counting_post_init(eq):
            calls["equation"] += 1
            post_init(eq)

        monkeypatch.setattr(StructuralEquation, "__post_init__", counting_post_init)
        model = get_model(name)
        probes = sum(c.check_at_start for c in model.build_conditionals(data).values())
        run(model, data, ChainConfig(m=200, b=0, chains=3, seed=4))
        assert calls == {"quantile": 0, "equation": probes * 3}

    @pytest.mark.parametrize("name,data_fixture", CATALOG_DATA)
    def test_draws_pass_through_the_traced_calls(self, name, data_fixture, request,
                                                 monkeypatch):
        # The benchmark's traced run (bench/tracing.py) times every draw
        # through four calls: the statistic's compute and equation_for, both
        # replaced through dataclasses.replace, the name sample as bound in
        # fidgibbs.core, and invert of a __dict__ copy of each equation.  Each
        # must be reached on every draw, and wrapping them must not move a
        # bit.  The calls are counted in this process, so the chain runs here.
        monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 1)
        data = request.getfixturevalue(data_fixture)
        model = get_model(name)
        config = ChainConfig(m=50, b=0, chains=1, seed=9)
        plain = run(model, data, config)
        calls = Counter()

        def counting(layer, fn):
            def counted(*args):
                calls[layer] += 1
                return fn(*args)
            return counted

        def with_invert(eq, invert):
            new = object.__new__(type(eq))
            new.__dict__.update(eq.__dict__)
            new.__dict__["invert"] = invert
            return new

        def traced(sampler):
            label = sampler.target_param
            setup = counting(("equation_for", label), sampler.equation_for)

            def equation_for(data, state):
                eq = setup(data, state)
                return with_invert(eq, counting(("invert", label), eq.invert))

            statistic = dataclasses.replace(
                sampler.statistic,
                compute=counting(("statistic", label), sampler.statistic.compute))
            return dataclasses.replace(sampler, statistic=statistic, equation_for=equation_for)

        def build(data):
            return {label: traced(c) for label, c in model.build_conditionals(data).items()}

        monkeypatch.setattr(fidgibbs.core, "sample", counting("sample", fidgibbs.core.sample))
        wrapped = run(dataclasses.replace(model, build_conditionals=build), data, config)
        assert np.array_equal(wrapped.values, plain.values)
        assert wrapped.warnings == plain.warnings
        # A chain-start probe adds one statistic and equation and 33 inverts,
        # fewer than the 50 draws of each conditional.
        for label in model.param_labels:
            for layer in ("statistic", "equation_for", "invert"):
                assert calls[(layer, label)] >= config.m, (layer, label)
        assert calls["sample"] >= config.m * len(model.params)

    def test_mu_marginal_ks(self, normal_data):
        # Gibbs marginal of mu against the analytic Student t marginal.
        sm = run(get_model("normal"), normal_data,
                 ChainConfig(m=6000, b=500, chains=2, seed=11))
        res = stats.kstest(sm.pooled("mu"), oracles.normal_marginal_mu(normal_data.col("x")).cdf)
        assert res.pvalue > 1e-3

    def test_structural_error_carries_position(self, normal_data):
        model = get_model("normal")
        conditionals = model.build_conditionals(normal_data)

        class Exploding:
            target_param = "mu"
            check_at_start = False
            statistic = conditionals["mu"].statistic

            def __init__(self):
                self.calls = 0

            def equation(self, data, others):
                return conditionals["mu"].equation(data, others)

            def draw(self, data, state, rng, warnings=None):
                self.calls += 1
                if self.calls > 7:
                    raise StructuralError("boom")
                return conditionals["mu"].draw(data, state, rng, warnings)

        import fidgibbs.gibbs as G
        orig = model.build_conditionals
        patched = dict(conditionals)
        patched["mu"] = Exploding()
        try:
            object.__setattr__(model, "build_conditionals", lambda d: patched)
            with pytest.raises(StructuralError) as err:
                G.run(model, normal_data, ChainConfig(m=50, b=0, chains=1, seed=0))
        finally:
            object.__setattr__(model, "build_conditionals", orig)
        assert err.value.diagnostics["chain"] == 0
        assert err.value.diagnostics["cycle"] == 7
        assert "state" in err.value.diagnostics

    @pytest.mark.parametrize("n_failed,problem", [
        (3, " is not injective"),
        (INJECTIVITY_GRID_SIZE, ": no gamma of the probe grid solves the equation"),
    ], ids=["not_injective", "no_grid_point_solves"])
    def test_failed_start_probe_says_what_failed(self, n_failed, problem, gamma_data,
                                                 monkeypatch):
        grid = np.linspace(0.0, 1.0, INJECTIVITY_GRID_SIZE)
        report = InjectivityReport(gamma_grid=grid, theta_values=np.full(grid.size, np.nan),
                                   n_failed=n_failed, monotone=False,
                                   max_roundtrip_residual=0.0)
        monkeypatch.setattr(fidgibbs.gibbs, "check_injectivity", lambda eq, q: report)
        with pytest.raises(StructuralError) as err:
            run(get_model("gamma"), gamma_data, ChainConfig(m=10, b=0, chains=1))
        assert str(err.value).startswith(
            f"conditional for 'alpha'{problem} at the observed statistic (start of chain 0)")
        assert err.value.diagnostics["chain"] == 0
        assert err.value.diagnostics["report"] == repr(report)
        assert set(err.value.diagnostics["state"]) == {"alpha", "beta"}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outcome(model, data, config):
    """run's SampleMatrix, or what it raised: (type, message, diagnostics)."""
    try:
        return run(model, data, config)
    except StructuralError as exc:
        return type(exc), str(exc), exc.diagnostics


def _fork_always(monkeypatch) -> list:
    """Make run fork two processes whatever the run's length; the returned
    list gets the caller's pid at each fork."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(fidgibbs.gibbs, "_FORK_BREAK_EVEN_S", 0.0)
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _both_paths(monkeypatch, model, data, config):
    """run's outcome with every chain in this process, and with the chains
    forked over two processes; no child outlives either."""
    monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 1)
    serial = _outcome(model, data, config)
    forks = _fork_always(monkeypatch)
    forked = _outcome(model, data, config)
    assert forks == [os.getpid()]
    _no_child_left()
    return serial, forked


class _FailAt:
    """A conditional that draws as `inner` does and raises StructuralError
    at cycle fail_at[c] of each chain c in fail_at (chain c draws from the
    (seed, c) stream)."""

    def __init__(self, inner, fail_at):
        self.inner, self.fail_at, self.calls = inner, fail_at, Counter()
        self.target_param = inner.target_param
        self.check_at_start = inner.check_at_start
        self.statistic = inner.statistic

    def equation(self, data, others):
        return self.inner.equation(data, others)

    def draw(self, data, state, rng, warnings=None):
        chain = rng.stream_id
        cycle = self.calls[chain]
        self.calls[chain] += 1
        if self.fail_at.get(chain) == cycle:
            raise StructuralError(f"chain {chain} fails", statistic_value=state["mu"])
        return self.inner.draw(data, state, rng, warnings)


def _failing_model(label, fail_at):
    model = get_model("normal")

    def build(data):
        conditionals = model.build_conditionals(data)
        return {**conditionals, label: fail_at(conditionals[label])}

    return dataclasses.replace(model, build_conditionals=build)


def _start_time(pid: int):
    """The start time of a process that has not ended (fields 22 and 3 of
    /proc/<pid>/stat), or None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return None if fields[0] in ("Z", "X") else fields[19]


class TestForkedChains:
    # Chain c runs in the process c % 2 when the chains are forked.
    @pytest.mark.parametrize("name,data_fixture,m", [
        *(pytest.param(name, fixture, 120, id=f"{name}-{fixture}")
          for name, fixture in CATALOG_DATA),
        # 2000 x 5 draws, 80 KB a chain: more than a pipe holds.
        pytest.param("bivariate_normal", "bvn_data", 2000, id="bivariate_normal-bvn_data-m2000"),
    ])
    def test_same_output(self, name, data_fixture, m, request, monkeypatch):
        data = request.getfixturevalue(data_fixture)
        serial, forked = _both_paths(monkeypatch, get_model(name), data,
                                     ChainConfig(m=m, b=0, seed=5))
        assert np.array_equal(serial.values, forked.values)
        assert list(serial.warnings.items()) == list(forked.warnings.items())
        assert serial.config == forked.config

    @pytest.mark.parametrize("name,config", [
        ("quadreg", ChainConfig(m=120, b=0, chains=3, seed=6,
                                scan_order=("sigma2", "beta2", "beta0", "beta1"))),
        ("pareto", ChainConfig(m=120, b=0, chains=3, seed=6,
                               init=({"alpha": 1.0, "beta": 1.5},) * 3)),
    ])
    def test_scan_order_init_and_odd_chain_count(self, name, config, request, monkeypatch):
        data = request.getfixturevalue(dict(CATALOG_DATA)[name])
        serial, forked = _both_paths(monkeypatch, get_model(name), data, config)
        assert np.array_equal(serial.values, forked.values)
        assert serial.config == forked.config

    def test_same_warnings_in_the_same_order(self, monkeypatch):
        # n = 5 gamma data: injectivity grid failures and gamma redraws.
        data = simulate_dataset("gamma", {"alpha": 2.0, "beta": 0.5}, 5, RngStream(2018, 2**32))
        serial, forked = _both_paths(monkeypatch, get_model("gamma"), data,
                                     ChainConfig(m=2000, b=0, seed=2018))
        assert len(serial.warnings) == 2
        assert list(serial.warnings.items()) == list(forked.warnings.items())
        assert np.array_equal(serial.values, forked.values)

    @pytest.mark.parametrize("fail_at", [
        {1: 60}, {3: 60}, {2: 50, 1: 70}, {2: 50, 3: 30}, {0: 45, 1: 10}])
    def test_lowest_failing_chain_raises_the_same_error(self, fail_at, normal_data, monkeypatch):
        model = _failing_model("mu", lambda inner: _FailAt(inner, fail_at))
        serial, forked = _both_paths(monkeypatch, model, normal_data,
                                     ChainConfig(m=100, b=0, seed=9))
        assert serial == forked
        chain = min(fail_at)
        assert serial[1].startswith(f"chain {chain} fails")
        assert serial[2]["chain"] == chain
        assert serial[2]["cycle"] == fail_at[chain]
        assert set(serial[2]["state"]) == {"mu", "sigma2"}

    def test_interrupt_kills_the_children(self, normal_data, monkeypatch):
        parent = os.getpid()

        class Interrupted(_FailAt):
            def draw(self, data, state, rng, warnings=None):
                if os.getpid() == parent and rng.stream_id == 2:
                    raise KeyboardInterrupt
                return super().draw(data, state, rng, warnings)

        model = _failing_model("sigma2", lambda inner: Interrupted(inner, {}))
        forks = _fork_always(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            run(model, normal_data, ChainConfig(m=3000, b=0, seed=9))
        assert forks == [parent]
        _no_child_left()

    def test_more_processes_than_cpus(self, normal_data, monkeypatch):
        # Four processes share the result matrix, each writing the rows of
        # its own chains (0 and 4, 1 and 5, 2 and 6, 3), however few CPUs
        # the host has.
        config = ChainConfig(m=3000, b=0, chains=7, seed=11)
        monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 1)
        serial = run(get_model("normal"), normal_data, config)
        forks = _fork_always(monkeypatch)
        monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 4)
        forked = run(get_model("normal"), normal_data, config)
        assert forks == [os.getpid()] * 3
        _no_child_left()
        assert np.array_equal(serial.values, forked.values)

    def test_caller_moves_each_child_to_another_cpu(self, normal_data, monkeypatch):
        # The caller sets each child's CPU right after forking it, to one of
        # the CPUs other than the one the caller runs on.
        usable = os.sched_getaffinity(0)
        if len(usable) < 2:
            pytest.skip("needs two usable CPUs")
        calls, others, pids = [], [], []
        setaffinity, other_cpus, fork = os.sched_setaffinity, fidgibbs.gibbs._other_cpus, os.fork

        def recording_setaffinity(pid, cpus):
            calls.append((pid, list(cpus)))
            setaffinity(pid, cpus)

        def recording_other_cpus():
            others.append(other_cpus())
            return others[-1]

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: len(usable))
        monkeypatch.setattr(fidgibbs.gibbs, "_FORK_BREAK_EVEN_S", 0.0)
        monkeypatch.setattr(fidgibbs.gibbs, "_other_cpus", recording_other_cpus)
        monkeypatch.setattr(os, "sched_setaffinity", recording_setaffinity)
        monkeypatch.setattr(os, "fork", recording_fork)
        forked = run(get_model("normal"), normal_data, ChainConfig(m=600, b=0, chains=2, seed=5))
        _no_child_left()
        [caller_others] = others
        # /proc told the caller where it runs: its CPU is not among the others.
        assert len(caller_others) == len(usable) - 1
        assert pids and calls == [(pid, [caller_others[0]]) for pid in pids]
        monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 1)
        serial = run(get_model("normal"), normal_data, ChainConfig(m=600, b=0, chains=2, seed=5))
        assert np.array_equal(serial.values, forked.values)

    def test_child_runs_its_chains_back_to_back(self, normal_data, tmp_path, monkeypatch):
        # 5000 x 2 draws, 80 KB a chain: more than a pipe holds.  The child's
        # last chain (3) must end while this process waits in its own last
        # chain (2), so the child cannot be waiting for this process to read.
        parent, m = os.getpid(), 5000
        marker = tmp_path / "chain_3_done"
        seen = []

        class Rendezvous(_FailAt):
            def draw(self, data, state, rng, warnings=None):
                chain, cycle = rng.stream_id, self.calls[rng.stream_id]
                if chain == 2 and cycle == 0 and os.getpid() == parent:
                    deadline = time.monotonic() + 10.0
                    while not marker.exists() and time.monotonic() < deadline:
                        time.sleep(0.01)
                    seen.append(marker.exists())
                value = super().draw(data, state, rng, warnings)
                if chain == 3 and cycle == m - 1:
                    marker.touch()
                return value

        model = _failing_model("sigma2", lambda inner: Rendezvous(inner, {}))
        forks = _fork_always(monkeypatch)
        forked = run(model, normal_data, ChainConfig(m=m, b=0, seed=9))
        assert forks == [parent]
        _no_child_left()
        assert seen == [True]
        monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 1)
        serial = run(get_model("normal"), normal_data, ChainConfig(m=m, b=0, seed=9))
        assert np.array_equal(serial.values, forked.values)

    def test_children_die_with_a_killed_caller(self):
        # A caller killed by SIGKILL runs no finally; the kernel must end its
        # children.  The caller prints each child's pid as it forks it; a
        # chain of 400 000 gamma cycles takes seconds.
        code = textwrap.dedent("""
            import os
            import fidgibbs.gibbs as G
            from fidgibbs import ChainConfig, RngStream, get_model, run, simulate_dataset
            G._usable_cpus = lambda: 2
            G._FORK_BREAK_EVEN_S = 0.0
            fork = os.fork

            def reporting_fork():
                pid = fork()
                if pid:
                    print(pid, flush=True)
                return pid

            os.fork = reporting_fork
            data = simulate_dataset("gamma", {"alpha": 2.0, "beta": 0.5}, 20, RngStream(1, 0))
            run(get_model("gamma"), data, ChainConfig(m=400_000, b=0, chains=2))
        """)
        src = Path(fidgibbs.gibbs.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
        child = start = None
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True, env=env) as caller:
            try:
                assert select.select([caller.stdout], [], [], 60.0)[0], "no fork within 60 s"
                child = int(caller.stdout.readline())
                start = _start_time(child)
                caller.kill()
                caller.wait(timeout=10.0)
                deadline = time.monotonic() + 10.0
                while start is not None and _start_time(child) == start:
                    assert time.monotonic() < deadline, "the child outlived its caller"
                    time.sleep(0.01)
            finally:
                caller.kill()
                if start is not None and _start_time(child) == start:
                    os.kill(child, signal.SIGKILL)

    def test_short_run_stays_in_process(self, normal_data, monkeypatch):
        # 4 x 50 cycles take about a millisecond: far below the break-even.
        forks = []
        monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1))
        run(get_model("normal"), normal_data, ChainConfig(m=50, b=0))
        assert forks == []


_block_run_chain = fidgibbs.gibbs._run_chain


def _per_draw_run_chain(data, conditionals, order, labels, init, seed, chain, out,
                        timed=None):
    """_run_chain as it was before the block store: one numpy scalar store
    per draw.  It never calls timed, so a run through it never forks."""
    # The start probe: _run_chain of no cycles draws nothing.
    warnings = _block_run_chain(data, conditionals, order, labels, init, seed, chain, out[:0])
    rng = RngStream(seed, chain)
    state = dict(init)
    draws = [(labels.index(label), label, conditionals[label].draw) for label in order]
    try:
        for cycle in range(len(out)):
            for j, label, draw in draws:
                out[cycle, j] = state[label] = draw(data, state, rng, warnings)
    except StructuralError as exc:
        exc.diagnostics.setdefault("chain", chain)
        exc.diagnostics["cycle"] = cycle
        exc.diagnostics["state"] = dict(state)
        raise
    return warnings


def _per_draw_outcome(monkeypatch, model, data, config):
    with monkeypatch.context() as patch:
        patch.setattr(fidgibbs.gibbs, "_run_chain", _per_draw_run_chain)
        return _outcome(model, data, config)


_B = fidgibbs.gibbs._CYCLES_PER_STORE


class TestBlockStore:
    """The draws stored a block of cycles at a time equal those stored one
    by one, with the same warnings and errors."""

    @pytest.mark.parametrize("m", [1, _B - 1, _B, _B + 1, 2 * _B + 1])
    @pytest.mark.parametrize("scan_order", [None, ("beta", "alpha")], ids=["declared", "reversed"])
    @pytest.mark.parametrize("chains", [1, 4])
    def test_same_draws_and_warnings(self, m, scan_order, chains, monkeypatch):
        # n = 5 gamma data: injectivity grid failures and gamma redraws.
        data = simulate_dataset("gamma", {"alpha": 2.0, "beta": 0.5}, 5, RngStream(2018, 2**32))
        config = ChainConfig(m=m, b=0, chains=chains, seed=2018, scan_order=scan_order)
        reference = _per_draw_outcome(monkeypatch, get_model("gamma"), data, config)
        forks = _fork_always(monkeypatch)
        blocks = run(get_model("gamma"), data, config)
        if m > fidgibbs.gibbs._WARM_UP_CYCLES:
            assert len(forks) == (chains > 1)
        _no_child_left()
        assert blocks.values.tobytes() == reference.values.tobytes()
        assert list(blocks.warnings.items()) == list(reference.warnings.items())
        assert blocks.config == reference.config

    @pytest.mark.parametrize("label", ["mu", "sigma2"])
    def test_error_mid_block_names_its_cycle_and_state(self, label, normal_data, monkeypatch):
        fail_at = {0: _B + _B // 2}
        model = _failing_model(label, lambda inner: _FailAt(inner, fail_at))
        config = ChainConfig(m=2 * _B + 1, b=0, chains=1, seed=3)
        reference = _per_draw_outcome(monkeypatch, model, normal_data, config)
        outcome = _outcome(model, normal_data, config)
        assert outcome == reference
        assert outcome[2]["cycle"] == fail_at[0]
        assert outcome[2]["chain"] == 0


class TestEstimate:
    def _constant_matrix(self, value, m=60):
        cfg = ChainConfig(m=m, b=0, chains=1, seed=0, scan_order=("theta",))
        vals = np.full((1, m, 1), value)
        return SampleMatrix(values=vals, labels=("theta",), config=cfg)

    def test_constant(self):
        sm = self._constant_matrix(3.25)
        res = estimate(lambda th: th["theta"], sm)
        assert res.value == 3.25
        assert res.std_error == 0.0

    def test_tiny_sequence_mean(self):
        cfg = ChainConfig(m=3, b=0, chains=1, seed=0, scan_order=("theta",))
        vals = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1)
        sm = SampleMatrix(values=vals, labels=("theta",), config=cfg)
        res = estimate(lambda th: th["theta"], sm)
        assert res.value == pytest.approx(2.0)

    def test_normal_mean_within_four_se(self, normal_data):
        sm = run(get_model("normal"), normal_data,
                 ChainConfig(m=4000, b=500, chains=2, seed=21))
        res = estimate(lambda th: th["mu"], sm)
        xbar = float(np.mean(normal_data.col("x")))
        assert abs(res.value - xbar) < 4.0 * res.std_error

    def test_matches_per_cell_loop_bit_for_bit(self):
        # AR(1) chains, phi = 0.6; the reference is the loop that handed h a
        # numpy row per cycle.
        g = np.random.default_rng(9)
        chains, m, b = 3, 400, 50
        values = np.empty((chains, m, 2))
        values[:, 0] = g.standard_normal((chains, 2))
        for i in range(1, m):
            values[:, i] = 0.6 * values[:, i - 1] + g.standard_normal((chains, 2))
        labels = ("a", "b")
        sm = SampleMatrix(values, labels, ChainConfig(m=m, b=b, chains=chains))
        seen = set()

        def h(th):
            seen.update(type(v) for v in th.values())
            return math.exp(0.5 * th["a"]) / (1.0 + th["b"] * th["b"])

        res = estimate(h, sm)
        assert seen == {float}
        rows = values[:, b:, :]
        hvals = np.empty(rows.shape[:2])
        for c in range(chains):
            for i in range(m - b):
                hvals[c, i] = h(dict(zip(labels, rows[c, i])))
        ess = ess_of_chains(hvals)
        assert res.value == float(np.mean(hvals))
        assert res.ess == ess
        assert res.std_error == math.sqrt(float(np.var(hvals, ddof=1)) / ess)

    def test_burn_in_respected(self):
        cfg = ChainConfig(m=10, b=5, chains=1, seed=0, scan_order=("theta",))
        vals = np.concatenate([np.full(5, 100.0), np.arange(5.0)]).reshape(1, 10, 1)
        sm = SampleMatrix(values=vals, labels=("theta",), config=cfg)
        res = estimate(lambda th: th["theta"], sm)
        assert res.value == pytest.approx(2.0)
