"""Systematic-scan Gibbs sampler over full conditional fiducial samplers.

Each cycle updates every parameter once, in a fixed recorded scan order,
by drawing from its full conditional given the current values of all the
others.  The stationary distribution of the composed chain can depend on
that order when the conditionals are not mutually compatible, so the order
and the seed are carried into every result for honest reporting.

On Linux the chains of a long run are spread over forked processes, one
per usable CPU; every chain draws from its own stream, so the output is
the same whichever process runs it.  The draws of every chain go, a block
of cycles at a time, into one (chains, m, parameters) matrix, which a
forked run shares with its children, each filling its own chains' rows in
place.  Children only sample: the command line's run formats every
chain's rows in the caller once run returns.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import mmap
import os
import pickle
import signal
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from .core import check_injectivity
from .errors import DomainError, StructuralError
from .models import Dataset, ModelSpec
from .randvar import RngStream

__all__ = ["ChainConfig", "SampleMatrix", "EstimateResult", "run", "estimate"]

DEFAULT_BURN_IN = 500

# run forks only when the CPU time of chain 0's cycles _WARM_UP_CYCLES ..
# _WARM_UP_CYCLES + _TIMED_CYCLES predicts more serial sampling than
# _FORK_BREAK_EVEN_S seconds.  The constant was measured on 43 closed-form
# command-line runs of 4 chains on 2 CPUs while the prediction also counted
# formatting the rows where they were sampled: forking saved about 0.55
# times the predicted seconds less 9.4 ms (forking and reaping the
# children, their page faults in the shared matrix), which is zero at
# 17 ms.  The prediction now counts sampling only, and 17 ms is kept.
_WARM_UP_CYCLES = 8
_TIMED_CYCLES = 32
_FORK_BREAK_EVEN_S = 0.017
# prctl option (linux/prctl.h): the signal a process gets when the thread
# that forked it ends.
_PR_SET_PDEATHSIG = 1
# A chain keeps up to this many cycles' draws in a list and stores them into
# its rows with one slice assignment: a numpy scalar store per draw costs
# about 100 ns, a list append about 30 ns.  A small block keeps the floats
# alive at once, and the peak memory of a run, where they were.
_CYCLES_PER_STORE = 256


@dataclass(frozen=True)
class ChainConfig:
    """Gibbs run parameters.

    m: cycles per chain (all recorded); b: burn-in cycles discarded by
    estimators and diagnostics; chains: independent chains; seed: base
    seed, chain i drawing from the (seed, i) stream; scan_order: update
    order (default: the model's declared parameter order); init: optional
    per-chain starting points (default: mildly dispersed moment-style
    starts).  How many processes run the chains is not a parameter: run
    decides it and the output does not depend on it.
    """

    m: int
    b: int = DEFAULT_BURN_IN
    chains: int = 4
    seed: int = 0
    scan_order: Optional[Tuple[str, ...]] = None
    init: Optional[Tuple[Mapping[str, float], ...]] = None

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"m must be >= 1, got {self.m}")
        if not 0 <= self.b < self.m:
            raise DomainError(f"need 0 <= b < m, got b={self.b}, m={self.m}")
        if self.chains < 1:
            raise DomainError(f"chains must be >= 1, got {self.chains}")
        if self.init is not None and len(self.init) != self.chains:
            raise DomainError(
                f"init supplies {len(self.init)} states for {self.chains} chains")


@dataclass
class SampleMatrix:
    """Per-cycle parameter draws: values[chain, cycle, param]."""

    values: np.ndarray
    labels: Tuple[str, ...]
    config: ChainConfig
    warnings: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.values.ndim != 3:
            raise DomainError(f"values must be 3-d, got shape {self.values.shape}")
        c, m, k = self.values.shape
        if c != self.config.chains or m != self.config.m or k != len(self.labels):
            raise DomainError(
                f"values shape {self.values.shape} inconsistent with config "
                f"({self.config.chains}, {self.config.m}, {len(self.labels)})")

    def index(self, param: str) -> int:
        try:
            return self.labels.index(param)
        except ValueError:
            raise DomainError(f"no parameter '{param}' in {self.labels}") from None

    def post_burnin(self, param: str) -> np.ndarray:
        """Post-burn-in draws stacked as (chains, m - b)."""
        return self.values[:, self.config.b:, self.index(param)]

    def pooled(self, param: str) -> np.ndarray:
        return self.post_burnin(param).reshape(-1)


def _scan_order(model: ModelSpec, config: ChainConfig) -> Tuple[str, ...]:
    labels = model.param_labels
    if config.scan_order is None:
        return labels
    order = tuple(config.scan_order)
    if sorted(order) != sorted(labels):
        raise DomainError(
            f"scan_order {order} is not a permutation of the model parameters {labels}")
    return order


def _validate_init(model: ModelSpec, state: Mapping[str, float], chain: int) -> dict:
    for label in state:
        if label not in model.param_labels:
            raise DomainError(f"chain {chain} init has unknown parameter '{label}'")
    out = {}
    for p in model.params:
        if p.label not in state:
            raise DomainError(f"chain {chain} init is missing parameter '{p.label}'")
        v = float(state[p.label])
        if not p.contains(v):
            raise DomainError(
                f"chain {chain} init {p.label}={v} outside domain ({p.lo}, {p.hi})")
        out[p.label] = v
    return out


def _run_chain(data: Dataset, conditionals: dict, order: Tuple[str, ...],
               labels: Tuple[str, ...], init: Mapping[str, float],
               seed: int, chain: int, out: np.ndarray,
               timed: Optional[Callable[[float], None]] = None) -> Counter:
    """Write one chain's draws into out, an (m, len(labels)) array whose
    columns follow labels, _CYCLES_PER_STORE cycles at a time; return the
    chain's warnings.

    timed, when given, is called once, in the chain, with the CPU seconds
    per cycle of cycles _WARM_UP_CYCLES .. _WARM_UP_CYCLES + _TIMED_CYCLES.
    """
    rng = RngStream(seed, chain)
    warnings = Counter()
    state = dict(init)
    # Injectivity of gamma -> theta at the observed statistic, probed at the
    # starting point for the equations that are only numerically invertible.
    for label in order:
        sampler = conditionals[label]
        if sampler.check_at_start:
            eq = sampler.equation(data, state)
            q = sampler.statistic.compute(data, state)
            report = check_injectivity(eq, q)
            if not report.monotone:
                problem = (": no gamma of the probe grid solves the equation"
                           if report.n_failed == len(report.gamma_grid) else " is not injective")
                raise StructuralError(
                    f"conditional for '{label}'{problem} at the observed statistic "
                    f"(start of chain {chain})",
                    chain=chain, statistic_value=q, state=dict(state),
                    report=repr(report))
            if report.n_failed:
                warnings[f"{label}.injectivity_grid_failures"] += report.n_failed
    draws = [(label, conditionals[label].draw) for label in order]
    # The block holds the draws in scan order; cols puts them in out's columns.
    cols = [labels.index(label) for label in order]
    m = len(out)
    if timed is None:
        spans = ((0, m),)
    else:
        warm, stop = min(_WARM_UP_CYCLES, m), min(_WARM_UP_CYCLES + _TIMED_CYCLES, m)
        spans = ((0, warm), (warm, stop), (stop, m))
    block = []
    append = block.append
    try:
        for span, (lo, hi) in enumerate(spans):
            start = time.thread_time()
            for first in range(lo, hi, _CYCLES_PER_STORE):
                last = min(first + _CYCLES_PER_STORE, hi)
                for cycle in range(first, last):
                    for label, draw in draws:
                        state[label] = x = draw(data, state, rng, warnings)
                        append(x)
                out[first:last, cols] = np.reshape(block, (last - first, len(cols)))
                block.clear()
            if span == 1:
                timed((time.thread_time() - start) / max(hi - lo, 1))
    except StructuralError as exc:
        exc.diagnostics.setdefault("chain", chain)
        exc.diagnostics["cycle"] = cycle
        exc.diagnostics["state"] = dict(state)
        raise
    return warnings


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork (off Linux)."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _other_cpus() -> list:
    """The usable CPUs other than the one this thread last ran on, sorted;
    all usable CPUs where /proc does not say which one that is."""
    cpus = os.sched_getaffinity(0)
    try:
        with open("/proc/thread-self/stat") as fh:
            # Field 39, "processor"; the command name in field 2 may hold spaces.
            here = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return sorted(cpus)
    return sorted(cpus - {here})


def _run_forked(run_chain: Callable, chains: int, procs: int, m: int) -> list:
    """run_chain(c) for c = 0..chains-1, spread over up to procs processes:
    the list of what each returned, in chain order.

    run_chain writes the chain's draws into a matrix that the forked
    children share with this process and returns its warnings.  This
    process runs chain 0 and, from its timed first cycles, predicts the
    serial time of the run.  Above _FORK_BREAK_EVEN_S it forks procs - 1
    children, child k running the chains c with c % procs == k on a CPU of
    its own, and keeps the chains c % procs == 0 itself; below it, it runs
    every chain itself.  (A forked child starts on its parent's CPU, and a
    scheduler may leave it there for 100 ms or more while another CPU
    idles; this process moves each child to its CPU right after forking
    it, so the child need not first get a turn on this busy CPU to move
    itself.)  A child sends a small (chain, warnings) pickle over a pipe as
    each chain ends, so it never waits for this process to read, and stops
    at its first failing chain.  The results are taken in chain order: an
    own chain that failed raises its exception, and a chain that no child
    sent is run again here, once every child has been reaped and none can
    still write its row, so the lowest failing chain raises what it would
    raise in this process.  No child outlives the call.
    """
    children = {}  # pid -> (read end of its pipe, k)

    def spread(seconds_per_cycle: float):
        if seconds_per_cycle * m * chains <= _FORK_BREAK_EVEN_S:
            return
        cpus = _other_cpus()
        parent = os.getpid()
        for k in range(1, procs):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                # The chains of the children not made are run again below.
                os.close(r)
                os.close(w)
                return
            if pid == 0:
                _serve(run_chain, range(k, chains, procs), w, parent)
            children[pid] = (r, k)
            os.close(w)
            if cpus[k - 1:k]:
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(pid, cpus[k - 1:k])

    done = {}
    try:
        failed = chains
        for chain in range(chains):
            if children and chain % procs:
                continue
            try:
                done[chain] = run_chain(chain, spread if chain == 0 else None)
            except Exception as exc:
                if not children:
                    raise
                done[chain], failed = exc, chain
                break
        # Chains above an own failed chain are not needed.
        for r, k in children.values():
            done.update(_receive(r, set(range(k, failed, procs))))
    finally:
        for pid, (r, _) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)
    results = []
    for chain in range(chains):
        result = done.get(chain)
        if isinstance(result, Exception):
            raise result
        if result is None:
            result = run_chain(chain)
        results.append(result)
    return results


def _serve(run_chain: Callable, chains: range, fd: int, parent: int):
    """A forked child's life: die with the thread that forked it, run each
    chain (which writes its draws into the shared matrix) and pickle
    (chain, warnings) to fd, up to the first chain that fails, then exit
    without returning into the caller or flushing the inherited stdio
    buffers."""
    try:
        # A caller killed by a signal it cannot handle never reaches the
        # finally of _run_forked: the kernel SIGKILLs this process when the
        # caller dies, and a caller that died before the prctl shows as a
        # new parent.
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        if os.getppid() != parent:
            return
        with os.fdopen(fd, "wb") as fh:
            for chain in chains:
                pickle.dump((chain, run_chain(chain)), fh, pickle.HIGHEST_PROTOCOL)
                fh.flush()
    finally:
        os._exit(0)


def _receive(fd: int, wanted: set) -> dict:
    """chain -> warnings for each chain a child sent on fd, read until it
    has sent every chain in wanted or stopped."""
    got = {}
    with os.fdopen(fd, "rb", closefd=False) as fh:
        while not wanted <= got.keys():
            try:
                chain, warnings = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):
                break
            got[chain] = warnings
    return got


def run(model: ModelSpec, data: Dataset, config: ChainConfig) -> SampleMatrix:
    """Run the Gibbs sampler; fully reproducible from (model, data, config).

    Where os.fork and os.sched_getaffinity exist (Linux), the chains are
    spread over min(chains, usable CPUs) processes when the timed first
    cycles of chain 0 predict that forking pays (see _run_forked); the
    values, warnings and errors are those of running the chains one after
    another in this process, which is what happens otherwise.  Every chain
    writes its draws into one (chains, m, parameters) matrix, allocated
    once; when the run may fork, it is an anonymous shared mapping, so the
    children fill their chains' rows in place.
    """
    order = _scan_order(model, config)
    conditionals = model.build_conditionals(data)
    missing = set(order) - set(conditionals)
    if missing:
        raise DomainError(f"model '{model.name}' lacks conditionals for {sorted(missing)}")
    inits = config.init if config.init is not None else model.chain_inits(data, config.chains)
    inits = [_validate_init(model, st, c) for c, st in enumerate(inits)]
    # Columns in the model's declared order, whatever the scan order, for
    # stable output.
    labels = model.param_labels
    shape = (config.chains, config.m, len(labels))
    procs = min(config.chains, _usable_cpus())
    values = (np.empty(shape) if procs == 1
              else np.ndarray(shape, buffer=mmap.mmap(-1, math.prod(shape) * 8)))

    def run_chain(chain: int, timed=None):
        return _run_chain(data, conditionals, order, labels, inits[chain],
                          config.seed, chain, values[chain], timed)

    if procs == 1:
        chain_warnings = [run_chain(chain) for chain in range(config.chains)]
    else:
        chain_warnings = _run_forked(run_chain, config.chains, procs, config.m)
    warnings = Counter()
    for w in chain_warnings:
        warnings.update(w)
    cfg = ChainConfig(m=config.m, b=config.b, chains=config.chains, seed=config.seed,
                      scan_order=order, init=tuple(inits))
    return SampleMatrix(values=values, labels=labels, config=cfg, warnings=dict(warnings))


@dataclass(frozen=True)
class EstimateResult:
    value: float
    std_error: float
    ess: float


def estimate(h: Callable[[Mapping[str, float]], float], samples: SampleMatrix) -> EstimateResult:
    """Post-burn-in Monte Carlo average of h over the joint draws.

    Pools all chains after discarding the first b cycles of each; the
    standard error is autocorrelation-adjusted through the effective
    sample size of the per-chain h series.
    """
    from .diagnostics import ess_of_chains  # local import to avoid a cycle

    labels = samples.labels
    # One tolist() call hands h Python floats, not a numpy scalar per cell.
    rows = samples.values[:, samples.config.b:, :].tolist()
    hvals = np.array([[h(dict(zip(labels, row))) for row in chain] for chain in rows],
                     dtype=float)
    value = float(np.mean(hvals))
    ess = ess_of_chains(hvals)
    var = float(np.var(hvals, ddof=1)) if hvals.size > 1 else 0.0
    se = math.sqrt(var / ess) if ess > 0 else math.inf
    return EstimateResult(value=value, std_error=se, ess=ess)
