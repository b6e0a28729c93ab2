"""Systematic-scan Gibbs sampler over full conditional fiducial samplers.

Each cycle updates every parameter once, in a fixed recorded scan order,
by drawing from its full conditional given the current values of all the
others.  The stationary distribution of the composed chain can depend on
that order when the conditionals are not mutually compatible, so the order
and the seed are carried into every result for honest reporting.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class ChainConfig:
    """Gibbs run parameters.

    m: cycles per chain (all recorded); b: burn-in cycles discarded by
    estimators and diagnostics; chains: independent chains; seed: base
    seed, chain i drawing from the (seed, i) stream; scan_order: update
    order (default: the model's declared parameter order); init: optional
    per-chain starting points (default: mildly dispersed moment-style
    starts).
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


def _run_chain(data: Dataset, conditionals: dict,
               order: Tuple[str, ...], init: Mapping[str, float],
               m: int, seed: int, chain: int) -> Tuple[np.ndarray, Counter]:
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
                raise StructuralError(
                    f"conditional for '{label}' is not injective at the observed "
                    f"statistic (start of chain {chain})",
                    chain=chain, statistic_value=q, report=repr(report))
            if report.n_failed:
                warnings[f"{label}.injectivity_grid_failures"] += report.n_failed
    draws = [(j, label, conditionals[label].draw) for j, label in enumerate(order)]
    values = np.empty((m, len(order)))
    try:
        for cycle in range(m):
            for j, label, draw in draws:
                values[cycle, j] = state[label] = draw(data, state, rng, warnings)
    except StructuralError as exc:
        exc.diagnostics.setdefault("chain", chain)
        exc.diagnostics["cycle"] = cycle
        exc.diagnostics["state"] = dict(state)
        raise
    return values, warnings


def run(model: ModelSpec, data: Dataset, config: ChainConfig) -> SampleMatrix:
    """Run the Gibbs sampler; fully reproducible from (model, data, config)."""
    order = _scan_order(model, config)
    conditionals = model.build_conditionals(data)
    missing = set(order) - set(conditionals)
    if missing:
        raise DomainError(f"model '{model.name}' lacks conditionals for {sorted(missing)}")
    inits = config.init if config.init is not None else model.chain_inits(data, config.chains)
    inits = [_validate_init(model, st, c) for c, st in enumerate(inits)]
    results = [_run_chain(data, conditionals, order, inits[chain],
                          config.m, config.seed, chain)
               for chain in range(config.chains)]
    values = np.stack([v for v, _ in results])
    warnings = Counter()
    for _, w in results:
        warnings.update(w)
    # Reorder columns to the model's declared order for stable output.
    labels = model.param_labels
    perm = [order.index(lb) for lb in labels]
    values = values[:, :, perm]
    cfg = ChainConfig(m=config.m, b=config.b, chains=config.chains, seed=config.seed,
                      scan_order=order, init=tuple(inits))
    return SampleMatrix(values=values, labels=labels, config=cfg,
                        warnings=dict(warnings))


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
