"""Convergence diagnostics, summaries and Monte Carlo estimates for Gibbs
sample matrices.

Split potential-scale-reduction (each post-burn-in chain is halved and the
halves treated as chains, which also flags within-chain drift) and an
autocorrelation-based effective sample size with the initial-positive-pair
truncation rule; estimate reads that ESS for its standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Tuple

import numpy as np

from .errors import DomainError
from .gibbs import SampleMatrix

__all__ = [
    "DiagnosticsReport",
    "EstimateResult",
    "ParamSummary",
    "estimate",
    "summarize",
]

DEFAULT_BINS = 60
RHAT_THRESHOLD = 1.05
ESS_THRESHOLD = 400.0
_QUANTILES = [0.025, 0.5, 0.975]


def _split_halves(chains: np.ndarray) -> np.ndarray:
    """Stack first and second half of each row; odd lengths drop the middle."""
    if chains.ndim != 2:
        raise DomainError(f"expected (chains, length) array, got shape {chains.shape}")
    half = chains.shape[1] // 2
    return np.vstack([chains[:, :half], chains[:, chains.shape[1] - half:]])


def rhat_of_chains(chains: np.ndarray) -> float:
    """Split potential-scale-reduction factor of a (chains, length) array.

    Returns NaN when every split has zero internal variance (degenerate,
    e.g. constant chains).  The statistic is bounded below by
    sqrt((L-1)/L) for split length L, reached when all split means agree.
    The draws are scaled by a power of two first (see _unit_scale), so
    finite draws near the float limit give a finite result.
    """
    splits = _split_halves(np.asarray(chains, dtype=float))
    if splits.shape[1] < 2:
        raise DomainError("split halves need length >= 2")
    return _rhat(_unit_scale(splits)[0])


def _rhat(splits: np.ndarray) -> float:
    """rhat_of_chains of the split halves splits, scaled by _unit_scale."""
    length = splits.shape[1]
    if np.max(splits) == np.min(splits):
        return math.nan
    within = float(np.mean(np.var(splits, axis=1, ddof=1)))
    means = np.mean(splits, axis=1)
    between_over_len = float(np.var(means, ddof=1)) if splits.shape[0] > 1 else 0.0
    if within == 0.0:
        return math.nan
    pooled = (length - 1) / length * within + between_over_len
    return math.sqrt(pooled / within)


def _autocorrelations(x: np.ndarray) -> np.ndarray:
    """Normalized autocorrelations rho_0..rho_{L-1} via FFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    xc = x - x.mean()
    nfft = int(2 ** math.ceil(math.log2(2 * n)))
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    if acov[0] <= 0.0:
        out = np.zeros(n)
        out[0] = 1.0
        return out
    return acov / acov[0]


def ess_of_chains(chains: np.ndarray) -> float:
    """Summed per-chain effective sample size, clipped to [1, total draws].

    Like rhat_of_chains, it works on the draws scaled by a power of two.
    """
    return _ess(np.atleast_2d(_unit_scale(np.asarray(chains, dtype=float))[0]))


def _ess(chains: np.ndarray) -> float:
    """ess_of_chains of a (chains, length) array scaled by _unit_scale: per
    chain N / (1 + 2 S) clipped to [1, N], S the sum from 0.0, left to right
    as a loop adds, of the pairs rho_t + rho_(t+1), t = 1, 3, ..., before the
    first that is not positive."""
    n = chains.shape[1]
    total = 0.0
    for row in chains:
        rho = _autocorrelations(row)
        pairs = rho[1:n - 1:2] + rho[2:n:2]
        first = np.append(pairs <= 0.0, True).argmax()
        tau = 1.0 + 2.0 * float(np.cumsum(np.append(0.0, pairs))[first])
        total += float(min(max(n / tau if tau > 0 else float(n), 1.0), n))
    return float(min(max(total, 1.0), chains.size))


@dataclass(frozen=True)
class ParamSummary:
    param: str
    rhat: float
    ess: float
    mean: float
    sd: float
    q2_5: float
    q50: float
    q97_5: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    converged: bool

    def hist_densities(self) -> np.ndarray:
        total = float(np.sum(self.hist_counts))
        with np.errstate(over="ignore"):
            widths = np.diff(self.hist_edges)
            denom = total * widths
        densities = self.hist_counts / denom
        # Where the draw count times the width passes the float range.
        over = np.isinf(denom)
        densities[over] = self.hist_counts[over] / total / widths[over]
        # Where the width itself does: from the width between the halved
        # edges, which is finite.
        wide = np.isinf(widths)
        if wide.any():
            halves = np.diff(self.hist_edges / 2.0)
            densities[wide] = self.hist_counts[wide] / total / halves[wide] / 2.0
        return densities

    def to_dict(self) -> dict:
        return {
            "param": self.param,
            "rhat": None if math.isnan(self.rhat) else self.rhat,
            "ess": self.ess,
            "mean": self.mean,
            "sd": self.sd,
            "quantiles": {"2.5%": self.q2_5, "50%": self.q50, "97.5%": self.q97_5},
            "histogram": {
                "edges": self.hist_edges.tolist(),
                "counts": self.hist_counts.tolist(),
            },
            "converged": self.converged,
        }


@dataclass(frozen=True)
class DiagnosticsReport:
    params: Tuple[ParamSummary, ...]
    chains: int
    m: int
    b: int
    scan_order: Tuple[str, ...]
    seed: int
    warnings: dict = field(default_factory=dict)

    def param(self, label: str) -> ParamSummary:
        for p in self.params:
            if p.param == label:
                return p
        raise DomainError(f"no parameter '{label}' in report")

    def to_dict(self) -> dict:
        return {
            "chains": self.chains,
            "m": self.m,
            "b": self.b,
            "scan_order": list(self.scan_order),
            "seed": self.seed,
            "warnings": dict(self.warnings),
            "params": [p.to_dict() for p in self.params],
        }


def _unit_scale(x: np.ndarray):
    """x times the power of two 2**-e that brings max |x| into [0.5, 1), and e.

    A power-of-two scale is exact, so statistics of the scaled values scale
    back exactly, and squares and sums of the scaled values cannot overflow.
    """
    _, e = np.frexp(np.max(np.abs(x)))
    return np.ldexp(x, -e), int(e)


def _check_bins(bins: int):
    """Raise DomainError unless summarize can take bins histogram bins."""
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")


def summarize(samples: SampleMatrix, bins: int = DEFAULT_BINS) -> DiagnosticsReport:
    """Full diagnostics for every parameter of a sample matrix.

    R-hat, ESS, the moments and the histogram of each parameter are computed
    on its draws scaled by a power of two (see _unit_scale) and scaled back,
    so finite draws near the float limit give finite results.  That scaling
    flushes draws below 2**-1074 times the largest |draw| to zero, so the
    quantiles, which are order statistics, are taken from the draws
    themselves, halved when their range exceeds the float range.
    """
    _check_bins(bins)
    cfg = samples.config
    summaries = []
    for label in samples.labels:
        draws = samples.post_burnin(label)
        chains, e = _unit_scale(draws)
        pooled = chains.reshape(-1)
        rhat = _rhat(_split_halves(chains)) if chains.shape[1] >= 4 else math.nan
        ess = _ess(chains)
        lo = float(np.min(pooled))
        hi = float(np.max(pooled))
        if lo == hi:
            # Degenerate spread: a single unit-width bin holding everything.
            mean, sd = math.ldexp(lo, e), 0.0
            edges = np.array([mean - 0.5, mean + 0.5])
            counts = np.array([pooled.size], dtype=float)
        else:
            counts, edges = np.histogram(pooled, bins=bins, range=(lo, hi))
            counts = counts.astype(float)
            edges = np.ldexp(edges, e)
            mean = math.ldexp(float(np.mean(pooled)), e)
            with np.errstate(over="ignore"):  # an sd past the float range reads inf
                sd = float(np.ldexp(np.std(pooled, ddof=1), e))
        # Halve the draws only when interpolating between two could overflow.
        k = 0 if math.isfinite(math.ldexp(hi, e) - math.ldexp(lo, e)) else 1
        q2_5, q50, q97_5 = (math.ldexp(q, k)
                            for q in np.quantile(np.ldexp(draws, -k), _QUANTILES).tolist())
        converged = bool(not math.isnan(rhat) and rhat < RHAT_THRESHOLD
                         and ess > ESS_THRESHOLD)
        summaries.append(ParamSummary(
            param=label, rhat=float(rhat), ess=float(ess),
            mean=mean, sd=sd, q2_5=q2_5, q50=q50, q97_5=q97_5,
            hist_edges=edges, hist_counts=counts, converged=converged,
        ))
    return DiagnosticsReport(
        params=tuple(summaries),
        chains=cfg.chains,
        m=cfg.m,
        b=cfg.b,
        scan_order=tuple(cfg.scan_order or samples.labels),
        seed=cfg.seed,
        warnings=dict(samples.warnings),
    )


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
