"""Numerical check that full conditionals match a proposed joint density.

If the conditionals really are the conditionals of the proposed joint,
then for each parameter the difference log joint - log conditional must be
constant over that parameter at any fixed setting of the others (it equals
the log marginal of the others plus the kernel's normalizing constant).
The check measures the spread of that difference on finite grids: it is a
falsification tool, so "compatible" means "no violation detected at this
resolution".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError
from .models import Dataset, ModelSpec, get_model
from .randvar import quantile

__all__ = ["SliceResult", "CompatReport", "ratio_constancy", "check_model", "CLOSED_FORM_TOL"]

CLOSED_FORM_TOL = 1e-8
MIN_GRID = 20
MIN_SLICES = 3
DEFAULT_GRID_POINTS = 64
GRID_COVERAGE = 0.99


@dataclass(frozen=True)
class SliceResult:
    others: dict
    grid: np.ndarray
    log_ratio_spread: float
    support_mismatch: bool

    def to_dict(self) -> dict:
        return {
            "others": dict(self.others),
            "grid_lo": float(self.grid[0]),
            "grid_hi": float(self.grid[-1]),
            "grid_points": int(self.grid.size),
            "log_ratio_spread": self.log_ratio_spread,
            "support_mismatch": self.support_mismatch,
        }


@dataclass(frozen=True)
class CompatReport:
    param: str
    tol: float
    slices: Tuple[SliceResult, ...]
    verdict: str  # compatible | incompatible | inconclusive
    notes: str = ""

    @property
    def max_spread(self) -> float:
        return max((s.log_ratio_spread for s in self.slices), default=math.nan)

    def to_dict(self) -> dict:
        return {
            "param": self.param,
            "tol": self.tol,
            "verdict": self.verdict,
            "max_log_ratio_spread": self.max_spread,
            "notes": self.notes,
            "slices": [s.to_dict() for s in self.slices],
        }


GridSpec = Union[np.ndarray, Sequence[float], Callable[[Mapping[str, float]], np.ndarray]]


def ratio_constancy(
    param: str,
    joint_log_kernel: Callable[[Mapping[str, float]], float],
    conditional_log_density: Callable[[Mapping[str, float]], Callable[[float], float]],
    slices: Sequence[Mapping[str, float]],
    grid: GridSpec,
    tol: float = CLOSED_FORM_TOL,
) -> CompatReport:
    """Spread of log joint - log conditional over the parameter's grid.

    slices are settings of the remaining parameters;
    conditional_log_density(others) returns the conditional's log density
    at that slice as a function of the parameter's value, so it is built
    once per slice.  grid is either a fixed array of parameter values or a
    callable producing one per slice (grids must stay inside the
    conditional's support).  The verdict is compatible only if the spread
    is at most tol on every slice.
    """
    if len(slices) < MIN_SLICES:
        raise DomainError(f"need at least {MIN_SLICES} slices, got {len(slices)}")
    results = []
    any_mismatch = False
    any_nan = False
    for others in slices:
        pts = np.asarray(grid(others) if callable(grid) else grid, dtype=float)
        if pts.size < MIN_GRID:
            raise DomainError(f"need at least {MIN_GRID} grid points, got {pts.size}")
        cond_logpdf = conditional_log_density(others)
        diffs = np.empty(pts.size)
        mismatch = False
        for i, v in enumerate(pts):
            cond = cond_logpdf(float(v))
            if not math.isfinite(cond):
                raise DomainError(
                    f"grid point {v} lies outside the conditional support for '{param}'")
            state = dict(others)
            state[param] = float(v)
            joint = joint_log_kernel(state)
            if joint == -math.inf:
                mismatch = True
                diffs[i] = -math.inf
            else:
                diffs[i] = joint - cond
        finite = diffs[np.isfinite(diffs)]
        if mismatch:
            any_mismatch = True
            spread = math.inf
        elif np.any(np.isnan(diffs)) or finite.size == 0:
            any_nan = True
            spread = math.nan
        else:
            spread = float(np.max(finite) - np.min(finite))
        results.append(SliceResult(others=dict(others), grid=pts,
                                   log_ratio_spread=spread, support_mismatch=mismatch))
    if any_mismatch:
        verdict = "incompatible"
        notes = ("proposed joint vanishes inside the conditional's support "
                 "(support mismatch)")
    elif any_nan:
        verdict = "inconclusive"
        notes = "non-finite evaluations prevented measuring the spread"
    elif all(s.log_ratio_spread <= tol for s in results):
        verdict = "compatible"
        notes = f"no violation detected at grid resolution (tol={tol:g})"
    else:
        verdict = "incompatible"
        notes = f"log-ratio varies over the grid (max spread {max(s.log_ratio_spread for s in results):g})"
    return CompatReport(param=param, tol=tol, slices=tuple(results),
                        verdict=verdict, notes=notes)


def check_model(
    model: Union[str, ModelSpec],
    data: Dataset,
    grid_points: int = DEFAULT_GRID_POINTS,
    tol: float = CLOSED_FORM_TOL,
) -> dict:
    """Run the ratio-constancy check for every parameter of a catalog model.

    Only models shipping an analytic joint kernel support this.  Each
    conditional's log density is the one of the sampler that run draws
    from (ConditionalFiducialSampler.log_density: the primary's density at
    the equation's pivot, times the pivot's Jacobian), so the check tests
    the sampler itself.  The slices are the model's first three chain
    starts.  The grid per slice spans the central 99% of that conditional:
    its ends invert the parameter's structural equation at the 0.5% and
    99.5% quantiles of the primary.  Returns a dict of parameter label to
    CompatReport.
    """
    spec = get_model(model) if isinstance(model, str) else model
    if spec.joint_log_kernel is None:
        raise DomainError(
            f"model '{spec.name}' has no analytic joint kernel to check against")
    conditionals = spec.build_conditionals(data)
    slices = spec.chain_inits(data, MIN_SLICES)
    lo_p = (1.0 - GRID_COVERAGE) / 2.0
    reports = {}
    for p in spec.params:
        others_slices = [{k: v for k, v in s.items() if k != p.label} for s in slices]

        def grid(others, c=conditionals[p.label]):
            eq = c.equation_for(data, others)
            q = c.statistic.compute(data, others)
            lo, hi = sorted(eq.invert(q, quantile(eq.gamma_dist, u)) for u in (lo_p, 1.0 - lo_p))
            return np.linspace(lo, hi, grid_points)

        reports[p.label] = ratio_constancy(
            p.label,
            lambda state: spec.joint_log_kernel(state, data),
            lambda others, c=conditionals[p.label]: c.log_density(data, others),
            others_slices,
            grid,
            tol=tol,
        )
    return reports
