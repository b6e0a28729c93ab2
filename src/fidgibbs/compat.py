"""Numerical check that the full conditionals of a model are compatible.

Two conditionals f_i(a | b) and f_j(b | a), the other parameters held
fixed, are the conditionals of one joint exactly when their positivity
sets agree and D(a, b) = log f_i(a | b) - log f_j(b | a) separates as
A(a) - B(b) (Arnold & Press 1989).  Where D separates, every mixed second
difference D(a, b) - D(a, b0) - D(a0, b) + D(a0, b0) vanishes, and the
unknown normalisers cancel from it, so no joint is needed.  The check
measures both conditions on finite grids for every pair of parameters: it
is a falsification tool, so "compatible" means "no violation detected at
this resolution".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Tuple, Union

import numpy as np

from .errors import DomainError, StructuralError
from .models import Dataset, ModelSpec, get_model
from .randvar import quantile

__all__ = ["CompatReport", "check_model", "CLOSED_FORM_TOL"]

CLOSED_FORM_TOL = 1e-8
MIN_GRID = 20
DEFAULT_GRID_POINTS = 64
# The chain starts the check slices the model at.
SLICES = 3
# Primary quantiles a grid's low end is tried at, in turn, while the
# inversion raises StructuralError; the high end is tried at 1 - u.
END_QUANTILES = (0.005, 0.025, 0.10, 0.25)
HIGH_QUANTILES = tuple(1.0 - u for u in END_QUANTILES)


@dataclass(frozen=True)
class PairSlice:
    """A pair's grid at one chain start (axes maps each of the two labels
    to its points) and what the check found on it."""

    state: dict
    axes: Dict[str, Tuple[float, ...]]
    max_mixed: float
    mismatches: int


@dataclass(frozen=True)
class CompatReport:
    pair: Tuple[str, str]
    tol: float
    slices: Tuple[PairSlice, ...]
    verdict: str  # compatible | incompatible | inconclusive
    notes: str = ""

    @property
    def max_spread(self) -> float:
        """The largest |mixed second difference| of D over the slices."""
        return max((s.max_mixed for s in self.slices), default=math.nan)

    @property
    def mismatches(self) -> int:
        """Cells where exactly one of the two log densities is -inf."""
        return sum(s.mismatches for s in self.slices)

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "tol": self.tol,
            "verdict": self.verdict,
            "max_mixed": self.max_spread,
            "mismatches": self.mismatches,
            "notes": self.notes,
            "slices": [{"state": s.state, "max_mixed": s.max_mixed, "mismatches": s.mismatches}
                       for s in self.slices],
        }


def _end(eq, q: float, us) -> Tuple[float, float]:
    """The quantile and the inversion at it of the first of us that inverts."""
    for u in us[:-1]:
        try:
            return u, eq.invert(q, quantile(eq.gamma_dist, u))
        except StructuralError:
            pass
    return us[-1], eq.invert(q, quantile(eq.gamma_dist, us[-1]))


def _axis(conditional, data: Dataset, state: dict, side: int):
    """side points across the central part of the conditional at state,
    and a note naming the primary quantiles its ends invert where those
    are not the first ones tried."""
    eq = conditional.equation_for(data, state)
    q = conditional.statistic.compute(data, state)
    (u_lo, lo), (u_hi, hi) = _end(eq, q, END_QUANTILES), _end(eq, q, HIGH_QUANTILES)
    moved = (u_lo, u_hi) != (END_QUANTILES[0], HIGH_QUANTILES[0])
    note = f"{conditional.target_param} at {u_lo:g} and {u_hi:g}" if moved else ""
    return tuple(np.linspace(*sorted((lo, hi)), side).tolist()), note


def _mixed(ci, cj, data: Dataset, state: dict, a_axis, b_axis) -> Tuple[float, int]:
    """Largest |mixed second difference| of D and the mismatch cells on the
    grid a_axis x b_axis, in Python floats (-inf - -inf is a quiet NaN)."""
    # log f_i(. | b) for each b, and log f_j(. | a) for each a.
    f_i = [ci.log_density(data, {**state, cj.target_param: b}) for b in b_axis]
    f_j = [cj.log_density(data, {**state, ci.target_param: a}) for a in a_axis]
    mismatches = 0
    d = []
    for a, f_j_at_a in zip(a_axis, f_j):
        row = []
        for b, f_i_at_b in zip(b_axis, f_i):
            li, lj = f_i_at_b(a), f_j_at_a(b)
            mismatches += (li == -math.inf) != (lj == -math.inf)
            row.append(li - lj)
        d.append(row)
    cells = [(r, c) for r, row in enumerate(d) for c, v in enumerate(row) if math.isfinite(v)]
    if not cells:
        return math.nan, mismatches
    # The base cell whose row and column have the most finite cells.
    rows = [sum(map(math.isfinite, row)) for row in d]
    cols = [sum(math.isfinite(row[c]) for row in d) for c in range(len(b_axis))]
    r0, c0 = max(cells, key=lambda rc: rows[rc[0]] + cols[rc[1]])
    base = d[r0][c0]
    mixed = [abs(d[r][c] - d[r][c0] - d[r0][c] + base) for r, c in cells]
    return max((m for m in mixed if math.isfinite(m)), default=math.nan), mismatches


def _verdict(slices, tol: float) -> Tuple[str, str]:
    mismatches = sum(s.mismatches for s in slices)
    worst = max(s.max_mixed for s in slices)
    if mismatches:
        return "incompatible", (f"the supports differ on {mismatches} cells; "
                                f"max |mixed difference| {worst:.3g}")
    if any(math.isnan(s.max_mixed) for s in slices):
        return "inconclusive", "no cell where both log densities are finite"
    if worst > tol:
        return "incompatible", f"D does not separate: max |mixed difference| {worst:.3g}"
    return "compatible", f"no violation detected at grid resolution (tol={tol:g})"


def check_model(
    model: Union[str, ModelSpec],
    data: Dataset,
    grid_points: int = DEFAULT_GRID_POINTS,
    tol: float = CLOSED_FORM_TOL,
) -> dict:
    """Check every pair of a model's conditionals for compatibility.

    Each conditional's log density is the one of the sampler that run
    draws from (ConditionalFiducialSampler.log_density: the primary's
    density at the equation's pivot, times the pivot's Jacobian), so the
    check tests the sampler itself and needs no joint.  For each pair
    (i, j) of parameters, in declared order, at each of the model's first
    three chain starts, a square grid of at least grid_points cells spans
    the central 99% of both conditionals: each axis ends invert its
    equation at the 0.5% and 99.5% quantiles of the primary, or, where
    that inversion raises StructuralError, at the 2.5%, 10% or 25% ones.
    On the grid, D(a, b) = log f_i(a | b, rest) - log f_j(b | a, rest).
    The verdict is compatible only when no cell has exactly one of the two
    log densities -inf and every |mixed second difference| of D, taken
    against one base cell where both are finite, is at most tol.  Returns
    a dict of "<i>,<j>" to CompatReport.
    """
    spec = get_model(model) if isinstance(model, str) else model
    conditionals = spec.build_conditionals(data)
    if grid_points < MIN_GRID:
        raise DomainError(f"need at least {MIN_GRID} grid points, got {grid_points}")
    side = math.isqrt(grid_points - 1) + 1
    starts = spec.chain_inits(data, SLICES)
    axes = [{p: _axis(c, data, st, side) for p, c in conditionals.items()} for st in starts]
    reports = {}
    for a, b in itertools.combinations(spec.param_labels, 2):
        slices = []
        for st, ax in zip(starts, axes):
            (a_axis, _), (b_axis, _) = ax[a], ax[b]
            worst, mismatches = _mixed(conditionals[a], conditionals[b], data, st, a_axis, b_axis)
            slices.append(PairSlice(dict(st), {a: a_axis, b: b_axis}, worst, mismatches))
        verdict, notes = _verdict(slices, tol)
        notes += (f"; {side}x{side} grids, ends at the primary's {END_QUANTILES[0]:g} and "
                  f"{HIGH_QUANTILES[0]:g} quantiles")
        moved = sorted({ax[p][1] for ax in axes for p in (a, b)} - {""})
        if moved:
            notes += " (moved inward: " + ", ".join(moved) + ")"
        reports[f"{a},{b}"] = CompatReport((a, b), tol, tuple(slices), verdict, notes)
    return reports
