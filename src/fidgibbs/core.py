"""Structural-equation machinery for conditional fiducial sampling.

A structural equation ties a one-dimensional statistic q to a primary
random variable gamma and one target parameter theta through
q = phi(gamma, theta).  Holding the observed q fixed and resampling gamma
from its unchanged density induces the conditional fiducial distribution
of theta; a draw is exactly: compute q, draw gamma, invert phi.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DomainError, StructuralError
from .randvar import Dist, RngStream, TruncatedNormal, log_density, quantile, sample

__all__ = [
    "StructuralEquation",
    "FiducialStatistic",
    "ConditionalFiducialSampler",
    "DrawKernel",
    "InjectivityReport",
    "check_injectivity",
]

# Fresh gammas a draw tries after its first before it gives up.
MAX_REDRAWS = 1000
# Points of the gamma grid that check_injectivity probes.
INJECTIVITY_GRID_SIZE = 33


@dataclass(frozen=True)
class StructuralEquation:
    """The pair (primary r.v. density, map phi) with its inversion.

    phi(gamma, theta) evaluates the statistic; invert(q, gamma) recovers
    theta.  gamma_domain is the finite interval of gamma values the
    construction treats as possible (primary r.v.s with unbounded support
    use a central interval covering all but negligible mass); theta_domain
    is the parameter space.
    """

    gamma_dist: Dist
    phi: Callable[[float, float], float]
    invert: Callable[[float, float], float]
    theta_domain: Tuple[float, float]
    gamma_domain: Tuple[float, float]

    def __post_init__(self):
        if not self.gamma_domain[0] < self.gamma_domain[1]:
            raise DomainError(f"gamma_domain must be an interval, got {self.gamma_domain}")
        if not self.theta_domain[0] < self.theta_domain[1]:
            raise DomainError(f"theta_domain must be an interval, got {self.theta_domain}")


@dataclass(frozen=True)
class FiducialStatistic:
    """Named deterministic map from (data, fixed parameters) to a scalar."""

    name: str
    compute: Callable[[object, Mapping[str, float]], float]


class DrawKernel(NamedTuple):
    """A catalog conditional's fused draw.

    make(sampler) returns draw(data, state, rng, warnings=None): one
    function that computes the statistic and the state-dependent constants,
    takes one primary value from the stream exactly as sample takes it for
    that law and inverts, with the same arithmetic and bits as the
    layered draw of statistic and equation_for; it hands a first attempt
    that fails to sampler.redraw.  It stands for these statistic and
    equation_for objects only.
    """

    statistic: FiducialStatistic
    equation_for: Callable
    make: Callable


@dataclass(frozen=True)
class ConditionalFiducialSampler:
    """Draws one parameter given the others by inverting a structural equation.

    equation_for(data, state) returns the equation at the current values
    of the remaining parameters: an object with the primary distribution
    gamma_dist, invert(q, gamma), phi(gamma, theta) and, optionally, a
    gamma_domain interval.  Everything that depends only on the data is
    bound when the conditional is built, once per dataset, so equation_for
    evaluates only the constants that depend on the state; it validates
    nothing and evaluates no quantile.  When the drawn gamma admits no
    inversion, or theta falls outside theta_domain, the draw is retried
    with a fresh gamma: this is the (rare) exclusion of extreme gamma
    values from the primary variable's domain, and every retry is counted
    in the warnings Counter.  An equation that also has pivot(q, theta),
    returning the primary value g that maps to theta and log|dg/dtheta|,
    gives the conditional's log density (log_density).

    The layered path of a draw makes exactly four calls besides its own
    arithmetic: statistic.compute, equation_for, sample as bound in this
    module (looked up on every draw, not bound once) and the equation's
    invert, read as an attribute of an equation that keeps an instance
    __dict__ (no __slots__).  Traced, replaced and user-built samplers
    draw through it.  The benchmark's traced run (bench/tracing.py) times
    the layers of a draw by wrapping exactly these: it replaces compute
    and equation_for through dataclasses.replace, patches
    fidgibbs.core.sample and hands out a __dict__ copy of each equation
    with a timed invert; and bench/selftest.py fails when a layer goes
    missing.

    A catalog conditional also carries a kernel (DrawKernel), which fuses
    the first attempt of a draw into one function with the same bits.  The
    path is chosen once, when the sampler is made: draw is the kernel's
    function while statistic and equation_for are the objects the kernel
    stands for, so a sampler made by dataclasses.replace with other ones
    draws through the layered path.  A first attempt that fails continues
    in the layered loop (redraw), so redraws, warnings and errors are those
    of the layered path.
    """

    target_param: str
    statistic: FiducialStatistic
    equation_for: Callable[[object, Mapping[str, float]], object]
    theta_domain: Tuple[float, float]
    check_at_start: bool = False
    kernel: Optional[DrawKernel] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        kernel = self.kernel
        if (kernel is not None and kernel.statistic is self.statistic
                and kernel.equation_for is self.equation_for):
            object.__setattr__(self, "draw", kernel.make(self))

    def equation(self, data, state: Mapping[str, float]) -> StructuralEquation:
        """The validated StructuralEquation at state, for injectivity probes
        and round-trip checks.  Without its own gamma_domain, the equation
        gets its truncated primary's interval, else the central interval
        that misses mass 1e-6 at each end."""
        eq = self.equation_for(data, state)
        gamma_domain = getattr(eq, "gamma_domain", None)
        if gamma_domain is None:
            dist = eq.gamma_dist
            if isinstance(dist, TruncatedNormal):
                gamma_domain = (dist.lo, dist.hi)
            else:
                gamma_domain = (quantile(dist, 1e-6), quantile(dist, 1.0 - 1e-6))
        return StructuralEquation(
            gamma_dist=eq.gamma_dist,
            phi=eq.phi,
            invert=eq.invert,
            theta_domain=self.theta_domain,
            gamma_domain=gamma_domain,
        )

    def log_density(self, data, state: Mapping[str, float]) -> Callable[[float], float]:
        """The log density of this conditional at state, up to a constant in
        theta, as a function of theta: log f_gamma(g) + log|dg/dtheta| for
        (g, log|dg/dtheta|) = pivot(q, theta) at the observed statistic q;
        -inf outside theta_domain and where f_gamma(g) is 0."""
        q = self.statistic.compute(data, state)
        eq = self.equation_for(data, state)
        pivot = getattr(eq, "pivot", None)
        if pivot is None:
            raise DomainError(
                f"the equation for '{self.target_param}' has no pivot to give its density")
        dist = eq.gamma_dist
        lo, hi = self.theta_domain

        def logpdf(theta: float) -> float:
            if not lo < theta < hi:
                return -math.inf
            g, log_dg = pivot(q, theta)
            lp = log_density(dist, g)
            return lp + log_dg if lp > -math.inf else lp

        return logpdf

    def draw(
        self,
        data,
        state: Mapping[str, float],
        rng: RngStream,
        warnings: Optional[Counter] = None,
    ) -> float:
        """One draw through the layered path (see the class doc)."""
        q = self.statistic.compute(data, state)
        return self._invert(q, self.equation_for(data, state), rng, warnings, 0)

    def redraw(self, data, state: Mapping[str, float], rng: RngStream,
               warnings: Optional[Counter], q: float) -> float:
        """The rest of a kernel's draw whose first attempt failed at the
        statistic q: the failure is counted and the layered loop goes on
        from the next primary value."""
        if warnings is not None:
            warnings[f"{self.target_param}.gamma_redraw"] += 1
        return self._invert(q, self.equation_for(data, state), rng, warnings, 1)

    def _invert(self, q: float, eq, rng: RngStream, warnings: Optional[Counter],
                redraws: int) -> float:
        dist, invert = eq.gamma_dist, eq.invert
        lo, hi = self.theta_domain
        while True:
            # The module's sample, looked up on every draw (see the class doc).
            gamma = sample(dist, rng)
            try:
                theta = invert(q, gamma)
            except StructuralError:
                theta = math.nan
            # Fails for NaN and for an infinite theta at an infinite bound.
            if lo < theta < hi:
                return float(theta)
            if warnings is not None:
                warnings[f"{self.target_param}.gamma_redraw"] += 1
            if redraws == MAX_REDRAWS:
                break
            redraws += 1
        raise StructuralError(
            f"no invertible gamma found for parameter '{self.target_param}' "
            f"after {MAX_REDRAWS} redraws",
            statistic=self.statistic.name,
            statistic_value=q,
        )


@dataclass(frozen=True)
class InjectivityReport:
    """Numerical injectivity evidence for a structural equation at fixed q."""

    gamma_grid: np.ndarray
    theta_values: np.ndarray
    n_failed: int
    monotone: bool
    max_roundtrip_residual: float

    @property
    def injective(self) -> bool:
        return self.monotone and self.n_failed == 0

    def __repr__(self):
        return (f"InjectivityReport(monotone={self.monotone}, n_failed={self.n_failed}, "
                f"max_roundtrip_residual={self.max_roundtrip_residual:.3g})")


def check_injectivity(equation: StructuralEquation, q: float) -> InjectivityReport:
    """Probe gamma -> invert(q, gamma) for strict monotonicity on a grid.

    Strict monotonicity over the gamma domain is sufficient for the map to
    be injective.  Inversion failures on grid points are recorded (NaN in
    the value array), not raised; monotonicity is judged on the finite
    portion.  Also reports the worst |phi(gamma, theta) - q| round trip.
    """
    grid = np.linspace(equation.gamma_domain[0], equation.gamma_domain[1], INJECTIVITY_GRID_SIZE)
    thetas = np.full(INJECTIVITY_GRID_SIZE, np.nan)
    residual = 0.0
    for i, g in enumerate(grid):
        try:
            th = equation.invert(q, float(g))
        except (StructuralError, DomainError):
            continue
        if not math.isfinite(th):
            continue
        thetas[i] = th
        back = equation.phi(float(g), th)
        if math.isfinite(back):
            residual = max(residual, abs(back - q))
        else:
            residual = math.inf
    finite = thetas[np.isfinite(thetas)]
    n_failed = int(INJECTIVITY_GRID_SIZE - finite.size)
    if finite.size >= 2:
        diffs = np.diff(finite)
        monotone = bool(np.all(diffs > 0.0) or np.all(diffs < 0.0))
    else:
        monotone = False
    return InjectivityReport(
        gamma_grid=grid,
        theta_values=thetas,
        n_failed=n_failed,
        monotone=monotone,
        max_roundtrip_residual=float(residual),
    )
