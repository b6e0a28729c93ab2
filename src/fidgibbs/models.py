"""Catalog of model families with full conditional fiducial samplers.

Each family provides, per parameter: a fiducial statistic, a structural
equation (primary random variable plus the map tying the statistic to the
parameter), and the resulting conditional sampler.  Every equation also
gives its pivot, from which the sampler reads the conditional's log
density.  The closed-form families ship an analytic joint log kernel for
the compatibility check; their printed conditionals stay public as test
oracles.  Every family ships a forward data simulator.

Families: normal, pareto, quadreg, gamma, beta, behrens_fisher,
bivariate_normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from .core import ConditionalFiducialSampler, DrawKernel, FiducialStatistic
from .errors import DegenerateDataError, DomainError, EvaluationError, StructuralError
from .randvar import (
    ChiSquare,
    Dist,
    Exponential,
    Gamma,
    Normal,
    RngStream,
    ScaledInvChiSquare,
    StudentT,
    TruncatedNormal,
    fixed_draw,
    unit_rate_gamma,
)
from .specfun import (Bracket, digamma, finite_cubic_root, scipy_special as _sp,
                      solve_newton, solve_quadratic_positive, trigamma)

__all__ = [
    "Dataset",
    "ParamSpec",
    "ModelSpec",
    "MODEL_NAMES",
    "get_model",
    "simulate_dataset",
    "normal_conditional_mu",
    "normal_conditional_sigma2",
    "normal_marginal_mu",
    "pareto_conditional_alpha",
    "pareto_conditional_beta_log_density",
    "pareto_joint_log_kernel",
    "quadreg_conditionals",
    "quadreg_joint_log_kernel",
    "behrens_fisher_direct_draws",
    "bvn_log_likelihood",
]

_STANDARD_TRUNC = 5.0
_STD_NORMAL = Normal(0.0, 1.0)
_STD_TRUNCNORM = TruncatedNormal(0.0, 1.0, -_STANDARD_TRUNC, _STANDARD_TRUNC)
_STD_EXPONENTIAL = Exponential(1.0)
# The primaries' draws as the fused kernels take them.
_normal = fixed_draw(_STD_NORMAL)
_truncnorm = fixed_draw(_STD_TRUNCNORM)
_exponential = fixed_draw(_STD_EXPONENTIAL)


# ---------------------------------------------------------------------------
# Data container
# ---------------------------------------------------------------------------

class Dataset:
    """Named read-only real columns (x, and y for two-column models)."""

    def __init__(self, columns: Mapping[str, np.ndarray]):
        cols = {}
        for name, values in columns.items():
            arr = np.asarray(values, dtype=float).copy()
            if arr.ndim != 1 or arr.size == 0:
                raise DomainError(f"column '{name}' must be a non-empty 1-d array")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"column '{name}' contains non-finite values")
            arr.flags.writeable = False
            cols[name] = arr
        if not cols:
            raise DomainError("dataset needs at least one column")
        self.columns = cols

    def col(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise DomainError(f"dataset has no column '{name}' (has {sorted(self.columns)})")
        return self.columns[name]

    @property
    def n(self) -> int:
        return int(next(iter(self.columns.values())).size)

    def __repr__(self):
        shape = {k: v.size for k, v in self.columns.items()}
        return f"Dataset({shape})"


@dataclass(frozen=True)
class ParamSpec:
    """Parameter label with its domain and a kind used for chain dispersal."""

    label: str
    lo: float
    hi: float
    kind: str  # location | scale | correlation

    def contains(self, v: float) -> bool:
        return math.isfinite(v) and self.lo < v < self.hi


@dataclass(frozen=True)
class ModelSpec:
    """A model family: parameters, conditionals, optional joint, simulator.

    build_conditionals(data) is the one place a dataset is checked: it
    raises DomainError or DegenerateDataError for data the model cannot
    take, before it binds anything.  joint_log_kernel, when given, is the
    joint that check_model tests the conditionals against.
    """

    name: str
    params: Tuple[ParamSpec, ...]
    build_conditionals: Callable[[Dataset], dict]
    simulate: Callable[[Mapping[str, float], int, RngStream], Dataset]
    chain_inits: Callable[[Dataset, int], list]
    joint_log_kernel: Optional[Callable[[Mapping[str, float], Dataset], float]] = None

    @property
    def param_labels(self) -> Tuple[str, ...]:
        return tuple(p.label for p in self.params)

    def param(self, label: str) -> ParamSpec:
        for p in self.params:
            if p.label == label:
                return p
        raise DomainError(f"model '{self.name}' has no parameter '{label}'")


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _pos(v: float, name: str) -> float:
    if 0.0 < v < math.inf:  # false for NaN
        return v
    raise DomainError(f"{name} must be positive and finite, got {v}")


def _log_abs(x: float) -> float:
    return math.log(abs(x)) if x else -math.inf


def _conditional(params: Tuple[ParamSpec, ...], label: str, statistic: FiducialStatistic,
                 equation_for, kernel, **options) -> ConditionalFiducialSampler:
    """A catalog conditional whose theta_domain is its parameter's domain,
    with kernel as the make of its DrawKernel.

    kernel(lo, hi, redraw) returns the fused draw(data, state, rng,
    warnings=None) of this statistic and equation_for: it returns theta
    when lo < theta < hi and otherwise returns redraw(data, state, rng,
    warnings, q) (ConditionalFiducialSampler.redraw).
    """
    p = next(p for p in params if p.label == label)

    def make(sampler):
        return kernel(*sampler.theta_domain, sampler.redraw)

    return ConditionalFiducialSampler(label, statistic, equation_for, theta_domain=(p.lo, p.hi),
                                      kernel=DrawKernel(statistic, equation_for, make), **options)


def _equation_kernel(q: float, equation_for):
    """The kernel of a conditional whose statistic is the constant q and
    whose equation equation_for builds per draw, with a standard truncated
    normal primary: the shape conditionals, whose solves go through the
    equation's invert."""
    def kernel(lo, hi, redraw):
        def draw(d, p, rng, warnings=None):
            eq = equation_for(d, p)
            g = _truncnorm(rng)
            try:
                theta = eq.invert(q, g)
            except StructuralError:
                return redraw(d, p, rng, warnings, q)
            return theta if lo < theta < hi else redraw(d, p, rng, warnings, q)
        return draw
    return kernel


# Per-draw equations.  Each holds only the constants that depend on the
# other parameters (plus references to data-only values bound at build
# time), so making one per draw is cheap; ConditionalFiducialSampler.equation
# turns one into a validated StructuralEquation when a probe needs it.  Every
# equation also gives pivot(q, theta): the primary value g that maps to
# theta at statistic q, and log|dg/dtheta|.

class _LocationEquation:
    """q = coef * theta + off + sd * gamma with gamma ~ N(0, 1)."""

    gamma_dist = _STD_NORMAL

    def __init__(self, coef: float, off: float, sd: float):
        self.coef, self.off, self.sd = coef, off, sd

    def invert(self, q, g):
        return (q - self.off - self.sd * g) / self.coef

    def phi(self, g, theta):
        return self.coef * theta + self.off + self.sd * g

    def pivot(self, q, theta):
        return (q - self.off - self.coef * theta) / self.sd, math.log(abs(self.coef) / self.sd)


class _VarianceEquation:
    """q = theta * gamma / c with gamma ~ chi^2(n)."""

    def __init__(self, gamma_dist: Dist, c: float):
        self.gamma_dist, self.c = gamma_dist, c

    def invert(self, q, g):
        return self.c * q / g

    def phi(self, g, theta):
        return theta * g / self.c

    def pivot(self, q, theta):
        return self.c * q / theta, math.log(self.c * q) - 2.0 * math.log(theta)


class _RateEquation:
    """q = scale * gamma / theta + off with a gamma-distributed primary
    (a chi-square primary with scale 1/2 is a Gamma(df / 2, 1) one)."""

    def __init__(self, gamma_dist: Dist, off: float, scale: float = 1.0):
        self.gamma_dist, self.off, self.scale = gamma_dist, off, scale

    def invert(self, q, g):
        rate = q - self.off
        if rate <= 0.0:
            raise StructuralError("statistic minus offset not positive", rate=rate)
        return self.scale * g / rate

    def phi(self, g, theta):
        return self.scale * g / theta + self.off

    def pivot(self, q, theta):
        slope = (q - self.off) / self.scale
        return slope * theta, _log_abs(slope)


_SCALE_FACTORS = (1.0, 2.25, 0.45, 3.5, 0.3, 1.6, 0.7, 2.8)
_SHIFT_STEPS = (0.0, 1.5, -1.5, 3.0, -3.0, 2.0, -2.0, 4.0)
_SHRINKS = (1.0, 0.4, 0.75, 0.1, 0.9, 0.25, 0.6, 0.05)


def _disperse(base: dict, params: Tuple[ParamSpec, ...], spreads: dict, chains: int) -> list:
    """Mildly overdispersed deterministic starting points, chain 0 at base."""
    inits = []
    for c in range(chains):
        st = {}
        for p in params:
            v = base[p.label]
            if p.kind == "scale":
                st[p.label] = v * _SCALE_FACTORS[c % len(_SCALE_FACTORS)]
            elif p.kind == "correlation":
                st[p.label] = v * _SHRINKS[c % len(_SHRINKS)]
            else:
                st[p.label] = v + _SHIFT_STEPS[c % len(_SHIFT_STEPS)] * spreads.get(p.label, 0.0)
        inits.append(st)
    return inits


def _expanding_root(f: Callable[[float], Tuple[float, float]], start: float,
                    tol: float = 1e-13, one_minimum: bool = False) -> float:
    """Root of f by geometric bracket expansion plus Newton.

    f(a) returns (f(a), f'(a)).  The bracket grows from start by factors
    of 4, down while f(start) > 0 and up while f(start) < 0, until f
    changes sign; StructuralError is raised when no sign change is found
    before it hits the floating-point floor/ceiling (the no-solution case).
    Inside the bracket a bisection-safeguarded Newton iteration in log a
    starts from the end with the smaller |f| and stops once a step is at
    most tol; it finds the root at the sign change the expansion met.  Each
    point is evaluated once; a non-finite value at a bracket end or inside
    the bracket raises StructuralError.  With one_minimum, f is known to
    fall and then rise, so the downward expansion gives up as soon as f > 0
    where f falls (f' < 0): f only grows below such a point.  The shape
    equations use it only outside their certificate, from a start that does
    not depend on the chain state (_shape_solve).
    """
    def safe(a):
        try:
            return f(a)
        except EvaluationError:
            return math.nan, math.nan

    lo = hi = max(start, 1e-8)
    (flo, dlo) = (fhi, dhi) = safe(lo)
    if not flo <= 0.0:
        for _ in range(600):
            hi, fhi, dhi = lo, flo, dlo
            lo *= 0.25
            if lo < 1e-280:
                raise StructuralError("no lower bracket: target function stays positive", start=start)
            flo, dlo = safe(lo)
            if flo <= 0.0:
                break
            if one_minimum and dlo < 0.0:
                raise StructuralError("no lower bracket: below the minimum, target function "
                                      "stays positive", start=start)
        else:
            raise StructuralError("lower bracket expansion exhausted", start=start)
    if not fhi >= 0.0:
        for _ in range(600):
            lo, flo, dlo = hi, fhi, dhi
            hi *= 4.0
            if hi > 1e280:
                raise StructuralError("no upper bracket: target function stays negative", start=start)
            fhi, dhi = safe(hi)
            if fhi >= 0.0:
                break
        else:
            raise StructuralError("upper bracket expansion exhausted", start=start)

    for a, fa in ((lo, flo), (hi, fhi)):
        if not math.isfinite(fa):
            raise StructuralError(
                f"root isolation failed: non-finite target function value at x={a}", start=start)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi

    def in_log(u):
        a = math.exp(u)
        fa, da = f(a)
        return fa, a * da

    a, fa, da = (lo, flo, dlo) if -flo < fhi else (hi, fhi, dhi)
    try:
        return math.exp(solve_newton(in_log, math.log(lo), math.log(hi),
                                     math.log(a), fa, a * da, tol))
    except EvaluationError as exc:
        raise StructuralError(f"root isolation failed: {exc}", start=start) from exc


# ---------------------------------------------------------------------------
# Normal samples: normal (one sample) and behrens_fisher (two)
# ---------------------------------------------------------------------------

def normal_conditional_mu(xbar: float, sigma2: float, n: int) -> Normal:
    """mu given sigma2: Normal(xbar, sigma2 / n)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return Normal(float(xbar), _pos(sigma2, "sigma2") / n)


def normal_conditional_sigma2(mu: float, x: np.ndarray) -> ScaledInvChiSquare:
    """sigma2 given mu: scaled inverse chi-square(n, mean((x - mu)^2))."""
    x = np.asarray(x, dtype=float)
    s2 = float(np.mean((x - float(mu)) ** 2))
    if s2 <= 0.0:
        raise DegenerateDataError("all observations equal mu: variance statistic is zero")
    return ScaledInvChiSquare(x.size, s2)


def normal_marginal_mu(x: np.ndarray) -> StudentT:
    """Marginal for mu: non-standardised Student t(n-1, xbar, s/sqrt(n))."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise DomainError("need at least two observations")
    s = float(np.std(x, ddof=1))
    if s <= 0.0:
        raise DegenerateDataError("constant data: sample standard deviation is zero")
    return StudentT(x.size - 1, float(np.mean(x)), s / math.sqrt(x.size))


def _group_stats(v: np.ndarray, label: str):
    if v.size < 2:
        raise DomainError(f"group '{label}' needs at least two observations")
    s2 = float(np.var(v, ddof=1))
    if s2 <= 0.0:
        raise DegenerateDataError(f"group '{label}' has zero sample variance")
    return float(np.mean(v)), s2, v.size


def _sample_conditionals(params: Tuple[ParamSpec, ...], data: Dataset, column: str,
                         mu: str, sigma2: str) -> dict:
    """Mean and variance conditionals of one normal sample."""
    x = data.col(column)
    xbar, _, n = _group_stats(x, column)
    # mean((x - mu)^2) = spread + (mean - mu)^2 with spread = mean((x - mean)^2),
    # two non-negative terms.  The exact mean is xbar + shift: shift is the
    # rounding error of xbar, which matters when |xbar| >> sd.
    dev = x - xbar
    shift = float(np.mean(dev))
    spread = float(np.mean(dev * dev)) - shift * shift
    variance = _VarianceEquation(ChiSquare(n), n)
    chi2_n = fixed_draw(variance.gamma_dist)

    def mean_sq_about_mu(d, p):
        off = xbar - p[mu] + shift
        return spread + off * off

    def mean_kernel(lo, hi, redraw):
        def draw(d, p, rng, warnings=None):
            # _LocationEquation(1.0, 0.0, sd).invert(xbar, g).
            theta = xbar - math.sqrt(_pos(p[sigma2], "sigma2") / n) * _normal(rng)
            return theta if lo < theta < hi else redraw(d, p, rng, warnings, xbar)
        return draw

    def variance_kernel(lo, hi, redraw):
        def draw(d, p, rng, warnings=None):
            off = xbar - p[mu] + shift
            q = spread + off * off
            theta = n * q / chi2_n(rng)
            return theta if lo < theta < hi else redraw(d, p, rng, warnings, q)
        return draw

    return {
        mu: _conditional(
            params, mu, FiducialStatistic(f"{column}bar", lambda d, p: xbar),
            lambda d, p: _LocationEquation(1.0, 0.0, math.sqrt(_pos(p[sigma2], "sigma2") / n)),
            mean_kernel),
        sigma2: _conditional(
            params, sigma2,
            FiducialStatistic(f"mean_sq_about_{mu}", mean_sq_about_mu),
            lambda d, p: variance, variance_kernel),
    }


def _normal_samples(name: str, groups: Tuple[Tuple[str, str, str], ...]) -> ModelSpec:
    """Independent normal samples, one per (column, mean label, variance label)
    group, each with its own mean and variance: normal is one group and
    behrens_fisher two."""
    params = (tuple(ParamSpec(mu, -math.inf, math.inf, "location") for _, mu, _ in groups)
              + tuple(ParamSpec(s2, 0.0, math.inf, "scale") for _, _, s2 in groups))

    def build_conditionals(data: Dataset) -> dict:
        conditionals = {}
        for column, mu, s2 in groups:
            conditionals.update(_sample_conditionals(params, data, column, mu, s2))
        return conditionals

    def joint_log_kernel(theta: Mapping[str, float], data: Dataset) -> float:
        total = 0.0
        for column, mu, s2 in groups:
            x = data.col(column)
            v = theta[s2]
            if v <= 0.0:
                return -math.inf
            rss = float(np.sum((x - theta[mu]) ** 2))
            total += -0.5 * (x.size + 2) * math.log(v) - 0.5 * rss / v
        return total

    def chain_inits(data: Dataset, chains: int) -> list:
        base, spreads = {}, {}
        for column, mu, s2 in groups:
            base[mu], base[s2], n = _group_stats(data.col(column), column)
            spreads[mu] = math.sqrt(base[s2] / n)
        return _disperse(base, params, spreads, chains)

    def simulate(theta: Mapping[str, float], n: int, rng: RngStream) -> Dataset:
        columns = {}
        for column, mu, s2 in groups:
            sd = math.sqrt(_pos(theta[s2], s2))
            columns[column] = theta[mu] + sd * rng.gen.standard_normal(n)
        return Dataset(columns)

    return ModelSpec(
        name=name,
        params=params,
        build_conditionals=build_conditionals,
        simulate=simulate,
        chain_inits=chain_inits,
        joint_log_kernel=joint_log_kernel,
    )


# ---------------------------------------------------------------------------
# Pareto model: shape alpha and scale beta
# ---------------------------------------------------------------------------

def pareto_conditional_alpha(beta: float, x: np.ndarray) -> Gamma:
    """alpha given beta: Gamma(n, sum(log x_i) - n log beta)."""
    x = np.asarray(x, dtype=float)
    beta = _pos(beta, "beta")
    if beta > float(np.min(x)):
        raise DomainError(f"beta={beta} exceeds min(x)={np.min(x)}")
    rate = float(np.sum(np.log(x))) - x.size * math.log(beta)
    if rate <= 0.0:
        raise DegenerateDataError("rate sum(log x_i - log beta) is not positive")
    return Gamma(x.size, rate)


def pareto_conditional_beta_log_density(beta: float, alpha: float, x: np.ndarray) -> float:
    """Log density of beta given alpha on its support (0, min(x)]."""
    x = np.asarray(x, dtype=float)
    alpha = _pos(alpha, "alpha")
    m = float(np.min(x))
    if beta <= 0.0 or beta > m:
        return -math.inf
    n = x.size
    return math.log(n * alpha) - math.log(beta) - n * alpha * (math.log(m) - math.log(beta))


def pareto_joint_log_kernel(alpha: float, beta: float, x: np.ndarray) -> float:
    """Log of the joint kernel alpha^(n-1) beta^(n alpha - 1) prod x_i^-(alpha+1)."""
    x = np.asarray(x, dtype=float)
    if alpha <= 0.0 or beta <= 0.0 or beta > float(np.min(x)):
        return -math.inf
    n = x.size
    sum_log = float(np.sum(np.log(x)))
    return (n - 1) * math.log(alpha) + (n * alpha - 1) * math.log(beta) - (alpha + 1) * sum_log


class _ParetoBetaEquation:
    """q = beta * exp(gamma / (n alpha)) with gamma ~ Exponential(1)."""

    gamma_dist = _STD_EXPONENTIAL

    def __init__(self, n_alpha: float):
        self.n_alpha = n_alpha

    def invert(self, q, g):
        return q * math.exp(-g / self.n_alpha)

    def phi(self, g, theta):
        return theta * math.exp(g / self.n_alpha)

    def pivot(self, q, theta):
        return self.n_alpha * math.log(q / theta), math.log(self.n_alpha) - math.log(theta)


def _pareto_build_conditionals(data: Dataset) -> dict:
    x = data.col("x")
    n = x.size
    if n < 2:
        raise DomainError("pareto model needs n >= 2")
    min_x = float(np.min(x))
    if min_x <= 0.0:
        raise DomainError("pareto data must be positive")
    if min_x == float(np.max(x)):
        raise DegenerateDataError("pareto model needs non-constant data")
    sum_log = float(np.sum(np.log(x)))
    # The alpha primary is Gamma(n, 1), drawn as half a chi^2(2n): a law
    # fixed for the dataset, so it is drawn in blocks.
    chi2_2n = ChiSquare(2 * n)
    chi2_2n_draw = fixed_draw(chi2_2n)

    def alpha_offset(p):
        beta = _pos(p["beta"], "beta")
        # Outside the joint's support: the alpha conditional does not exist.
        if beta > min_x:
            raise DomainError(f"beta={beta} exceeds min(x)={min_x}")
        off = n * math.log(beta)
        if sum_log - off <= 0.0:
            raise DomainError(
                f"sum(log x) - n log(beta) = {sum_log - off:.6g} is not positive")
        return off

    def alpha_kernel(lo, hi, redraw):
        def draw(d, p, rng, warnings=None):
            # _RateEquation(chi2_2n, off, 0.5).invert(sum_log, g); the rate
            # sum_log - off is positive once alpha_offset returns.
            off = alpha_offset(p)
            theta = 0.5 * chi2_2n_draw(rng) / (sum_log - off)
            return theta if lo < theta < hi else redraw(d, p, rng, warnings, sum_log)
        return draw

    def beta_kernel(lo, hi, redraw):
        def draw(d, p, rng, warnings=None):
            # _ParetoBetaEquation(n alpha).invert(min_x, g).
            n_alpha = n * _pos(p["alpha"], "alpha")
            theta = min_x * math.exp(-_exponential(rng) / n_alpha)
            return theta if lo < theta < hi else redraw(d, p, rng, warnings, min_x)
        return draw

    return {
        "alpha": _conditional(
            _PARETO_PARAMS, "alpha", FiducialStatistic("sum_log_x", lambda d, p: sum_log),
            lambda d, p: _RateEquation(chi2_2n, alpha_offset(p), 0.5), alpha_kernel),
        "beta": _conditional(
            _PARETO_PARAMS, "beta", FiducialStatistic("min_x", lambda d, p: min_x),
            lambda d, p: _ParetoBetaEquation(n * _pos(p["alpha"], "alpha")), beta_kernel),
    }


def _pareto_chain_inits(data: Dataset, chains: int) -> list:
    x = data.col("x")
    m = float(np.min(x))
    denom = float(np.sum(np.log(x / m)))
    alpha = x.size / denom if denom > 0.0 else 1.0
    inits = []
    for c in range(chains):
        f = _SCALE_FACTORS[c % len(_SCALE_FACTORS)]
        inits.append({"alpha": alpha * f,
                      "beta": m * (0.95 * _SHRINKS[c % len(_SHRINKS)])})
    return inits


def _pareto_simulate(theta: Mapping[str, float], n: int, rng: RngStream) -> Dataset:
    alpha = _pos(theta["alpha"], "alpha")
    beta = _pos(theta["beta"], "beta")
    e = rng.gen.exponential(1.0 / alpha, size=n)
    return Dataset({"x": beta * np.exp(e)})


_PARETO_PARAMS = (
    ParamSpec("alpha", 0.0, math.inf, "scale"),
    ParamSpec("beta", 0.0, math.inf, "scale"),
)


def _pareto_joint(theta: Mapping[str, float], data: Dataset) -> float:
    return pareto_joint_log_kernel(theta["alpha"], theta["beta"], data.col("x"))


# ---------------------------------------------------------------------------
# Quadratic regression model
# ---------------------------------------------------------------------------

_QUADREG_COEFS = ("beta0", "beta1", "beta2")


def _quadreg_normal_equation(j: int, x: np.ndarray, y: np.ndarray):
    """The normal equation of beta_j, sum(x^j y) = sum_k beta_k sum(x^(j+k)).

    Returns sum(x^j y), sum(x^2j) and, for the two other coefficients k,
    the pairs (label, sum(x^(j+k))).
    """
    others = tuple((label, float(np.sum(x ** (j + k))))
                   for k, label in enumerate(_QUADREG_COEFS) if k != j)
    return float(np.sum(x ** j * y)), float(np.sum(x ** (2 * j))), others


def _quadreg_rss(x: np.ndarray, y: np.ndarray, b0: float, b1: float, b2: float) -> float:
    r = y - b0 - b1 * x - b2 * x ** 2
    return float(np.sum(r ** 2))


def _quadreg_rss_form(x: np.ndarray, y: np.ndarray) -> Callable[[float, float, float], float]:
    """RSS(b) in O(1): rss_min + ||R (b - bhat) - w||^2.

    X = [1, x, x^2] = QR and bhat is the least-squares solution.  w = Q' r
    for the residual r = y - X bhat carries the rounding error of bhat, and
    rss_min = ||r - Q w||^2; then y - X b = (r - Q w) - Q (R (b - bhat) - w)
    splits into two orthogonal parts, so the two terms are non-negative and
    nothing cancels when |y| >> sd.  QR, not a Cholesky factor of X'X (which
    squares the condition number and fails on offset designs), kept designs
    with |mean(x)| up to 8.5 sd(x) within 3e-14 of the exact RSS; past that
    the error grows with the condition number of X, as the O(n) sum's does.
    """
    from scipy.linalg import solve_triangular

    q, r = np.linalg.qr(np.column_stack([np.ones_like(x), x, x * x]))
    bhat = solve_triangular(r, q.T @ y)
    resid = y - bhat[0] - bhat[1] * x - bhat[2] * x * x
    w = q.T @ resid
    rest = resid - q @ w
    rss_min = float(rest @ rest)
    (r00, r01, r02), (_, r11, r12), (_, _, r22) = r.tolist()
    h0, h1, h2 = bhat.tolist()
    w0, w1, w2 = w.tolist()

    def rss(b0, b1, b2):
        d0, d1, d2 = b0 - h0, b1 - h1, b2 - h2
        t0 = r00 * d0 + r01 * d1 + r02 * d2 - w0
        t1 = r11 * d1 + r12 * d2 - w1
        t2 = r22 * d2 - w2
        return rss_min + (t0 * t0 + t1 * t1 + t2 * t2)

    return rss


def quadreg_conditionals(b0: float, b1: float, b2: float, sigma2: float,
                         x: np.ndarray, y: np.ndarray) -> dict:
    """The four printed full conditionals of the quadratic regression model.

    Returns {'beta0': Normal, 'beta1': Normal, 'beta2': Normal,
    'sigma2': ScaledInvChiSquare}; each conditions on the supplied values
    of the other three parameters.  A coefficient's Normal comes from its
    normal equation; sigma2's law is ScaledInvChiSquare(n, RSS / n).
    """
    coefs = {"beta0": b0, "beta1": b1, "beta2": b2}
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma2 = _pos(sigma2, "sigma2")
    out = {}
    for j, label in enumerate(_QUADREG_COEFS):
        stat, scale, ((la, ca), (lb, cb)) = _quadreg_normal_equation(j, x, y)
        if scale <= 0.0:
            raise DegenerateDataError(f"design is degenerate: sum(x^{2 * j}) is zero")
        out[label] = Normal((stat - coefs[la] * ca - coefs[lb] * cb) / scale, sigma2 / scale)
    rss = _quadreg_rss(x, y, b0, b1, b2)
    if rss <= 0.0:
        raise DegenerateDataError("residual sum of squares is zero")
    out["sigma2"] = ScaledInvChiSquare(x.size, rss / x.size)
    return out


def quadreg_joint_log_kernel(b0: float, b1: float, b2: float, sigma2: float,
                             x: np.ndarray, y: np.ndarray) -> float:
    """Log kernel sigma^-(n+2) exp(-RSS / (2 sigma^2))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if sigma2 <= 0.0:
        return -math.inf
    rss = _quadreg_rss(x, y, b0, b1, b2)
    return -0.5 * (x.size + 2) * math.log(sigma2) - 0.5 * rss / sigma2


def _quadreg_coef_equation(statistic_coef: float, mean_offset: float,
                           sigma2: float) -> _LocationEquation:
    # Statistic = coef * theta + offset + sqrt(sigma2 * coef) * gamma.
    sd = math.sqrt(_pos(sigma2, "sigma2") * statistic_coef)
    return _LocationEquation(statistic_coef, mean_offset, sd)


def _quadreg_build_conditionals(data: Dataset) -> dict:
    x = data.col("x")
    y = data.col("y")
    if x.size != y.size:
        raise DomainError("quadreg needs x and y of equal length")
    if x.size < 2:
        raise DomainError("quadreg needs n >= 2")
    # [1, x, x^2] has full column rank exactly when x takes three values.
    if np.unique(x).size < 3:
        raise DegenerateDataError("design is degenerate: x takes fewer than three distinct values")
    rss_at = _quadreg_rss_form(x, y)
    variance = _VarianceEquation(ChiSquare(x.size), 1)
    chi2_n = fixed_draw(variance.gamma_dist)

    def rss_stat(d, p):
        rss = rss_at(p["beta0"], p["beta1"], p["beta2"])
        if rss <= 0.0:
            raise DegenerateDataError("residual sum of squares is zero")
        return rss

    def coef(j, stat_name):
        stat, scale, ((la, ca), (lb, cb)) = _quadreg_normal_equation(j, x, y)

        def kernel(lo, hi, redraw):
            def draw(d, p, rng, warnings=None):
                # _quadreg_coef_equation(scale, off, sigma2).invert(stat, g).
                off = p[la] * ca + p[lb] * cb
                sd = math.sqrt(_pos(p["sigma2"], "sigma2") * scale)
                theta = (stat - off - sd * _normal(rng)) / scale
                return theta if lo < theta < hi else redraw(d, p, rng, warnings, stat)
            return draw

        return _conditional(
            _QUADREG_PARAMS, _QUADREG_COEFS[j], FiducialStatistic(stat_name, lambda d, p: stat),
            lambda d, p: _quadreg_coef_equation(scale, p[la] * ca + p[lb] * cb, p["sigma2"]),
            kernel)

    def variance_kernel(lo, hi, redraw):
        def draw(d, p, rng, warnings=None):
            # variance.invert(q, g) is 1 * q / g.
            q = rss_stat(d, p)
            theta = q / chi2_n(rng)
            return theta if lo < theta < hi else redraw(d, p, rng, warnings, q)
        return draw

    return {
        "beta0": coef(0, "sum_y"),
        "beta1": coef(1, "sum_xy"),
        "beta2": coef(2, "sum_x2y"),
        "sigma2": _conditional(_QUADREG_PARAMS, "sigma2", FiducialStatistic("rss", rss_stat),
                               lambda d, p: variance, variance_kernel),
    }


def _quadreg_chain_inits(data: Dataset, chains: int) -> list:
    x = data.col("x")
    y = data.col("y")
    design = np.column_stack([np.ones_like(x), x, x ** 2])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    rss = _quadreg_rss(x, y, *coef)
    s2 = rss / x.size
    if s2 <= 0.0:
        s2 = max(float(np.var(y)), 1e-8)
    base = {"beta0": float(coef[0]), "beta1": float(coef[1]), "beta2": float(coef[2]),
            "sigma2": float(s2)}
    spreads = {label: math.sqrt(s2 / float(np.sum(x ** (2 * j))))
               for j, label in enumerate(_QUADREG_COEFS)}
    return _disperse(base, _QUADREG_PARAMS, spreads, chains)


def _quadreg_simulate(theta: Mapping[str, float], n: int, rng: RngStream) -> Dataset:
    sd = math.sqrt(_pos(theta["sigma2"], "sigma2"))
    x = rng.gen.standard_normal(n)
    y = theta["beta0"] + theta["beta1"] * x + theta["beta2"] * x ** 2 + sd * rng.gen.standard_normal(n)
    return Dataset({"x": x, "y": y})


_QUADREG_PARAMS = (
    ParamSpec("beta0", -math.inf, math.inf, "location"),
    ParamSpec("beta1", -math.inf, math.inf, "location"),
    ParamSpec("beta2", -math.inf, math.inf, "location"),
    ParamSpec("sigma2", 0.0, math.inf, "scale"),
)


def _quadreg_joint(theta: Mapping[str, float], data: Dataset) -> float:
    return quadreg_joint_log_kernel(theta["beta0"], theta["beta1"], theta["beta2"],
                                    theta["sigma2"], data.col("x"), data.col("y"))


# ---------------------------------------------------------------------------
# Gamma model: shape alpha and rate beta
# ---------------------------------------------------------------------------

# Elementary bounds, valid for every x > 0:
#   log x - 1/x < psi(x) < log x - 1/(2x),   1/x + 1/(2x^2) < psi'(x) < 1/x + 1/x^2.
# _shape_bounds applies them at x = a + 1 and carries them to a by the
# recurrences psi(a) = psi(a + 1) - 1/a and psi'(a) = psi'(a + 1) + 1/a^2, so
# that the bounds of psi stay within 1/2 of each other as a -> 0.  In floats
# they hold to rounding (4e-16 relative on a in [1e-12, 1e12]).

def _shape_bounds(a, b):
    """Lower and upper bounds of offset(a), then of slope(a), without a
    special function: offset is psi(a) for the gamma shape (b None) and
    psi(a) - psi(a + b) for a beta shape (_shape_parts)."""
    ia = 1.0 / a
    ix = 1.0 / (a + 1.0)
    psi = math.log(a + 1.0) - ia
    tri = ia * ia + ix
    if b is None:
        return psi - ix, psi - 0.5 * ix, tri + 0.5 * ix * ix, tri + ix * ix
    off_b_lo, off_b_hi, s_b_lo, s_b_hi = _shape_bounds(a + b, None)
    return (psi - ix - off_b_hi, psi - 0.5 * ix - off_b_lo,
            max(tri + 0.5 * ix * ix - s_b_hi, 0.0), tri + ix * ix - s_b_lo)


# The interval of shapes the solvers search; beyond it psi' over- or
# underflows.
_SHAPE_MIN, _SHAPE_MAX = 1e-280, 1e280
_LOG_SHAPE_MIN, _LOG_SHAPE_MAX = math.log(_SHAPE_MIN), math.log(_SHAPE_MAX)


def _shape_solve(c: float, g: float, n: int, b: Optional[float], start: Optional[float],
                 scratch) -> float:
    """Solve offset(a) + g * sqrt(slope(a) / n) = c for a > 0 (_shape_fdf):
    the gamma shape when b is None, else a beta shape with other shape b,
    whose special functions go through the buffers in scratch.

    Inside the certificate the caller passes a start computed from
    (c, g, n, b) alone.  The map is then increasing with one root: the first
    value fixes one end of the bracket at the start, the elementary bounds
    of _shape_bounds certify the other without a special function, and
    Newton in log a (solve_newton on _shape_fdf) runs from the start until
    the quadratic-convergence bound certifies its last step.  Outside the
    certificate (start None) _uncertified_root solves it.  A solve that
    fails raises StructuralError.
    """
    try:
        if start is None:
            return _uncertified_root(lambda u: _shape_fdf(u, c, g, n, b, scratch), g * g >= n)
        u = math.log(start)
        fu, du = _shape_fdf(u, c, g, n, b, scratch)
        if not math.isfinite(fu):
            raise EvaluationError(f"non-finite target function value at a={math.exp(u)}")
        if fu == 0.0:
            return math.exp(u)
        lo = hi = u
        width = max(2.0 * abs(fu) / du if 0.0 < du < math.inf else 0.0, 0.25)
        g_up = g >= 0.0
        while True:
            # f(lo) <= upper bound of the map < 0 < lower bound <= f(hi).
            if fu < 0.0:
                hi = u + width
                if hi > _LOG_SHAPE_MAX:
                    raise StructuralError("no upper bracket: target function stays negative")
                off_lo, _, s_lo, s_hi = _shape_bounds(math.exp(hi), b)
                if off_lo + g * math.sqrt((s_lo if g_up else s_hi) / n) > c:
                    break
            else:
                lo = u - width
                if lo < _LOG_SHAPE_MIN:
                    raise StructuralError("no lower bracket: target function stays positive")
                _, off_hi, s_lo, s_hi = _shape_bounds(math.exp(lo), b)
                if off_hi + g * math.sqrt((s_hi if g_up else s_lo) / n) < c:
                    break
            width *= 2.0
        return math.exp(solve_newton(_shape_fdf, lo, hi, u, fu, du, 1e-13, quadratic=True,
                                     args=(c, g, n, b, scratch)))
    except EvaluationError as exc:
        raise StructuralError(f"root isolation failed: {exc}") from exc


def _uncertified_root(in_log, rises_at_zero: bool) -> float:
    """The shape solve outside the certificate, by _expanding_root from a
    start that does not depend on the chain state.

    Both shape maps are positive for large a (a beta map when q < 0).
    When gamma >= sqrt n the map also tends to +inf as a -> 0 and has at
    most one minimum; the start is then the first of 1, 4, 16, ... at which
    the map does not decrease, at or above the minimum, so the expansion
    returns the larger root (the branch continuous with the certified
    region) or raises StructuralError.  Otherwise (a beta shape with
    sqrt(n b) <= gamma < sqrt n) the map rises from -inf to one maximum and
    the start is 1.
    """

    def f(a):
        fa, da = in_log(math.log(a))
        return fa, da / a

    a = 1.0
    if rises_at_zero:
        while not f(a)[1] >= 0.0:
            a *= 4.0
            if a > _SHAPE_MAX:
                raise StructuralError("the map decreases up to the float ceiling: no root")
    return _expanding_root(f, a, one_minimum=rises_at_zero)


# Orders of the Hurwitz zeta for psi' and psi'' (psi''(a) = -2 zeta(3, a)),
# for one argument and for the arguments [a, a + b, a, a + b].
_ZETA_ORDERS = np.array([2.0, 3.0])
_ZETA_ORDERS_PAIR = np.array([2.0, 2.0, 3.0, 3.0])
_EULER_GAMMA = 0.5772156649015329


def _shape_parts(a, b, scratch):
    """(offset(a), slope(a), d slope / da) of a shape map: offset is psi(a)
    for the gamma shape (b None) and psi(a) - psi(a + b) for a beta shape,
    whose zeta values go through scratch = (arguments, out), two 4-buffers;
    slope = offset'.  It calls the Hurwitz zeta ufunc that
    scipy.special.zeta wraps, so the values are the same bits."""
    if b is None:
        z2, z3 = _sp._ufuncs._zeta(_ZETA_ORDERS, a).tolist()
        return float(_sp.psi(a)), z2, -2.0 * z3
    ab = a + b
    buf, zeta_out = scratch
    buf[0] = buf[2] = a
    buf[1] = buf[3] = ab
    z2_a, z2_ab, z3_a, z3_ab = _sp._ufuncs._zeta(_ZETA_ORDERS_PAIR, buf, zeta_out).tolist()
    return float(_sp.psi(a)) - float(_sp.psi(ab)), z2_a - z2_ab, -2.0 * (z3_a - z3_ab)


def _shape_fdf(u, c, g, n, b, scratch):
    """(f, df / du) of the shape map f = offset(a) + g sqrt(slope(a) / n) - c
    at a = exp(u), from one _shape_parts call: offset' = slope.  A
    non-positive slope raises EvaluationError."""
    a = math.exp(u)
    off, s, ds = _shape_parts(a, b, scratch)
    if not s > 0.0:
        raise EvaluationError(f"non-positive variance term at a={a}")
    r = math.sqrt(s / n)
    return off + g * r - c, a * (s + 0.5 * g * ds / (n * r))


def _clt_pivot(q, n, parts):
    """(g, log|dg/da|) of g(a) = (q - n offset(a)) / sqrt(n slope(a)), for
    parts = (offset(a), slope(a), d slope / da): dg/da = -(R + g slope' /
    (2 slope)) with R = sqrt(n slope)."""
    off, s, ds = parts
    root = math.sqrt(n * s)
    g = (q - n * off) / root
    return g, _log_abs(root + 0.5 * g * ds / s)


class _GammaShapeEquation:
    """The CLT equation for the shape given the rate beta:
    sum(log x) = n (psi(a) - log beta) + gamma * sqrt(n psi'(a)), with gamma
    standard normal truncated to [-5, 5].  For gamma < sqrt n (the
    certificate) the map is increasing in a and has exactly one root; the
    solve starts from a point computed from (q, gamma, beta) alone, so a
    draw does not depend on the chain state.  pivot(q, a) is the CLT
    equation solved for gamma.
    """

    gamma_dist = _STD_TRUNCNORM

    def __init__(self, n: int, beta: float):
        self.n, self.log_beta = n, math.log(beta)

    def invert(self, q, g):
        n = self.n
        c = q / n + self.log_beta
        if not (g < 0.0 or g * g < n):
            return _shape_solve(c, g, n, None, None, None)
        # Two elementary inverse-digamma steps (Minka 2000: exp(y) + 1/2, or
        # -1/(y + Euler's gamma) below y = -2.22), the second with the gamma
        # term at the first, then one Newton step in log a on the shape map
        # with the elementary estimates of psi, psi' and psi'' (the
        # recurrence to a + 2 and the asymptotic series of psi(z + 1/2) at
        # z = a + 3/2, to terms in 1/z^2: psi within 1.2e-3 and psi' within
        # 2e-4 relative on [1e-12, 1e12]); the step moves log a by at most 1.
        a = math.exp(min(c, 600.0)) + 0.5 if c >= -2.22 else -1.0 / (c + _EULER_GAMMA)
        if g:
            ia, ia1, iz = 1.0 / a, 1.0 / (a + 1.0), 1.0 / (a + 1.5)
            y = c - g * math.sqrt((ia * ia + ia1 * ia1 + iz - iz * (iz * iz) / 12.0) / n)
            a = math.exp(min(y, 600.0)) + 0.5 if y >= -2.22 else -1.0 / (y + _EULER_GAMMA)
        a = a if _SHAPE_MIN <= a <= _SHAPE_MAX else _SHAPE_MAX if a > _SHAPE_MAX else _SHAPE_MIN
        ia, ia1, iz = 1.0 / a, 1.0 / (a + 1.0), 1.0 / (a + 1.5)
        iz2 = iz * iz
        # psi' is positive here, so the step needs only a positive derivative.
        s = ia * ia + ia1 * ia1 + iz - iz * iz2 / 12.0
        r = math.sqrt(s / n)
        d = a * (s + 0.5 * g * (-2.0 * (ia * ia * ia + ia1 * ia1 * ia1) - iz2
                                + 0.25 * iz2 * iz2) / (n * r))
        if 0.0 < d < math.inf:
            off = -math.log(iz) + iz2 / 24.0 - ia - ia1
            a *= math.exp(max(-1.0, min(1.0, (c - off - g * r) / d)))
        return _shape_solve(c, g, n, None, a, None)

    def phi(self, g, a):
        return self.n * (digamma(a) - self.log_beta) + g * math.sqrt(self.n * trigamma(a))

    def pivot(self, q, a):
        return _clt_pivot(q + self.n * self.log_beta, self.n, _shape_parts(a, None, None))


def _gamma_build_conditionals(data: Dataset) -> dict:
    x = data.col("x")
    n = x.size
    if n < 2:
        raise DomainError("gamma model needs n >= 2")
    if np.any(x <= 0.0):
        raise DomainError("gamma data must be positive")
    if float(np.min(x)) == float(np.max(x)):
        raise DegenerateDataError("gamma model needs non-constant data")
    sum_x = float(np.sum(x))
    sum_log = float(np.sum(np.log(x)))

    def alpha_equation(d, p):
        return _GammaShapeEquation(n, p["beta"])

    def rate_kernel(lo, hi, redraw):
        def draw(d, p, rng, warnings=None):
            # _RateEquation(Gamma(n alpha, 1.0), 0.0).invert(sum_x, g) is
            # 1.0 * g / (sum_x - 0.0), and sum_x > 0.
            theta = unit_rate_gamma(n * _pos(p["alpha"], "alpha"), rng) / sum_x
            return theta if lo < theta < hi else redraw(d, p, rng, warnings, sum_x)
        return draw

    return {
        "alpha": _conditional(
            _GAMMA_PARAMS, "alpha", FiducialStatistic("sum_log_x", lambda d, p: sum_log),
            alpha_equation, _equation_kernel(sum_log, alpha_equation), check_at_start=True),
        "beta": _conditional(
            _GAMMA_PARAMS, "beta", FiducialStatistic("sum_x", lambda d, p: sum_x),
            lambda d, p: _RateEquation(Gamma(n * _pos(p["alpha"], "alpha"), 1.0), 0.0),
            rate_kernel),
    }


def _gamma_chain_inits(data: Dataset, chains: int) -> list:
    x = data.col("x")
    m = float(np.mean(x))
    v = max(float(np.var(x, ddof=1)), 1e-12)
    base = {"alpha": max(m * m / v, 1e-3), "beta": max(m / v, 1e-3)}
    return _disperse(base, _GAMMA_PARAMS, {}, chains)


def _gamma_simulate(theta: Mapping[str, float], n: int, rng: RngStream) -> Dataset:
    alpha = _pos(theta["alpha"], "alpha")
    beta = _pos(theta["beta"], "beta")
    return Dataset({"x": rng.gen.gamma(alpha, 1.0 / beta, size=n)})


_GAMMA_PARAMS = (
    ParamSpec("alpha", 0.0, math.inf, "scale"),
    ParamSpec("beta", 0.0, math.inf, "scale"),
)


# ---------------------------------------------------------------------------
# Beta model: shapes alpha and beta
# ---------------------------------------------------------------------------

class _BetaShapeEquation:
    """The CLT equation for one beta shape given the other shape b:
    q = n (psi(a) - psi(a + b)) + gamma * sqrt(n (psi'(a) - psi'(a + b))),
    with gamma standard normal truncated to [-5, 5].  For
    gamma < sqrt(n min(1, b)) (the certificate) the map is increasing in a
    and has exactly one root, found from a start computed from
    (q, gamma, b) alone.  pivot(q, a) is the CLT equation solved for gamma.
    """

    gamma_dist = _STD_TRUNCNORM

    def __init__(self, n: int, b: float, scratch):
        self.n, self.b, self.scratch = n, b, scratch

    def invert(self, q, g):
        n, b = self.n, self.b
        c = q / n
        if not (g < 0.0 or g * g < n * min(1.0, b)):
            return _shape_solve(c, g, n, b, None, self.scratch)
        if not c < 0.0:
            # The map increases towards -c <= 0: no root.
            raise StructuralError("statistic not negative: no shape solves the equation",
                                  statistic_value=q)
        # psi(a) - psi(a + b) is near log((a - 1/2) / (a + b - 1/2)) for
        # large a and near psi(1) - 1/a - psi(b) for small a: start at the
        # inverse of the first, or of the second where the first is below
        # 1, then two Newton steps in log a on the shape map with the
        # elementary estimates of psi, psi' and psi'' at a and a + b (as in
        # _GammaShapeEquation.invert); a step moves log a by at most 1 and
        # none is taken once the slope or the derivative is not positive.
        a = 0.5 + b / math.expm1(min(-c, 700.0))
        if a < 1.0:
            iz = 1.0 / (b + 1.5)
            small = c + _EULER_GAMMA + (-math.log(iz) + iz * iz / 24.0 - 1.0 / b - 1.0 / (b + 1.0))
            if small < 0.0:
                a = min(a, -1.0 / small)
        a = a if _SHAPE_MIN <= a <= _SHAPE_MAX else _SHAPE_MAX if a > _SHAPE_MAX else _SHAPE_MIN
        for _ in (0, 1):
            ia, ia1, iz = 1.0 / a, 1.0 / (a + 1.0), 1.0 / (a + 1.5)
            ib, ib1, izb = 1.0 / (a + b), 1.0 / (a + b + 1.0), 1.0 / (a + b + 1.5)
            iz2, izb2 = iz * iz, izb * izb
            s = ((ia * ia + ia1 * ia1 + iz - iz * iz2 / 12.0)
                 - (ib * ib + ib1 * ib1 + izb - izb * izb2 / 12.0))
            if not s > 0.0:
                break
            r = math.sqrt(s / n)
            ds = ((-2.0 * (ia * ia * ia + ia1 * ia1 * ia1) - iz2 + 0.25 * iz2 * iz2)
                  - (-2.0 * (ib * ib * ib + ib1 * ib1 * ib1) - izb2 + 0.25 * izb2 * izb2))
            d = a * (s + 0.5 * g * ds / (n * r))
            if not 0.0 < d < math.inf:
                break
            off = ((-math.log(iz) + iz2 / 24.0 - ia - ia1)
                   - (-math.log(izb) + izb2 / 24.0 - ib - ib1))
            a *= math.exp(max(-1.0, min(1.0, (c - off - g * r) / d)))
        return _shape_solve(c, g, n, b, a, self.scratch)

    def phi(self, g, a):
        n, b = self.n, self.b
        return (n * (digamma(a) - digamma(a + b))
                + math.sqrt(n) * math.sqrt(trigamma(a) - trigamma(a + b)) * g)

    def pivot(self, q, a):
        return _clt_pivot(q, self.n, _shape_parts(a, self.b, self.scratch))


def _beta_build_conditionals(data: Dataset) -> dict:
    x = data.col("x")
    n = x.size
    if n < 2:
        raise DomainError("beta model needs n >= 2")
    if np.any((x <= 0.0) | (x >= 1.0)):
        raise DomainError("beta data must lie strictly inside (0, 1)")
    if float(np.min(x)) == float(np.max(x)):
        raise DegenerateDataError("beta model needs non-constant data")
    sum_log = float(np.sum(np.log(x)))
    sum_log1m = float(np.sum(np.log1p(-x)))
    # Scratch buffers for the solver iterations of every draw of these two
    # conditionals; a run makes its draws one at a time.
    scratch = (np.empty(4), np.empty(4))

    def shape(label, stat_name, q, other):
        def equation_for(d, p):
            return _BetaShapeEquation(n, p[other], scratch)

        return _conditional(_BETA_PARAMS, label, FiducialStatistic(stat_name, lambda d, p: q),
                            equation_for, _equation_kernel(q, equation_for), check_at_start=True)

    return {
        "alpha": shape("alpha", "sum_log_x", sum_log, "beta"),
        "beta": shape("beta", "sum_log_1mx", sum_log1m, "alpha"),
    }


def _beta_chain_inits(data: Dataset, chains: int) -> list:
    x = data.col("x")
    m = float(np.mean(x))
    v = max(float(np.var(x, ddof=1)), 1e-12)
    common = max(m * (1.0 - m) / v - 1.0, 1e-2)
    base = {"alpha": max(m * common, 1e-2), "beta": max((1.0 - m) * common, 1e-2)}
    return _disperse(base, _BETA_PARAMS, {}, chains)


def _beta_simulate(theta: Mapping[str, float], n: int, rng: RngStream) -> Dataset:
    alpha = _pos(theta["alpha"], "alpha")
    beta = _pos(theta["beta"], "beta")
    return Dataset({"x": rng.gen.beta(alpha, beta, size=n)})


_BETA_PARAMS = (
    ParamSpec("alpha", 0.0, math.inf, "scale"),
    ParamSpec("beta", 0.0, math.inf, "scale"),
)


# ---------------------------------------------------------------------------
# Behrens-Fisher: the mean difference of two independent normal samples
# ---------------------------------------------------------------------------

def behrens_fisher_direct_draws(x: np.ndarray, y: np.ndarray, size: int, rng: RngStream) -> np.ndarray:
    """Vectorized independent draws of mu_x - mu_y by the direct construction.

    xbar - ybar + B * sqrt(s_x^2/n_x + s_y^2/n_y), with B following the
    two-degrees-of-freedom angle-parameterized distribution, decomposes
    into independent Student t draws scaled by s/sqrt(n) per group.  It is
    the independent oracle for the four-parameter sampler.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mx, sx2, nx = _group_stats(x, "x")
    my, sy2, ny = _group_stats(y, "y")
    tx = rng.gen.standard_t(nx - 1, size=size)
    ty = rng.gen.standard_t(ny - 1, size=size)
    return mx - my + math.sqrt(sx2 / nx) * tx - math.sqrt(sy2 / ny) * ty


# ---------------------------------------------------------------------------
# Bivariate normal model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _BvnSuffStats:
    """Raw data sums: centered second moments in O(1) for any mean pair."""

    n: int
    sx: float
    sy: float
    sxx: float
    syy: float
    sxy: float

    @classmethod
    def from_arrays(cls, x: np.ndarray, y: np.ndarray) -> "_BvnSuffStats":
        return cls(x.size, float(np.sum(x)), float(np.sum(y)),
                   float(np.dot(x, x)), float(np.dot(y, y)), float(np.dot(x, y)))

    def centered(self, mu_x: float, mu_y: float):
        cxx = self.sxx - 2.0 * mu_x * self.sx + self.n * mu_x * mu_x
        cyy = self.syy - 2.0 * mu_y * self.sy + self.n * mu_y * mu_y
        cxy = self.sxy - mu_x * self.sy - mu_y * self.sx + self.n * mu_x * mu_y
        return cxx, cyy, cxy


def _bvn_loglik_core(s: _BvnSuffStats, mu_x, mu_y, sigma_x2, sigma_y2, rho) -> float:
    if sigma_x2 <= 0.0 or sigma_y2 <= 0.0 or not abs(rho) < 1.0:
        return -math.inf
    cxx, cyy, cxy = s.centered(mu_x, mu_y)
    one_m = 1.0 - rho * rho
    quad = cxx / sigma_x2 - 2.0 * rho * cxy / math.sqrt(sigma_x2 * sigma_y2) + cyy / sigma_y2
    return (-0.5 * s.n * (math.log(sigma_x2) + math.log(sigma_y2) + math.log(one_m))
            - 0.5 * quad / one_m)


# The interval the rho statistic is clipped to.
_RHO_MLE_BRACKET = Bracket(-1.0 + 1e-9, 1.0 - 1e-9)


def bvn_log_likelihood(mu_x: float, mu_y: float, sigma_x2: float, sigma_y2: float, rho: float,
                       x: np.ndarray, y: np.ndarray) -> float:
    """Bivariate normal log likelihood (additive constant dropped)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _bvn_loglik_core(_BvnSuffStats.from_arrays(x, y), mu_x, mu_y,
                            sigma_x2, sigma_y2, rho)


class _BvnSigmaEquation:
    """The statistic is the sigma estimate (standard deviation scale):
    q = sigma (1 + c0 gamma) with gamma standard normal truncated to
    [-5, 5]; gamma values with 1 + c0 gamma <= floor are excluded from the
    primary variable's domain (extra truncation).
    """

    gamma_dist = _STD_TRUNCNORM
    floor = 1e-6

    def __init__(self, c0: float):
        self.c0 = c0

    def invert(self, q, g):
        bracketed = 1.0 + g * self.c0
        if bracketed <= self.floor:
            raise StructuralError("bracketed term non-positive", gamma=g, factor=self.c0)
        s = q / bracketed
        return s * s

    def phi(self, g, s2):
        return math.sqrt(s2) * (1.0 + g * self.c0)

    def pivot(self, q, s2):
        return ((q / math.sqrt(s2) - 1.0) / self.c0,
                _log_abs(0.5 * q / self.c0) - 1.5 * math.log(s2))

    @property
    def gamma_domain(self):
        c0 = self.c0
        g_lo = max(-_STANDARD_TRUNC, (self.floor - 1.0) / c0) if c0 > 0.0 else -_STANDARD_TRUNC
        return (g_lo, _STANDARD_TRUNC)


def _rho_fdf(r, q, g, sqrt_n, k):
    """(phi(g, r) - q, d phi / dr) of the correlation equation, k = g / sqrt_n."""
    r2 = 1.0 + r * r
    root = math.sqrt(r2)
    return (r + (1.0 - r * r) * g / (sqrt_n * root) - q,
            1.0 - k * r * (2.0 + r2) / (r2 * root))


class _BvnRhoEquation:
    """q = rho + (1 - rho^2) gamma / (sqrt(n) sqrt(1 + rho^2)), solved for rho.

    d phi / d rho = 1 - (gamma / sqrt(n)) rho (3 + rho^2) / (1 + rho^2)^(3/2),
    and the factor rho (3 + rho^2) / (1 + rho^2)^(3/2) is increasing on
    [-1, 1] with maximum sqrt(2), so phi has at most one interior extremum
    and phi(gamma, -1) = -1, phi(gamma, 1) = 1.  For |gamma| < sqrt(n / 2)
    phi is strictly increasing.  For gamma > sqrt(n / 2) it rises from -1
    to a maximum above 1 and falls to 1; for gamma < -sqrt(n / 2) it falls
    to a minimum below -1 and rises to 1.  Either way a statistic q in
    (-1, 1) is crossed exactly once, with phi below q before the crossing
    and above it after, so the sign-based bracket of the safeguarded Newton
    iteration stays valid where phi is not monotone, and that one solve
    serves every gamma.  Equivalently, the pivot
    g(r) = (q - r) sqrt(n) sqrt(1 + r^2) / (1 - r^2) is a strictly
    decreasing bijection from (-1, 1) onto the real line, and the rho
    conditional needs no injectivity probe at the start of a chain.
    """

    gamma_dist = _STD_TRUNCNORM
    bracket = Bracket(-1.0 + 1e-12, 1.0 - 1e-12)

    def __init__(self, n: int):
        self.sqrt_n = math.sqrt(n)

    def phi(self, g, r):
        return r + (1.0 - r * r) * g / (self.sqrt_n * math.sqrt(1.0 + r * r))

    def invert(self, q, g):
        lo, hi = self.bracket.lo, self.bracket.hi
        sqrt_n = self.sqrt_n
        # For |g| <= 100 sqrt(n), phi(g, lo) and phi(g, hi) lie within
        # (1 - lo^2) |g| / (sqrt(n) sqrt(1 + lo^2)) <= 1.5e-10 of lo and hi,
        # and a q within the rho statistic's clip is 1e-9 - 1e-12 inside
        # them: the sign check cannot fail.
        if not (_RHO_MLE_BRACKET.lo <= q <= _RHO_MLE_BRACKET.hi and abs(g) <= 100.0 * sqrt_n):
            f_lo, f_hi = self.phi(g, lo) - q, self.phi(g, hi) - q
            if not f_lo < 0.0 < f_hi:
                raise StructuralError(
                    f"no correlation solves the equation: no sign change on [{lo}, {hi}]: "
                    f"phi - q = {f_lo:.6g} and {f_hi:.6g}", statistic_value=q, gamma=g)
        k = g / sqrt_n
        r = min(max(q, lo), hi)
        fr, dr = _rho_fdf(r, q, g, sqrt_n, k)
        return solve_newton(_rho_fdf, lo, hi, r, fr, dr, tol=1e-13, quadratic=True,
                            args=(q, g, sqrt_n, k))

    def pivot(self, q, r):
        u, v2, w = q - r, 1.0 + r * r, 1.0 - r * r
        v = math.sqrt(v2)
        # d/dr [u v / w] = (u r (3 + r^2) - w v^2) / (v w^2).
        return (self.sqrt_n * u * v / w,
                _log_abs(self.sqrt_n * (u * r * (2.0 + v2) - w * v2) / (v * w * w)))


def _bvn_build_conditionals(data: Dataset) -> dict:
    x = data.col("x")
    y = data.col("y")
    n = x.size
    if y.size != n:
        raise DomainError("bivariate_normal needs x and y of equal length")
    if n < 3:
        raise DomainError("bivariate_normal needs n >= 3")
    if float(np.std(x)) <= 0.0 or float(np.std(y)) <= 0.0:
        raise DegenerateDataError("bivariate_normal needs non-constant columns")
    stats = _BvnSuffStats.from_arrays(x, y)
    sx, sy, sxx, syy, sxy = stats.sx, stats.sy, stats.sxx, stats.syy, stats.sxy
    neg_n = -float(n)
    rho_equation = _BvnRhoEquation(n)
    rho_invert = rho_equation.invert
    floor = _BvnSigmaEquation.floor

    # The statistics read the data sums and centre them at the state's means
    # inline; the operand order of each centred sum is part of its bits.
    def mean(label, stat_name, own_sum, other_sum, var, other_var, other_mu):
        def statistic(d, p):
            return own_sum - p["rho"] * math.sqrt(p[var] / p[other_var]) * other_sum

        def equation_for(d, p):
            # Statistic = n mu + off + sd * gamma (the sum adjusted by the other mean).
            rho, v = p["rho"], p[var]
            return _LocationEquation(n, -n * rho * math.sqrt(v / p[other_var]) * p[other_mu],
                                     math.sqrt(n * v * (1.0 - rho * rho)))

        def kernel(lo, hi, redraw):
            def draw(d, p, rng, warnings=None):
                # The statistic, then equation_for(d, p).invert(q, g); the
                # square root both take is computed once.
                rho, v = p["rho"], p[var]
                ratio = math.sqrt(v / p[other_var])
                q = own_sum - rho * ratio * other_sum
                off = -n * rho * ratio * p[other_mu]
                sd = math.sqrt(n * v * (1.0 - rho * rho))
                theta = (q - off - sd * _normal(rng)) / n
                return theta if lo < theta < hi else redraw(d, p, rng, warnings, q)
            return draw

        return _conditional(_BVN_PARAMS, label, FiducialStatistic(stat_name, statistic),
                            equation_for, kernel)

    def sigma(label, stat_name, column, mu, other_mu, own_sum, other_sum, own_sq, other_var):
        def statistic(d, p):
            # Stationarity of the likelihood in sigma: with the centred sums
            # C_own and C_xy, n (1 - rho^2) t^2 + (rho C_xy / sigma_other) t
            # - C_own = 0 for t = sigma.
            m, mo, rho = p[mu], p[other_mu], p["rho"]
            c_own = own_sq - 2.0 * m * own_sum + n * m * m
            if c_own <= 0.0:
                raise DegenerateDataError(f"{column} observations all equal {mu}")
            c_xy = sxy - m * other_sum - mo * own_sum + n * m * mo
            return solve_quadratic_positive(n * (1.0 - rho * rho),
                                            rho * c_xy / math.sqrt(p[other_var]), -c_own)

        def equation_for(d, p):
            rho = p["rho"]
            return _BvnSigmaEquation(math.sqrt((1.0 - rho * rho) / (n * (2.0 - rho * rho))))

        def kernel(lo, hi, redraw):
            def draw(d, p, rng, warnings=None):
                # _BvnSigmaEquation(c0).invert(q, g).
                q = statistic(d, p)
                rho = p["rho"]
                c0 = math.sqrt((1.0 - rho * rho) / (n * (2.0 - rho * rho)))
                bracketed = 1.0 + _truncnorm(rng) * c0
                if bracketed <= floor:
                    return redraw(d, p, rng, warnings, q)
                s = q / bracketed
                theta = s * s
                return theta if lo < theta < hi else redraw(d, p, rng, warnings, q)
            return draw

        return _conditional(_BVN_PARAMS, label, FiducialStatistic(stat_name, statistic),
                            equation_for, kernel, check_at_start=True)

    def rho_mle(d, p):
        # Root in (-1, 1) of the cubic stationarity condition of the likelihood
        # in rho; when several roots fall inside, the highest likelihood wins.
        mu_x, mu_y, sigma_x2, sigma_y2 = p["mu_x"], p["mu_y"], p["sigma_x2"], p["sigma_y2"]
        cxx = sxx - 2.0 * mu_x * sx + n * mu_x * mu_x
        cyy = syy - 2.0 * mu_y * sy + n * mu_y * mu_y
        cxy = sxy - mu_x * sy - mu_y * sx + n * mu_x * mu_y
        c = cxy / math.sqrt(sigma_x2 * sigma_y2)
        c1 = n - cxx / sigma_x2 - cyy / sigma_y2
        if not (math.isfinite(c) and math.isfinite(c1)):
            raise DomainError(f"cubic coefficients must be finite, got {[neg_n, c, c1, c]}")
        return finite_cubic_root((neg_n, c, c1, c), _RHO_MLE_BRACKET,
                                 _bvn_loglik_core, stats, mu_x, mu_y, sigma_x2, sigma_y2)

    def rho_kernel(lo, hi, redraw):
        def draw(d, p, rng, warnings=None):
            q = rho_mle(d, p)
            g = _truncnorm(rng)
            try:
                theta = rho_invert(q, g)
            except StructuralError:
                return redraw(d, p, rng, warnings, q)
            return theta if lo < theta < hi else redraw(d, p, rng, warnings, q)
        return draw

    return {
        "mu_x": mean("mu_x", "sum_x_adj", sx, sy, "sigma_x2", "sigma_y2", "mu_y"),
        "mu_y": mean("mu_y", "sum_y_adj", sy, sx, "sigma_y2", "sigma_x2", "mu_x"),
        "sigma_x2": sigma("sigma_x2", "sigma_x_mle", "x", "mu_x", "mu_y", sx, sy, sxx, "sigma_y2"),
        "sigma_y2": sigma("sigma_y2", "sigma_y_mle", "y", "mu_y", "mu_x", sy, sx, syy, "sigma_x2"),
        "rho": _conditional(_BVN_PARAMS, "rho", FiducialStatistic("rho_mle", rho_mle),
                            lambda d, p: rho_equation, rho_kernel),
    }


def _bvn_chain_inits(data: Dataset, chains: int) -> list:
    x = data.col("x")
    y = data.col("y")
    rho = float(np.corrcoef(x, y)[0, 1])
    rho = float(np.clip(rho, -0.95, 0.95))
    base = {
        "mu_x": float(np.mean(x)),
        "mu_y": float(np.mean(y)),
        "sigma_x2": float(np.var(x)),
        "sigma_y2": float(np.var(y)),
        "rho": rho,
    }
    n = x.size
    spreads = {
        "mu_x": math.sqrt(base["sigma_x2"] / n),
        "mu_y": math.sqrt(base["sigma_y2"] / n),
    }
    return _disperse(base, _BVN_PARAMS, spreads, chains)


def _bvn_simulate(theta: Mapping[str, float], n: int, rng: RngStream) -> Dataset:
    sdx = math.sqrt(_pos(theta["sigma_x2"], "sigma_x2"))
    sdy = math.sqrt(_pos(theta["sigma_y2"], "sigma_y2"))
    rho = float(theta["rho"])
    if not abs(rho) < 1.0:
        raise DomainError(f"|rho| must be < 1, got {rho}")
    z1 = rng.gen.standard_normal(n)
    z2 = rng.gen.standard_normal(n)
    return Dataset({
        "x": theta["mu_x"] + sdx * z1,
        "y": theta["mu_y"] + sdy * (rho * z1 + math.sqrt(1.0 - rho * rho) * z2),
    })


_BVN_PARAMS = (
    ParamSpec("mu_x", -math.inf, math.inf, "location"),
    ParamSpec("mu_y", -math.inf, math.inf, "location"),
    ParamSpec("sigma_x2", 0.0, math.inf, "scale"),
    ParamSpec("sigma_y2", 0.0, math.inf, "scale"),
    ParamSpec("rho", -1.0, 1.0, "correlation"),
)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_MODELS = {
    "normal": _normal_samples("normal", (("x", "mu", "sigma2"),)),
    "pareto": ModelSpec(
        name="pareto",
        params=_PARETO_PARAMS,
        build_conditionals=_pareto_build_conditionals,
        simulate=_pareto_simulate,
        chain_inits=_pareto_chain_inits,
        joint_log_kernel=_pareto_joint,
    ),
    "quadreg": ModelSpec(
        name="quadreg",
        params=_QUADREG_PARAMS,
        build_conditionals=_quadreg_build_conditionals,
        simulate=_quadreg_simulate,
        chain_inits=_quadreg_chain_inits,
        joint_log_kernel=_quadreg_joint,
    ),
    "gamma": ModelSpec(
        name="gamma",
        params=_GAMMA_PARAMS,
        build_conditionals=_gamma_build_conditionals,
        simulate=_gamma_simulate,
        chain_inits=_gamma_chain_inits,
    ),
    "beta": ModelSpec(
        name="beta",
        params=_BETA_PARAMS,
        build_conditionals=_beta_build_conditionals,
        simulate=_beta_simulate,
        chain_inits=_beta_chain_inits,
    ),
    "behrens_fisher": _normal_samples(
        "behrens_fisher", (("x", "mu_x", "sigma_x2"), ("y", "mu_y", "sigma_y2"))),
    "bivariate_normal": ModelSpec(
        name="bivariate_normal",
        params=_BVN_PARAMS,
        build_conditionals=_bvn_build_conditionals,
        simulate=_bvn_simulate,
        chain_inits=_bvn_chain_inits,
    ),
}

MODEL_NAMES = tuple(sorted(_MODELS))


def get_model(name: str) -> ModelSpec:
    try:
        return _MODELS[name]
    except KeyError:
        raise DomainError(f"unknown model '{name}'; choose from {MODEL_NAMES}") from None


def simulate_dataset(model: "ModelSpec | str", theta: Mapping[str, float], n: int,
                     rng: RngStream) -> Dataset:
    """n independent draws from the model's sampling density at theta."""
    spec = get_model(model) if isinstance(model, str) else model
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    for label in theta:
        if label not in spec.param_labels:
            raise DomainError(f"unknown parameter '{label}' for model '{spec.name}'")
    for p in spec.params:
        if p.label not in theta:
            raise DomainError(f"missing parameter '{p.label}' for model '{spec.name}'")
        if not p.contains(float(theta[p.label])):
            raise DomainError(
                f"parameter '{p.label}'={theta[p.label]} outside domain ({p.lo}, {p.hi})")
    return spec.simulate(theta, n, rng)
