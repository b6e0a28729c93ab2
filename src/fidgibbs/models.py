"""Catalog of model families with full conditional fiducial samplers.

Each family provides, per parameter: a fiducial statistic, a structural
equation (primary random variable plus the map tying the statistic to the
parameter), and the resulting conditional sampler.  Closed-form families
also expose the conditional distributions as Dist objects, an analytic
joint log kernel, and conditional log densities (the compatibility
checker's oracles); every family ships a forward data simulator.

Families: normal, pareto, quadreg, gamma, beta, behrens_fisher,
bivariate_normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple

import numpy as np
from scipy import special as _sp

from .core import ConditionalFiducialSampler, FiducialStatistic
from .errors import BracketError, DegenerateDataError, DomainError, EvaluationError, StructuralError
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
    log_density,
)
from .specfun import (Bracket, digamma, solve_cubic_in_interval, solve_monotone, solve_newton,
                      solve_quadratic_positive, trigamma)

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
    "gamma_conditional_beta",
    "behrens_fisher_angle",
    "behrens_fisher_direct_draws",
    "bvn_conditional_mu_x",
    "bvn_conditional_mu_y",
    "bvn_sigma_x2_mle",
    "bvn_rho_mle",
    "bvn_log_likelihood",
]

_STANDARD_TRUNC = 5.0
_STD_NORMAL = Normal(0.0, 1.0)
_STD_TRUNCNORM = TruncatedNormal(0.0, 1.0, -_STANDARD_TRUNC, _STANDARD_TRUNC)
_STD_EXPONENTIAL = Exponential(1.0)


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
    """A model family: parameters, conditionals, optional joint, simulator."""

    name: str
    params: Tuple[ParamSpec, ...]
    build_conditionals: Callable[[Dataset], dict]
    simulate: Callable[[Mapping[str, float], int, RngStream], Dataset]
    chain_inits: Callable[[Dataset, int], list]
    validate_data: Callable[[Dataset], None]
    joint_log_kernel: Optional[Callable[[Mapping[str, float], Dataset], float]] = None
    conditional_log_density: Optional[Callable[[str, float, Mapping[str, float], Dataset], float]] = None

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
    v = float(v)
    if not math.isfinite(v) or v <= 0.0:
        raise DomainError(f"{name} must be positive and finite, got {v}")
    return v


def _conditional(params: Tuple[ParamSpec, ...], label: str, statistic: FiducialStatistic,
                 equation_for, **options) -> ConditionalFiducialSampler:
    """A catalog conditional whose theta_domain is its parameter's domain."""
    p = next(p for p in params if p.label == label)
    return ConditionalFiducialSampler(label, statistic, equation_for,
                                      theta_domain=(p.lo, p.hi), **options)


# Per-draw equations.  Each holds only the constants that depend on the
# other parameters (plus references to data-only values bound at build
# time), so making one per draw is cheap; ConditionalFiducialSampler.equation
# turns one into a validated StructuralEquation when a probe needs it.

class _LocationEquation:
    """q = coef * theta + off + sd * gamma with gamma ~ N(0, 1)."""

    gamma_dist = _STD_NORMAL

    def __init__(self, coef: float, off: float, sd: float):
        self.coef, self.off, self.sd = coef, off, sd

    def invert(self, q, g):
        return (q - self.off - self.sd * g) / self.coef

    def phi(self, g, theta):
        return self.coef * theta + self.off + self.sd * g


class _VarianceEquation:
    """q = theta * gamma / c with gamma ~ chi^2(n)."""

    def __init__(self, gamma_dist: Dist, c: float):
        self.gamma_dist, self.c = gamma_dist, c

    def invert(self, q, g):
        return self.c * q / g

    def phi(self, g, theta):
        return theta * g / self.c


class _RateEquation:
    """q = gamma / theta + off with a gamma-distributed primary."""

    def __init__(self, gamma_dist: Dist, off: float):
        self.gamma_dist, self.off = gamma_dist, off

    def invert(self, q, g):
        rate = q - self.off
        if rate <= 0.0:
            raise StructuralError("statistic minus offset not positive", rate=rate)
        return g / rate

    def phi(self, g, theta):
        return g / theta + self.off


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
                    tol: float = 1e-13) -> float:
    """Root of an increasing f by geometric bracket expansion plus Newton.

    f(a) returns (f(a), f'(a)).  The bracket grows from start by factors
    of 4 until f changes sign; StructuralError is raised when no sign
    change is found before it hits the floating-point floor/ceiling (the
    no-solution case).  Inside the bracket a bisection-safeguarded Newton
    iteration in log a starts from the end with the smaller |f| and stops
    once a step is at most tol.  Each point is evaluated once; a
    non-finite value at a bracket end or inside the bracket raises
    StructuralError.
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
# Normal model: mean and variance
# ---------------------------------------------------------------------------

def normal_conditional_mu(xbar: float, sigma2: float, n: int) -> Normal:
    """mu given sigma2: Normal(xbar, sigma2 / n)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return Normal(float(xbar), _pos(sigma2, "sigma2") / n)


def _mean_sq_about(x: np.ndarray, mu: float) -> float:
    return float(np.mean((x - mu) ** 2))


def normal_conditional_sigma2(mu: float, x: np.ndarray) -> ScaledInvChiSquare:
    """sigma2 given mu: scaled inverse chi-square(n, mean((x - mu)^2))."""
    x = np.asarray(x, dtype=float)
    s2 = _mean_sq_about(x, float(mu))
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


def _sample_conditionals(params: Tuple[ParamSpec, ...], data: Dataset, column: str,
                         mu: str, sigma2: str) -> dict:
    """Mean and variance conditionals of one normal sample (normal, behrens_fisher)."""
    x = data.col(column)
    n = x.size
    xbar = float(np.mean(x))
    variance = _VarianceEquation(ChiSquare(n), n)
    return {
        mu: _conditional(
            params, mu, FiducialStatistic(f"{column}bar", lambda d, p: xbar),
            lambda d, p: _LocationEquation(1.0, 0.0, math.sqrt(_pos(p[sigma2], "sigma2") / n))),
        sigma2: _conditional(
            params, sigma2,
            FiducialStatistic(f"mean_sq_about_{mu}", lambda d, p: _mean_sq_about(x, p[mu])),
            lambda d, p: variance),
    }


def _normal_build_conditionals(data: Dataset) -> dict:
    return _sample_conditionals(_NORMAL_PARAMS, data, "x", "mu", "sigma2")


def _normal_joint_log_kernel(theta: Mapping[str, float], data: Dataset) -> float:
    x = data.col("x")
    s2 = theta["sigma2"]
    if s2 <= 0.0:
        return -math.inf
    rss = float(np.sum((x - theta["mu"]) ** 2))
    return -0.5 * (x.size + 2) * math.log(s2) - 0.5 * rss / s2


def _normal_conditional_dist(param: str, others: Mapping[str, float], data: Dataset) -> Dist:
    x = data.col("x")
    if param == "mu":
        return normal_conditional_mu(float(np.mean(x)), others["sigma2"], x.size)
    if param == "sigma2":
        return normal_conditional_sigma2(others["mu"], x)
    raise DomainError(f"normal model has no parameter '{param}'")


def _normal_validate(data: Dataset):
    x = data.col("x")
    if x.size < 2:
        raise DomainError("normal model needs n >= 2")
    if float(np.std(x, ddof=1)) <= 0.0:
        raise DegenerateDataError("normal model needs non-constant data")


def _normal_chain_inits(data: Dataset, chains: int) -> list:
    x = data.col("x")
    base = {"mu": float(np.mean(x)), "sigma2": float(np.var(x, ddof=1))}
    spread = math.sqrt(base["sigma2"] / x.size)
    return _disperse(base, _NORMAL_PARAMS, {"mu": spread}, chains)


def _normal_simulate(theta: Mapping[str, float], n: int, rng: RngStream) -> Dataset:
    sd = math.sqrt(_pos(theta["sigma2"], "sigma2"))
    return Dataset({"x": theta["mu"] + sd * rng.gen.standard_normal(n)})


_NORMAL_PARAMS = (
    ParamSpec("mu", -math.inf, math.inf, "location"),
    ParamSpec("sigma2", 0.0, math.inf, "scale"),
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


def _pareto_build_conditionals(data: Dataset) -> dict:
    x = data.col("x")
    n = x.size
    sum_log = float(np.sum(np.log(x)))
    min_x = float(np.min(x))
    gamma_n = Gamma(n, 1.0)

    def alpha_equation(d, p):
        beta = _pos(p["beta"], "beta")
        # Outside the joint's support: the alpha conditional does not exist.
        if beta > min_x:
            raise DomainError(f"beta={beta} exceeds min(x)={min_x}")
        off = n * math.log(beta)
        if sum_log - off <= 0.0:
            raise DomainError(
                f"sum(log x) - n log(beta) = {sum_log - off:.6g} is not positive")
        return _RateEquation(gamma_n, off)

    return {
        "alpha": _conditional(
            _PARETO_PARAMS, "alpha", FiducialStatistic("sum_log_x", lambda d, p: sum_log),
            alpha_equation),
        "beta": _conditional(
            _PARETO_PARAMS, "beta", FiducialStatistic("min_x", lambda d, p: min_x),
            lambda d, p: _ParetoBetaEquation(n * _pos(p["alpha"], "alpha"))),
    }


def _pareto_conditional_log_density(param: str, v: float, others: Mapping[str, float], data: Dataset) -> float:
    x = data.col("x")
    if param == "alpha":
        return log_density(pareto_conditional_alpha(others["beta"], x), v)
    if param == "beta":
        return pareto_conditional_beta_log_density(v, others["alpha"], x)
    raise DomainError(f"pareto model has no parameter '{param}'")


def _pareto_validate(data: Dataset):
    x = data.col("x")
    if x.size < 2:
        raise DomainError("pareto model needs n >= 2")
    if np.any(x <= 0.0):
        raise DomainError("pareto data must be positive")
    if float(np.min(x)) == float(np.max(x)):
        raise DegenerateDataError("pareto model needs non-constant data")


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

def _quadreg_sums(x: np.ndarray, y: np.ndarray) -> dict:
    return {
        "n": x.size,
        "sx": float(np.sum(x)),
        "sx2": float(np.sum(x ** 2)),
        "sx3": float(np.sum(x ** 3)),
        "sx4": float(np.sum(x ** 4)),
        "sy": float(np.sum(y)),
        "sxy": float(np.sum(x * y)),
        "sx2y": float(np.sum(x ** 2 * y)),
    }


def _quadreg_rss(x: np.ndarray, y: np.ndarray, b0: float, b1: float, b2: float) -> float:
    r = y - b0 - b1 * x - b2 * x ** 2
    return float(np.sum(r ** 2))


def quadreg_conditionals(b0: float, b1: float, b2: float, sigma2: float,
                         x: np.ndarray, y: np.ndarray) -> dict:
    """The four printed full conditionals of the quadratic regression model.

    Returns {'beta0': Normal, 'beta1': Normal, 'beta2': Normal,
    'sigma2': ScaledInvChiSquare}; each conditions on the supplied values
    of the other three parameters.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = _quadreg_sums(x, y)
    n = s["n"]
    sigma2 = _pos(sigma2, "sigma2")
    if s["sx2"] <= 0.0 or s["sx4"] <= 0.0:
        raise DegenerateDataError("design is degenerate: sum(x^2) or sum(x^4) is zero")
    rss = _quadreg_rss(x, y, b0, b1, b2)
    if rss <= 0.0:
        raise DegenerateDataError("residual sum of squares is zero")
    return {
        "beta0": Normal((s["sy"] - b1 * s["sx"] - b2 * s["sx2"]) / n, sigma2 / n),
        "beta1": Normal((s["sxy"] - b0 * s["sx"] - b2 * s["sx3"]) / s["sx2"], sigma2 / s["sx2"]),
        "beta2": Normal((s["sx2y"] - b0 * s["sx2"] - b1 * s["sx3"]) / s["sx4"], sigma2 / s["sx4"]),
        "sigma2": ScaledInvChiSquare(n, rss / n),
    }


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
    s = _quadreg_sums(x, y)
    if s["sx2"] <= 0.0 or s["sx4"] <= 0.0:
        raise DegenerateDataError("design is degenerate: sum(x^2) or sum(x^4) is zero")
    variance = _VarianceEquation(ChiSquare(s["n"]), 1)

    def rss_stat(d, p):
        rss = _quadreg_rss(x, y, p["beta0"], p["beta1"], p["beta2"])
        if rss <= 0.0:
            raise DegenerateDataError("residual sum of squares is zero")
        return rss

    def coef(label, stat_name, statistic, equation_for):
        return _conditional(_QUADREG_PARAMS, label,
                            FiducialStatistic(stat_name, lambda d, p: statistic), equation_for)

    return {
        "beta0": coef("beta0", "sum_y", s["sy"], lambda d, p: _quadreg_coef_equation(
            s["n"], p["beta1"] * s["sx"] + p["beta2"] * s["sx2"], p["sigma2"])),
        "beta1": coef("beta1", "sum_xy", s["sxy"], lambda d, p: _quadreg_coef_equation(
            s["sx2"], p["beta0"] * s["sx"] + p["beta2"] * s["sx3"], p["sigma2"])),
        "beta2": coef("beta2", "sum_x2y", s["sx2y"], lambda d, p: _quadreg_coef_equation(
            s["sx4"], p["beta0"] * s["sx2"] + p["beta1"] * s["sx3"], p["sigma2"])),
        "sigma2": _conditional(_QUADREG_PARAMS, "sigma2", FiducialStatistic("rss", rss_stat),
                               lambda d, p: variance),
    }


def _quadreg_conditional_dist(param: str, others: Mapping[str, float], data: Dataset) -> Dist:
    full = dict(others)
    full.setdefault(param, 0.0 if param.startswith("beta") else 1.0)
    dists = quadreg_conditionals(full["beta0"], full["beta1"], full["beta2"], full["sigma2"],
                                 data.col("x"), data.col("y"))
    return dists[param]


def _quadreg_validate(data: Dataset):
    x = data.col("x")
    y = data.col("y")
    if x.size != y.size:
        raise DomainError("quadreg needs x and y of equal length")
    if x.size < 2:
        raise DomainError("quadreg needs n >= 2")
    if float(np.sum(x ** 2)) <= 0.0 or float(np.sum(x ** 4)) <= 0.0:
        raise DegenerateDataError("design is degenerate: all x are zero")


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
    s = _quadreg_sums(x, y)
    spreads = {
        "beta0": math.sqrt(s2 / s["n"]),
        "beta1": math.sqrt(s2 / s["sx2"]),
        "beta2": math.sqrt(s2 / s["sx4"]),
    }
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

def gamma_conditional_beta(alpha: float, x: np.ndarray) -> Gamma:
    """beta given alpha: Gamma(n alpha, sum x_i)."""
    x = np.asarray(x, dtype=float)
    alpha = _pos(alpha, "alpha")
    sx = float(np.sum(x))
    if sx <= 0.0:
        raise DomainError("sum of observations must be positive")
    return Gamma(x.size * alpha, sx)


def _clt_shape_invert(q_over_n: float, parts_fn, g: float, n: int, start: float) -> float:
    """Solve offset(a) + g * sqrt(slope(a) / n) = q/n for a > 0 (increasing map).

    parts_fn(a) returns (offset, slope, d slope / da) in one shot; since
    offset' = slope, the derivative of the map needs no further call.
    """

    def f(a):
        off, s, ds = parts_fn(a)
        if s <= 0.0:
            raise EvaluationError(f"non-positive variance term at a={a}")
        return (off + g * math.sqrt(s / n) - q_over_n,
                s + 0.5 * g * ds / math.sqrt(n * s))

    return _expanding_root(f, start)


# Orders of the Hurwitz zeta for psi' and psi'' (psi''(a) = -2 zeta(3, a)),
# for one argument and for the arguments [a, a + b, a, a + b].
_ZETA_ORDERS = np.array([2.0, 3.0])
_ZETA_ORDERS_PAIR = np.array([2.0, 2.0, 3.0, 3.0])


def _gamma_parts(a):
    # a > 0 is guaranteed by the bracketing; skip rechecking in the hot loop.
    z2, z3 = _sp.zeta(_ZETA_ORDERS, a).tolist()
    return float(_sp.psi(a)), z2, -2.0 * z3


class _GammaShapeEquation:
    """The CLT equation for the shape given the rate beta:
    sum(log x) = n (psi(a) - log beta) + gamma * sqrt(n psi'(a)), with gamma
    standard normal truncated to [-5, 5]; the root search starts at start.
    """

    gamma_dist = _STD_TRUNCNORM

    def __init__(self, n: int, beta: float, start: float):
        self.n, self.log_beta, self.start = n, math.log(beta), start

    def invert(self, q, g):
        return _clt_shape_invert(q / self.n + self.log_beta, _gamma_parts, g, self.n, self.start)

    def phi(self, g, a):
        return self.n * (digamma(a) - self.log_beta) + g * math.sqrt(self.n * trigamma(a))


def _gamma_build_conditionals(data: Dataset) -> dict:
    x = data.col("x")
    n = x.size
    sum_x = float(np.sum(x))
    sum_log = float(np.sum(np.log(x)))
    return {
        "alpha": _conditional(
            _GAMMA_PARAMS, "alpha", FiducialStatistic("sum_log_x", lambda d, p: sum_log),
            lambda d, p: _GammaShapeEquation(n, p["beta"], p.get("alpha", 1.0)),
            check_at_start=True),
        "beta": _conditional(
            _GAMMA_PARAMS, "beta", FiducialStatistic("sum_x", lambda d, p: sum_x),
            lambda d, p: _RateEquation(Gamma(n * _pos(p["alpha"], "alpha"), 1.0), 0.0)),
    }


def _gamma_validate(data: Dataset):
    x = data.col("x")
    if x.size < 2:
        raise DomainError("gamma model needs n >= 2")
    if np.any(x <= 0.0):
        raise DomainError("gamma data must be positive")
    if float(np.min(x)) == float(np.max(x)):
        raise DegenerateDataError("gamma model needs non-constant data")


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
    with gamma standard normal truncated to [-5, 5].
    """

    gamma_dist = _STD_TRUNCNORM

    def __init__(self, n: int, b: float, start: float, scratch):
        self.n, self.b, self.start, self.scratch = n, b, start, scratch

    def invert(self, q, g):
        b = self.b
        buf, zeta_out = self.scratch

        def parts(a):
            ab = a + b
            buf[0] = buf[2] = a
            buf[1] = buf[3] = ab
            z2_a, z2_ab, z3_a, z3_ab = _sp.zeta(_ZETA_ORDERS_PAIR, buf, out=zeta_out).tolist()
            return float(_sp.psi(a)) - float(_sp.psi(ab)), z2_a - z2_ab, -2.0 * (z3_a - z3_ab)

        return _clt_shape_invert(q / self.n, parts, g, self.n, self.start)

    def phi(self, g, a):
        n, b = self.n, self.b
        return (n * (digamma(a) - digamma(a + b))
                + math.sqrt(n) * math.sqrt(trigamma(a) - trigamma(a + b)) * g)


def _beta_build_conditionals(data: Dataset) -> dict:
    x = data.col("x")
    n = x.size
    sum_log = float(np.sum(np.log(x)))
    sum_log1m = float(np.sum(np.log1p(-x)))
    # Scratch buffers for the solver iterations of every draw of these two
    # conditionals; a run makes its draws one at a time.
    scratch = (np.empty(4), np.empty(4))
    return {
        "alpha": _conditional(
            _BETA_PARAMS, "alpha", FiducialStatistic("sum_log_x", lambda d, p: sum_log),
            lambda d, p: _BetaShapeEquation(n, p["beta"], p.get("alpha", 1.0), scratch),
            check_at_start=True),
        "beta": _conditional(
            _BETA_PARAMS, "beta", FiducialStatistic("sum_log_1mx", lambda d, p: sum_log1m),
            lambda d, p: _BetaShapeEquation(n, p["alpha"], p.get("beta", 1.0), scratch),
            check_at_start=True),
    }


def _beta_validate(data: Dataset):
    x = data.col("x")
    if x.size < 2:
        raise DomainError("beta model needs n >= 2")
    if np.any((x <= 0.0) | (x >= 1.0)):
        raise DomainError("beta data must lie strictly inside (0, 1)")


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
# Behrens-Fisher: two independent normal samples
# ---------------------------------------------------------------------------

def _group_stats(v: np.ndarray, label: str):
    if v.size < 2:
        raise DomainError(f"group '{label}' needs at least two observations")
    s2 = float(np.var(v, ddof=1))
    if s2 <= 0.0:
        raise DegenerateDataError(f"group '{label}' has zero sample variance")
    return float(np.mean(v)), s2, v.size


def behrens_fisher_angle(x: np.ndarray, y: np.ndarray) -> float:
    """Angle parameter arctan((s_x sqrt(n_y)) / (s_y sqrt(n_x)))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _, sx2, nx = _group_stats(x, "x")
    _, sy2, ny = _group_stats(y, "y")
    return math.atan2(math.sqrt(sx2 / nx), math.sqrt(sy2 / ny))


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


def _bf_build_conditionals(data: Dataset) -> dict:
    return {**_sample_conditionals(_BF_PARAMS, data, "x", "mu_x", "sigma_x2"),
            **_sample_conditionals(_BF_PARAMS, data, "y", "mu_y", "sigma_y2")}


def _bf_joint(theta: Mapping[str, float], data: Dataset) -> float:
    x = data.col("x")
    y = data.col("y")
    sx2, sy2 = theta["sigma_x2"], theta["sigma_y2"]
    if sx2 <= 0.0 or sy2 <= 0.0:
        return -math.inf
    rx = float(np.sum((x - theta["mu_x"]) ** 2))
    ry = float(np.sum((y - theta["mu_y"]) ** 2))
    return (-0.5 * (x.size + 2) * math.log(sx2) - 0.5 * rx / sx2
            - 0.5 * (y.size + 2) * math.log(sy2) - 0.5 * ry / sy2)


def _bf_conditional_dist(param: str, others: Mapping[str, float], data: Dataset) -> Dist:
    x = data.col("x")
    y = data.col("y")
    if param == "mu_x":
        return normal_conditional_mu(float(np.mean(x)), others["sigma_x2"], x.size)
    if param == "mu_y":
        return normal_conditional_mu(float(np.mean(y)), others["sigma_y2"], y.size)
    if param == "sigma_x2":
        return normal_conditional_sigma2(others["mu_x"], x)
    if param == "sigma_y2":
        return normal_conditional_sigma2(others["mu_y"], y)
    raise DomainError(f"behrens_fisher model has no parameter '{param}'")


def _bf_validate(data: Dataset):
    _group_stats(data.col("x"), "x")
    _group_stats(data.col("y"), "y")


def _bf_chain_inits(data: Dataset, chains: int) -> list:
    mx, sx2, nx = _group_stats(data.col("x"), "x")
    my, sy2, ny = _group_stats(data.col("y"), "y")
    base = {"mu_x": mx, "mu_y": my, "sigma_x2": sx2, "sigma_y2": sy2}
    spreads = {"mu_x": math.sqrt(sx2 / nx), "mu_y": math.sqrt(sy2 / ny)}
    return _disperse(base, _BF_PARAMS, spreads, chains)


def _bf_simulate(theta: Mapping[str, float], n: int, rng: RngStream) -> Dataset:
    sdx = math.sqrt(_pos(theta["sigma_x2"], "sigma_x2"))
    sdy = math.sqrt(_pos(theta["sigma_y2"], "sigma_y2"))
    return Dataset({
        "x": theta["mu_x"] + sdx * rng.gen.standard_normal(n),
        "y": theta["mu_y"] + sdy * rng.gen.standard_normal(n),
    })


_BF_PARAMS = (
    ParamSpec("mu_x", -math.inf, math.inf, "location"),
    ParamSpec("mu_y", -math.inf, math.inf, "location"),
    ParamSpec("sigma_x2", 0.0, math.inf, "scale"),
    ParamSpec("sigma_y2", 0.0, math.inf, "scale"),
)


# ---------------------------------------------------------------------------
# Bivariate normal model
# ---------------------------------------------------------------------------

def bvn_conditional_mu_x(mu_y: float, sigma_x2: float, sigma_y2: float, rho: float,
                         x: np.ndarray, y: np.ndarray) -> Normal:
    """mu_x given the rest: N(xbar + rho (sx/sy)(mu_y - ybar), sx^2 (1-rho^2)/n)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma_x2 = _pos(sigma_x2, "sigma_x2")
    sigma_y2 = _pos(sigma_y2, "sigma_y2")
    if not abs(rho) < 1.0:
        raise DomainError(f"|rho| must be < 1, got {rho}")
    ratio = math.sqrt(sigma_x2 / sigma_y2)
    mean = float(np.mean(x)) + rho * ratio * (mu_y - float(np.mean(y)))
    return Normal(mean, sigma_x2 * (1.0 - rho * rho) / x.size)


def bvn_conditional_mu_y(mu_x: float, sigma_x2: float, sigma_y2: float, rho: float,
                         x: np.ndarray, y: np.ndarray) -> Normal:
    """Mirror of the mu_x conditional."""
    return bvn_conditional_mu_x(mu_x, sigma_y2, sigma_x2, rho, y, x)


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

    def swapped(self) -> "_BvnSuffStats":
        return _BvnSuffStats(self.n, self.sy, self.sx, self.syy, self.sxx, self.sxy)

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


def _bvn_sigma_mle_core(s: _BvnSuffStats, mu_x, mu_y, sigma_y2, rho) -> float:
    # Stationarity of the likelihood in sigma_x:
    # n(1 - rho^2) t^2 + (rho Cxy / sigma_y) t - Cxx = 0 for t = sigma_x.
    cxx, _, cxy = s.centered(mu_x, mu_y)
    if cxx <= 0.0:
        raise DegenerateDataError("x observations all equal mu_x")
    t = solve_quadratic_positive(s.n * (1.0 - rho * rho),
                                 rho * cxy / math.sqrt(sigma_y2), -cxx)
    return t


_RHO_MLE_BRACKET = Bracket(-1.0 + 1e-9, 1.0 - 1e-9)


def _bvn_rho_mle_core(s: _BvnSuffStats, mu_x, mu_y, sigma_x2, sigma_y2) -> float:
    cxx, cyy, cxy = s.centered(mu_x, mu_y)
    n = s.n
    c = cxy / math.sqrt(sigma_x2 * sigma_y2)
    coeffs = (-float(n), c, n - cxx / sigma_x2 - cyy / sigma_y2, c)
    return solve_cubic_in_interval(
        coeffs,
        _RHO_MLE_BRACKET,
        objective=lambda r: _bvn_loglik_core(s, mu_x, mu_y, sigma_x2, sigma_y2, r),
    )


def bvn_log_likelihood(mu_x: float, mu_y: float, sigma_x2: float, sigma_y2: float, rho: float,
                       x: np.ndarray, y: np.ndarray) -> float:
    """Bivariate normal log likelihood (additive constant dropped)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _bvn_loglik_core(_BvnSuffStats.from_arrays(x, y), mu_x, mu_y,
                            sigma_x2, sigma_y2, rho)


def bvn_sigma_x2_mle(mu_x: float, mu_y: float, sigma_y2: float, rho: float,
                     x: np.ndarray, y: np.ndarray) -> float:
    """Likelihood-stationary sigma_x estimate with the other parameters fixed.

    Solves n(1-rho^2) t^2 + (rho Sxy / sigma_y) t - Sxx = 0 for t = sigma_x,
    the stationarity condition of the profile log likelihood; returns the
    variance t^2.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma_y2 = _pos(sigma_y2, "sigma_y2")
    if not abs(rho) < 1.0:
        raise DomainError(f"|rho| must be < 1, got {rho}")
    t = _bvn_sigma_mle_core(_BvnSuffStats.from_arrays(x, y), mu_x, mu_y, sigma_y2, rho)
    return t * t


def bvn_rho_mle(mu_x: float, mu_y: float, sigma_x2: float, sigma_y2: float,
                x: np.ndarray, y: np.ndarray) -> float:
    """Likelihood-maximizing correlation with the other parameters fixed.

    Root in (-1, 1) of the cubic stationarity condition; when several roots
    fall inside, the one with the highest log likelihood wins.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma_x2 = _pos(sigma_x2, "sigma_x2")
    sigma_y2 = _pos(sigma_y2, "sigma_y2")
    return _bvn_rho_mle_core(_BvnSuffStats.from_arrays(x, y), mu_x, mu_y,
                             sigma_x2, sigma_y2)


def _bvn_sigma_factor(n: int, rho: float) -> float:
    return math.sqrt((1.0 - rho * rho) / (n * (2.0 - rho * rho)))


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

    @property
    def gamma_domain(self):
        c0 = self.c0
        g_lo = max(-_STANDARD_TRUNC, (self.floor - 1.0) / c0) if c0 > 0.0 else -_STANDARD_TRUNC
        return (g_lo, _STANDARD_TRUNC)


class _BvnRhoEquation:
    """q = rho + (1 - rho^2) gamma / (sqrt(n) sqrt(1 + rho^2)), solved for rho.

    d phi / d rho = 1 - (gamma / sqrt(n)) rho (3 + rho^2) / (1 + rho^2)^(3/2),
    and the factor rho (3 + rho^2) / (1 + rho^2)^(3/2) is increasing on
    [-1, 1] with maximum sqrt(2).  So for |gamma| < sqrt(n / 2) phi is
    strictly increasing, its root is unique and Newton finds it; otherwise
    Brent chooses among the roots.
    """

    gamma_dist = _STD_TRUNCNORM
    bracket = Bracket(-1.0 + 1e-12, 1.0 - 1e-12)

    def __init__(self, n: int):
        self.sqrt_n = math.sqrt(n)
        self.half_n = 0.5 * n

    def phi(self, g, r):
        return r + (1.0 - r * r) * g / (self.sqrt_n * math.sqrt(1.0 + r * r))

    def invert(self, q, g):
        lo, hi = self.bracket.lo, self.bracket.hi
        try:
            if g * g < self.half_n and self.phi(g, lo) < q < self.phi(g, hi):
                return self._newton(q, g)
            # Several roots, a root at a bracket end or none: Brent decides.
            return solve_monotone(lambda r: self.phi(g, r), q, self.bracket, tol=1e-13)
        except (BracketError, EvaluationError) as exc:
            raise StructuralError(f"no correlation solves the equation: {exc}",
                                  statistic_value=q, gamma=g) from exc

    def _newton(self, q, g):
        k = g / self.sqrt_n

        def fdf(r):
            r2 = 1.0 + r * r
            root = math.sqrt(r2)
            return (r + (1.0 - r * r) * g / (self.sqrt_n * root) - q,
                    1.0 - k * r * (2.0 + r2) / (r2 * root))

        lo, hi = self.bracket.lo, self.bracket.hi
        r = min(max(q, lo), hi)
        return solve_newton(fdf, lo, hi, r, *fdf(r), tol=1e-13)


def _bvn_mean_equation(n: int, var: float, other_var: float, rho: float,
                       other_mu: float) -> _LocationEquation:
    # Statistic = n mu + off + sd * gamma (the sum adjusted by the other mean).
    ratio = math.sqrt(var / other_var)
    sd = math.sqrt(n * var * (1.0 - rho * rho))
    return _LocationEquation(n, -n * rho * ratio * other_mu, sd)


def _bvn_build_conditionals(data: Dataset) -> dict:
    x = data.col("x")
    y = data.col("y")
    n = x.size
    stats = _BvnSuffStats.from_arrays(x, y)
    stats_yx = stats.swapped()
    sx_sum, sy_sum = stats.sx, stats.sy
    rho_equation = _BvnRhoEquation(n)

    def sigma(label, stat_name, compute):
        return _conditional(_BVN_PARAMS, label, FiducialStatistic(stat_name, compute),
                            lambda d, p: _BvnSigmaEquation(_bvn_sigma_factor(n, p["rho"])),
                            check_at_start=True)

    return {
        "mu_x": _conditional(
            _BVN_PARAMS, "mu_x",
            FiducialStatistic(
                "sum_x_adj",
                lambda d, p: sx_sum - p["rho"] * math.sqrt(p["sigma_x2"] / p["sigma_y2"]) * sy_sum),
            lambda d, p: _bvn_mean_equation(n, p["sigma_x2"], p["sigma_y2"], p["rho"], p["mu_y"])),
        "mu_y": _conditional(
            _BVN_PARAMS, "mu_y",
            FiducialStatistic(
                "sum_y_adj",
                lambda d, p: sy_sum - p["rho"] * math.sqrt(p["sigma_y2"] / p["sigma_x2"]) * sx_sum),
            lambda d, p: _bvn_mean_equation(n, p["sigma_y2"], p["sigma_x2"], p["rho"], p["mu_x"])),
        "sigma_x2": sigma(
            "sigma_x2", "sigma_x_mle",
            lambda d, p: _bvn_sigma_mle_core(stats, p["mu_x"], p["mu_y"], p["sigma_y2"], p["rho"])),
        "sigma_y2": sigma(
            "sigma_y2", "sigma_y_mle",
            lambda d, p: _bvn_sigma_mle_core(stats_yx, p["mu_y"], p["mu_x"], p["sigma_x2"], p["rho"])),
        "rho": _conditional(
            _BVN_PARAMS, "rho",
            FiducialStatistic(
                "rho_mle",
                lambda d, p: _bvn_rho_mle_core(stats, p["mu_x"], p["mu_y"], p["sigma_x2"], p["sigma_y2"])),
            lambda d, p: rho_equation, check_at_start=True),
    }


def _bvn_validate(data: Dataset):
    x = data.col("x")
    y = data.col("y")
    if x.size != y.size:
        raise DomainError("bivariate_normal needs x and y of equal length")
    if x.size < 3:
        raise DomainError("bivariate_normal needs n >= 3")
    if float(np.std(x)) <= 0.0 or float(np.std(y)) <= 0.0:
        raise DegenerateDataError("bivariate_normal needs non-constant columns")


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

def _closed_form_cond_logpdf(dist_fn):
    def cond(param, v, others, data):
        return log_density(dist_fn(param, others, data), v)
    return cond


_MODELS = {
    "normal": ModelSpec(
        name="normal",
        params=_NORMAL_PARAMS,
        build_conditionals=_normal_build_conditionals,
        simulate=_normal_simulate,
        chain_inits=_normal_chain_inits,
        validate_data=_normal_validate,
        joint_log_kernel=_normal_joint_log_kernel,
        conditional_log_density=_closed_form_cond_logpdf(_normal_conditional_dist),
    ),
    "pareto": ModelSpec(
        name="pareto",
        params=_PARETO_PARAMS,
        build_conditionals=_pareto_build_conditionals,
        simulate=_pareto_simulate,
        chain_inits=_pareto_chain_inits,
        validate_data=_pareto_validate,
        joint_log_kernel=_pareto_joint,
        conditional_log_density=_pareto_conditional_log_density,
    ),
    "quadreg": ModelSpec(
        name="quadreg",
        params=_QUADREG_PARAMS,
        build_conditionals=_quadreg_build_conditionals,
        simulate=_quadreg_simulate,
        chain_inits=_quadreg_chain_inits,
        validate_data=_quadreg_validate,
        joint_log_kernel=_quadreg_joint,
        conditional_log_density=_closed_form_cond_logpdf(_quadreg_conditional_dist),
    ),
    "gamma": ModelSpec(
        name="gamma",
        params=_GAMMA_PARAMS,
        build_conditionals=_gamma_build_conditionals,
        simulate=_gamma_simulate,
        chain_inits=_gamma_chain_inits,
        validate_data=_gamma_validate,
    ),
    "beta": ModelSpec(
        name="beta",
        params=_BETA_PARAMS,
        build_conditionals=_beta_build_conditionals,
        simulate=_beta_simulate,
        chain_inits=_beta_chain_inits,
        validate_data=_beta_validate,
    ),
    "behrens_fisher": ModelSpec(
        name="behrens_fisher",
        params=_BF_PARAMS,
        build_conditionals=_bf_build_conditionals,
        simulate=_bf_simulate,
        chain_inits=_bf_chain_inits,
        validate_data=_bf_validate,
        joint_log_kernel=_bf_joint,
        conditional_log_density=_closed_form_cond_logpdf(_bf_conditional_dist),
    ),
    "bivariate_normal": ModelSpec(
        name="bivariate_normal",
        params=_BVN_PARAMS,
        build_conditionals=_bvn_build_conditionals,
        simulate=_bvn_simulate,
        chain_inits=_bvn_chain_inits,
        validate_data=_bvn_validate,
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
