"""Catalog of model families with full conditional fiducial samplers.

Each family provides, per parameter: a fiducial statistic, a structural
equation (primary random variable plus the map tying the statistic to the
parameter), and the resulting conditional sampler.  Every equation also
gives its pivot, from which the sampler reads the conditional's log
density, which the compatibility check reads.  The printed conditionals
of the closed-form families are not part of the package: the tests keep
them, written independently of the sampler, as oracles.  Every family
ships a forward data simulator.

Families: normal, pareto, quadreg, gamma, beta, behrens_fisher,
bivariate_normal.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from .core import ConditionalFiducialSampler, FiducialStatistic
from .errors import DegenerateDataError, DomainError, EvaluationError, StructuralError
from .randvar import (
    ChiSquare,
    Dist,
    Exponential,
    Gamma,
    Normal,
    RngStream,
    TruncatedNormal,
    block_args,
    unit_rate_gamma,
)
from .specfun import QUADRATIC_STEP, scipy_special as _sp, solve_newton

__all__ = [
    "Dataset",
    "ParamSpec",
    "ModelSpec",
    "MODEL_NAMES",
    "get_model",
    "simulate_dataset",
]

_STANDARD_TRUNC = 5.0
# The standard primaries and the rng.take arguments the kernels draw them with.
_NORMAL_KEY, _NORMAL_FILL, _STD_NORMAL = block_args(Normal(0.0, 1.0))
_TRUNCNORM_KEY, _TRUNCNORM_FILL, _STD_TRUNCNORM = block_args(
    TruncatedNormal(0.0, 1.0, -_STANDARD_TRUNC, _STANDARD_TRUNC))
_EXPONENTIAL_KEY, _EXPONENTIAL_FILL, _STD_EXPONENTIAL = block_args(Exponential(1.0))


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
    """A model family: parameters, conditionals, chain starts, simulator.

    build_conditionals(data) is the one place a dataset is checked: it
    raises DomainError or DegenerateDataError for data the model cannot
    take, before it binds anything.
    """

    name: str
    params: Tuple[ParamSpec, ...]
    build_conditionals: Callable[[Dataset], dict]
    simulate: Callable[[Mapping[str, float], int, RngStream], Dataset]
    chain_inits: Callable[[Dataset, int], list]

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


def _one_sample(data: Dataset, model: str, hi: float, support: str) -> np.ndarray:
    """Column x of a one-sample family's data, checked: n >= 2, inside the
    support (0, hi), which the messages call support, and not all equal."""
    x = data.col("x")
    if x.size < 2:
        raise DomainError(f"{model} model needs n >= 2")
    lo, top = float(np.min(x)), float(np.max(x))
    if not (0.0 < lo and top < hi):
        raise DomainError(f"{model} data must {support}")
    if lo == top:
        raise DegenerateDataError(f"{model} model needs non-constant data")
    return x


def _log_abs(x: float) -> float:
    return math.log(abs(x)) if x else -math.inf


def _conditional(params: Tuple[ParamSpec, ...], label: str, statistic: FiducialStatistic,
                 equation_for, kernel, **options) -> ConditionalFiducialSampler:
    """A catalog conditional whose theta_domain is its parameter's domain
    and whose draw is kernel(lo, hi, sampler.redraw).

    kernel(lo, hi, redraw) returns the fused draw(data, state, rng,
    warnings=None) of this statistic and equation_for: it returns theta
    when lo < theta < hi and otherwise returns redraw(data, state, rng,
    warnings, q) (ConditionalFiducialSampler.redraw).
    """
    p = next(p for p in params if p.label == label)
    sampler = ConditionalFiducialSampler(label, statistic, equation_for, (p.lo, p.hi), **options)
    object.__setattr__(sampler, "draw", kernel(p.lo, p.hi, sampler.redraw))
    return sampler


def _shape_kernel(q: float, solve):
    """The kernel of a shape conditional with the constant statistic q and a
    standard truncated normal primary g: solve(state, g) is the equation's
    invert(q, g), the same arithmetic without building the equation."""
    def kernel(lo, hi, redraw):
        def draw(d, p, rng, warnings=None):
            g = rng.take(_TRUNCNORM_KEY, _TRUNCNORM_FILL, _STD_TRUNCNORM)
            try:
                theta = solve(p, g)
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


# The parameters of the pareto, gamma and beta models.
_ALPHA_BETA = (ParamSpec("alpha", 0.0, math.inf, "scale"),
               ParamSpec("beta", 0.0, math.inf, "scale"))

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


# ---------------------------------------------------------------------------
# Normal samples: normal (one sample) and behrens_fisher (two)
# ---------------------------------------------------------------------------

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
    chi2_key, chi2_fill, chi2_n = block_args(variance.gamma_dist)

    def mean_sq_about_mu(d, p):
        off = xbar - p[mu] + shift
        return spread + off * off

    def mean_kernel(lo, hi, redraw):
        def draw(d, p, rng, warnings=None):
            # _LocationEquation(1.0, 0.0, sd).invert(xbar, g).
            v = p[sigma2]
            if not 0.0 < v < math.inf:
                _pos(v, "sigma2")
            theta = xbar - math.sqrt(v / n) * rng.take(_NORMAL_KEY, _NORMAL_FILL, _STD_NORMAL)
            return theta if lo < theta < hi else redraw(d, p, rng, warnings, xbar)
        return draw

    def variance_kernel(lo, hi, redraw):
        def draw(d, p, rng, warnings=None):
            off = xbar - p[mu] + shift
            q = spread + off * off
            theta = n * q / rng.take(chi2_key, chi2_fill, chi2_n)
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

    return ModelSpec(name, params, build_conditionals, simulate, chain_inits)


# ---------------------------------------------------------------------------
# Pareto model: shape alpha and scale beta
# ---------------------------------------------------------------------------

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
    x = _one_sample(data, "pareto", math.inf, "be positive")
    n, min_x = x.size, float(np.min(x))
    sum_log = float(np.sum(np.log(x)))
    # The alpha primary is Gamma(n, 1), drawn as half a chi^2(2n): a law
    # fixed for the dataset, so it is drawn in blocks.
    chi2_key, chi2_fill, chi2_2n = block_args(ChiSquare(2 * n))

    def alpha_offset(p):
        beta = p["beta"]
        if not 0.0 < beta <= min_x:
            _pos(beta, "beta")
            # Outside the joint's support: the alpha conditional does not exist.
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
            theta = 0.5 * rng.take(chi2_key, chi2_fill, chi2_2n) / (sum_log - off)
            return theta if lo < theta < hi else redraw(d, p, rng, warnings, sum_log)
        return draw

    def beta_kernel(lo, hi, redraw):
        def draw(d, p, rng, warnings=None):
            # _ParetoBetaEquation(n alpha).invert(min_x, g).
            alpha = p["alpha"]
            if not 0.0 < alpha < math.inf:
                _pos(alpha, "alpha")
            g = rng.take(_EXPONENTIAL_KEY, _EXPONENTIAL_FILL, _STD_EXPONENTIAL)
            theta = min_x * math.exp(-g / (n * alpha))
            return theta if lo < theta < hi else redraw(d, p, rng, warnings, min_x)
        return draw

    return {
        "alpha": _conditional(
            _ALPHA_BETA, "alpha", FiducialStatistic("sum_log_x", lambda d, p: sum_log),
            lambda d, p: _RateEquation(chi2_2n, alpha_offset(p), 0.5), alpha_kernel),
        "beta": _conditional(
            _ALPHA_BETA, "beta", FiducialStatistic("min_x", lambda d, p: min_x),
            lambda d, p: _ParetoBetaEquation(n * _pos(p["alpha"], "alpha")), beta_kernel),
    }


def _pareto_chain_inits(data: Dataset, chains: int) -> list:
    x = data.col("x")
    m = float(np.min(x))
    denom = float(np.sum(np.log(x / m)))
    alpha = x.size / denom if denom > 0.0 else 1.0
    return [{"alpha": alpha * _SCALE_FACTORS[c % len(_SCALE_FACTORS)],
             "beta": m * (0.95 * _SHRINKS[c % len(_SHRINKS)])} for c in range(chains)]


def _pareto_simulate(theta: Mapping[str, float], n: int, rng: RngStream) -> Dataset:
    alpha, beta = _pos(theta["alpha"], "alpha"), _pos(theta["beta"], "beta")
    return Dataset({"x": beta * np.exp(rng.gen.exponential(1.0 / alpha, size=n))})


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
    bhat solves R bhat = Q'y by back-substitution in Python floats, each
    row's sum of known terms taken before the subtraction; on about a
    quarter of random designs its last bits differ from LAPACK's triangular
    solve, and w takes up the difference.
    An R with a zero or non-finite diagonal, or an rss_min at most
    (n eps)^2 y'y, rounding, raises DegenerateDataError.
    """
    q, r = np.linalg.qr(np.column_stack([np.ones_like(x), x, x * x]))
    (r00, r01, r02), (_, r11, r12), (_, _, r22) = r.tolist()
    if not all(math.isfinite(d) and d != 0.0 for d in (r00, r11, r22)):
        raise DegenerateDataError("design [1, x, x^2] is singular or overflows in floating point")
    z0, z1, z2 = (q.T @ y).tolist()
    h2 = z2 / r22
    h1 = (z1 - r12 * h2) / r11
    h0 = (z0 - (r01 * h1 + r02 * h2)) / r00
    resid = y - h0 - h1 * x - h2 * x * x
    w = q.T @ resid
    rest = resid - q @ w
    rss_min = float(rest @ rest)
    if rss_min <= (x.size * 2.0 ** -52) ** 2 * float(y @ y):
        raise DegenerateDataError("y is a quadratic in x: the residual sum of squares is zero")
    w0, w1, w2 = w.tolist()

    def rss(b0, b1, b2):
        d0, d1, d2 = b0 - h0, b1 - h1, b2 - h2
        t0 = r00 * d0 + r01 * d1 + r02 * d2 - w0
        t1 = r11 * d1 + r12 * d2 - w1
        t2 = r22 * d2 - w2
        return rss_min + (t0 * t0 + t1 * t1 + t2 * t2)

    return rss


def _quadreg_coef_equation(statistic_coef: float, mean_offset: float,
                           sigma2: float) -> _LocationEquation:
    # Statistic = coef * theta + offset + sqrt(sigma2 * coef) * gamma.
    sd = math.sqrt(_pos(sigma2, "sigma2") * statistic_coef)
    return _LocationEquation(statistic_coef, mean_offset, sd)


def _quadreg_build_conditionals(data: Dataset) -> dict:
    x, y = data.col("x"), data.col("y")
    if x.size != y.size:
        raise DomainError("quadreg needs x and y of equal length")
    if x.size < 2:
        raise DomainError("quadreg needs n >= 2")
    # The build's sums are at most n max(x^4, y^2), as x^2 |y| is at most
    # their mean; below a sixteenth of the float range no product, sum or
    # QR step overflows.
    ax, ay, room = float(np.max(np.abs(x))), float(np.max(np.abs(y))), sys.float_info.max / 16
    if ax > (room / x.size) ** 0.25 or ay > (room / x.size) ** 0.5:
        raise DegenerateDataError(
            f"quadreg data overflow in floating point: with max |x| = {ax:.6g} and "
            f"max |y| = {ay:.6g}, n max(x^4, y^2) passes {room:.6g}")
    # [1, x, x^2] has full column rank exactly when x takes three values.
    if np.unique(x).size < 3:
        raise DegenerateDataError("design is degenerate: x takes fewer than three distinct values")
    rss_at = _quadreg_rss_form(x, y)
    variance = _VarianceEquation(ChiSquare(x.size), 1)
    chi2_key, chi2_fill, chi2_n = block_args(variance.gamma_dist)

    def rss_stat(d, p):
        # At least rss_min, which the build checked to be positive.
        return rss_at(p["beta0"], p["beta1"], p["beta2"])

    def coef(j, stat_name):
        stat, scale, ((la, ca), (lb, cb)) = _quadreg_normal_equation(j, x, y)

        def kernel(lo, hi, redraw):
            def draw(d, p, rng, warnings=None):
                # _quadreg_coef_equation(scale, off, sigma2).invert(stat, g).
                off = p[la] * ca + p[lb] * cb
                v = p["sigma2"]
                if not 0.0 < v < math.inf:
                    _pos(v, "sigma2")
                g = rng.take(_NORMAL_KEY, _NORMAL_FILL, _STD_NORMAL)
                theta = (stat - off - math.sqrt(v * scale) * g) / scale
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
            theta = q / rng.take(chi2_key, chi2_fill, chi2_n)
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
    x, y = data.col("x"), data.col("y")
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


def _shape_solve(c: float, g: float, n: int, b: Optional[float], scratch) -> float:
    """Solve offset(a) + g * sqrt(slope(a) / n) = c for a > 0 (_shape_fdf):
    the gamma shape when b is None, else a beta shape with other shape b and
    c < 0, whose special functions go through the buffers in scratch.

    In u = log a the map's slope is a slope(a) (1 - k / r(a)), with
    k = g / sqrt n and r = 2 slope^(3/2) / -slope', which rises from 1 to
    inf for the gamma shape and moves from 1 to sqrt b for a beta shape.
    A beta map with k >= max(1, sqrt b) decreases to -c > 0: no root.  At
    k = 1 the others rise from -Euler's gamma - psi(b) - c at a -> 0 (psi(b)
    = 0 for the gamma shape): no root where that limit is not negative.
    Below the certificate (gamma < sqrt n, or sqrt(n min(1, b)) for a beta
    shape) or else where k <= 1, the map increases, or rises to one maximum
    and falls to -c > 0 (a beta shape with b < 1): one crossing, and the
    solve starts from _shape_start.  Otherwise the map falls to one minimum
    at r(a*) = k (_shape_minimum) and rises: where its value there is not
    negative there is no root, and else the solve returns the larger root,
    continuous with the certified region, on a bracket that starts at a*.

    The first value, slope and curvature bound of _shape_fdf at the start
    certify the Newton step from it when the step is at most
    QUADRATIC_STEP and |f''| step^2 <= 1e-13 f': the error that the step
    leaves, |f''/(2 f')| step^2 to third order, is then at most half the
    tolerance, and the other half covers the change of f' and f'' over a
    step that short.  Otherwise the first value fixes one end of the
    bracket at the start, a* or the elementary bounds of _shape_bounds
    certify the other without a special function, and Newton in log a
    (solve_newton) runs from the start until the quadratic-convergence
    bound certifies its last step.  A solve that fails raises
    StructuralError.
    """
    k = g / math.sqrt(n)
    certified = g * g < n * (1.0 if b is None else min(1.0, b))
    if not certified and b is not None and k >= max(1.0, math.sqrt(b)):
        raise StructuralError("the map decreases to -c > 0: no shape solves the equation")
    if k == 1.0 and c <= -_EULER_GAMMA - (0.0 if b is None else float(_sp.psi(b))):
        raise StructuralError("the map rises from a limit >= 0: no shape solves the equation")
    floor = None
    try:
        if certified or k <= 1.0:
            u = math.log(_shape_start(c, k, b))
        else:
            floor, curvature = _shape_minimum(k, b)
            f_min = _shape_fdf(floor, c, g, n, b, scratch)[0]
            if not f_min < 0.0:
                raise StructuralError("the map's minimum is not negative: no shape solves the "
                                      "equation", minimum=f_min, shape=math.exp(floor))
            # _shape_start's steps stop where the map does not increase, so
            # from a first point on the falling branch they end below a*;
            # the root of the map's quadratic model at a* is the start there.
            u = max(math.log(_shape_start(c, k, b)), floor + (
                math.sqrt(-2.0 * f_min / curvature) if 0.0 < curvature < math.inf else 1.0))
        fu, du, curvature = _shape_fdf(u, c, g, n, b, scratch)
        if not math.isfinite(fu):
            raise EvaluationError(f"non-finite target function value at a={math.exp(u)}")
        if fu == 0.0:
            return math.exp(u)
        if 0.0 < du < math.inf:
            step = fu / du
            if abs(step) <= QUADRATIC_STEP and curvature * step * step <= 1e-13 * du:
                return math.exp(u - step)
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
            elif floor is not None:
                # f(floor) < 0 was evaluated.
                lo = floor
                break
            else:
                lo = u - width
                if lo < _LOG_SHAPE_MIN:
                    raise StructuralError("no lower bracket: target function stays positive")
                _, off_hi, s_lo, s_hi = _shape_bounds(math.exp(lo), b)
                if off_hi + g * math.sqrt((s_hi if g_up else s_lo) / n) < c:
                    break
            width *= 2.0
        return math.exp(solve_newton(_shape_fdf, lo, hi, u, fu, du, 1e-13,
                                     args=(c, g, n, b, scratch)))
    except EvaluationError as exc:
        raise StructuralError(f"root isolation failed: {exc}") from exc


# The elementary shape map.  _shape_series sums the asymptotic series of psi
# (Abramowitz & Stegun 6.3.18),
#   psi(z) = log z - 1/(2z) - 1/(12z^2) + 1/(120z^4) - 1/(252z^6) + 1/(240z^8),
# and the series of its first three derivatives that follow from it to the
# same power of 1/z, after the recurrences psi(x) = psi(x + 1) - 1/x,
# psi'(x) = psi'(x + 1) + 1/x^2, ... have carried x up to z >= z_min.  The
# first term left out of psi is 1/(132z^10): at z_min = _START_SHIFT psi is
# within 8e-10 and psi' within 8e-9 relative, psi'' within 1e-6 and psi'''
# within 4e-6, and at _SERIES_SHIFT the offset and slope of a beta shape are
# within 1e-13 relative and their derivatives within 1e-10.
_START_SHIFT, _SERIES_SHIFT = 5.0, 20.0
# _shape_parts forms a beta shape's differences from the series beyond this
# ratio a / b, where psi(a) - psi(a + b) from the ufunc would lose more than
# about 1e-13 of its value to cancellation (an error of order eps * a / b).
_SERIES_RATIO = 64.0


def _shape_series(a, b, z_min):
    """(offset(a), slope(a), d slope / da, d^2 slope / da^2) of a shape map,
    as _shape_parts gives them, in pure Python floats: the recurrences up to
    z >= z_min, then the asymptotic series at z.

    For a beta shape each difference psi^(m)(a) - psi^(m)(a + b) is formed
    directly, so it keeps its relative accuracy however small b / a is:
    a step of the recurrence adds multiples of x - y = b x y (x = 1/a,
    y = 1/(a + b)), the series starts from -log1p(b / z), and each
    x^p - y^p (now x = 1/z, y = 1/(z + b)) is x (x^(p-1) - y^(p-1)) +
    y^(p-1) (x - y), a sum of positive terms.
    """
    off = s = ds = dds = 0.0
    if b is None:
        while a < z_min:
            x = 1.0 / a
            x2 = x * x
            off -= x
            s += x2
            ds -= 2.0 * x2 * x
            dds += 6.0 * x2 * x2
            a += 1.0
        x = 1.0 / a
        w = x * x
        return (off + math.log(a) - 0.5 * x
                - w * (1 / 12 - w * (1 / 120 - w * (1 / 252 - w / 240))),
                s + x + 0.5 * w + x * w * (1 / 6 - w * (1 / 30 - w * (1 / 42 - w / 30))),
                ds - w * (1.0 + x + w * (0.5 - w * (1 / 6 - w / 6))),
                dds + x * w * (2.0 + 3.0 * x + w * (2.0 - w * (1.0 - 4 / 3 * w))))
    while a < z_min:
        x = 1.0 / a
        y = 1.0 / (a + b)
        e = b * x * y
        off -= e
        s += e * (x + y)
        ds -= 2.0 * e * (x * x + x * y + y * y)
        dds += 6.0 * e * (x + y) * (x * x + y * y)
        a += 1.0
    x = 1.0 / a
    y = 1.0 / (a + b)
    e1 = b * x * y
    yp = y * y
    e2 = x * e1 + y * e1
    e3 = x * e2 + yp * e1
    yp *= y
    e4 = x * e3 + yp * e1
    yp *= y
    e5 = x * e4 + yp * e1
    yp *= y
    e6 = x * e5 + yp * e1
    yp *= y
    e7 = x * e6 + yp * e1
    yp *= y
    e8 = x * e7 + yp * e1
    yp *= y
    e9 = x * e8 + yp * e1
    return (off - math.log1p(b * x) - 0.5 * e1 - e2 / 12 + e4 / 120 - e6 / 252 + e8 / 240,
            s + e1 + 0.5 * e2 + e3 / 6 - e5 / 30 + e7 / 42 - e9 / 30,
            ds - (e2 + e3 + 0.5 * e4 - e6 / 6 + e8 / 6),
            dds + 2.0 * e3 + 3.0 * e4 + 2.0 * e5 - e7 + 4 / 3 * e9)


def _shape_estimate(a, b):
    """(offset(a), slope(a), d slope / da) of a shape map to about 1e-3: the
    recurrence to a + 2 and the series of psi(z + 1/2) at z = a + 3/2 to the
    term in 1/z^2 (psi within 1.2e-3 and psi' within 2e-4 relative on
    [1e-12, 1e12]).  A beta shape's differences are formed from b, free of
    cancellation, as in _shape_series."""
    p, p1, z = 1.0 / a, 1.0 / (a + 1.0), 1.0 / (a + 1.5)
    if b is None:
        z2 = z * z
        return (-math.log(z) + z2 / 24.0 - p - p1, p * p + p1 * p1 + z - z * z2 / 12.0,
                -2.0 * (p * p * p + p1 * p1 * p1) - z2 + 0.25 * z2 * z2)
    q, q1, w = 1.0 / (a + b), 1.0 / (a + b + 1.0), 1.0 / (a + b + 1.5)
    # p - q, p1 - q1, z - w and z^2 - w^2.
    e, e1, ez = b * p * q, b * p1 * q1, b * z * w
    ez2 = ez * (z + w)
    return (-math.log1p(b * z) + ez2 / 24.0 - e - e1,
            e * (p + q) + e1 * (p1 + q1) + ez - ez * (z * z + z * w + w * w) / 12.0,
            -2.0 * (e * (p * p + p * q + q * q) + e1 * (p1 * p1 + p1 * q1 + q1 * q1))
            - ez2 + 0.25 * ez2 * (z * z + w * w))


# _shape_start's first points, from tables that the first shape solve of a
# process builds (about 8 ms) and reads bilinearly.  The gamma table holds
# log a at the root of psi(a) + k sqrt(psi'(a)) = c on c = -16 + i / 8 and
# log(1 - k) = -3 + j / 8.  With x = a - 1/2, y = b / x and kappa = k /
# sqrt b, psi(x + 1/2) = log x + 1/(24 x^2) + O(x^-4) makes a beta shape's
# map a series in 1 / b^2 at fixed y, led by -log(1 + y) + kappa y /
# sqrt(1 + y) - c; the beta tables hold log y at its root and the root's
# derivative in 1 / b^2 on log(-c) = -8 + i / 16, log(1 - kappa) = -1/4 + j / 32.
_START_TABLES = []


def _start_tables():
    """[gamma, beta log y, its derivative] as lists of rows: roots
    interpolated linearly on the map at 2e-3 steps in log a (log y)."""
    u = np.arange(-7.0, 9.0, 2e-3)
    a = np.exp(u)
    psi, root = _sp.psi(a), np.sqrt(_sp.zeta(2.0, a))
    c = np.arange(193) / 8.0 - 16.0
    gamma = [np.interp(c, psi + k * root, u) for k in -np.expm1(np.arange(38) / 8.0 - 3.0)]
    w = np.arange(-11.0, 3.0, 2e-3)
    y = np.exp(w)
    minus_c = np.exp(np.arange(137) / 16.0 - 8.0)
    kappa = -np.expm1(np.arange(61) / 32.0 - 0.25)
    log_y = np.array([np.interp(minus_c, np.log1p(y) - k * y / np.sqrt(1.0 + y), w)
                      for k in kappa]).T
    y = np.exp(log_y)
    z = 1.0 + y
    # The map's derivatives in 1 / b^2 and in log y at the root.
    d_eps = y * y * (1.0 - z ** -2 - kappa * np.sqrt(z) * (1.0 - z ** -3)) / 24.0
    d_log_y = y * (kappa * (1.0 + 0.5 * y) / z ** 1.5 - 1.0 / z)
    return [np.array(gamma).T.tolist(), log_y.tolist(), (-d_eps / d_log_y).tolist()]


def _shape_start(c: float, k: float, b: Optional[float]) -> float:
    """The start of a shape solve whose map crosses zero once, from (c,
    k = g / sqrt n, b) alone (b None for the gamma shape): the root of
    offset(a) + k sqrt(slope(a)) = c on _shape_series, to about 1e-9 in log a.

    For k < 1 the tables give a first point within 2e-3 of the root: the
    gamma table for c in [-16, 8] and k <= 0.95, the beta tables for -c in
    [3e-4, 1.6], kappa <= 0.22 and a >= 2.  Elsewhere the first point
    inverts the offset, Minka's (2000) exp(c) + 1/2 or -1/(c + Euler's
    gamma) below c = -2.22, or for a beta shape 1/2 + b / (exp(-c) - 1), or
    below a = 1 the root of (k - 1) / a - Euler's gamma - psi(b); Newton
    steps in log a on the map of _shape_estimate follow until one is at
    most 0.05.  Then Halley steps on the map of _shape_series run until one
    is at most 4e-3, usually the first: the cubic convergence leaves under
    about 1e-7.  A step is at most 1; the steps stop where the map does
    not increase.
    """
    if not _START_TABLES:
        _START_TABLES.extend(_start_tables())
    a = 0.0
    if k < 1.0 and b is None:
        x, y = 8.0 * c + 128.0, 8.0 * math.log1p(-k) + 24.0
        if 0.0 <= x < 192.0 and 0.0 <= y < 37.0:
            i, j = int(x), int(y)
            low, high = _START_TABLES[0][i], _START_TABLES[0][i + 1]
            y -= j
            t = low[j] + y * (low[j + 1] - low[j])
            a = math.exp(t + (x - i) * (high[j] + y * (high[j + 1] - high[j]) - t))
    elif k < 1.0:
        # On the leading terms -c <= y max(1, 1 - kappa): past this a < 2.
        kappa = k / math.sqrt(b)
        if kappa < 1.0 and b * (1.0 - kappa if kappa < 0.0 else 1.0) >= -1.5 * c:
            x, y = 16.0 * math.log(-c) + 128.0, 32.0 * math.log1p(-kappa) + 8.0
            if 0.0 <= x < 136.0 and 0.0 <= y < 60.0:
                i, j = int(x), int(y)
                x, y = x - i, y - j
                low, high = _START_TABLES[1][i], _START_TABLES[1][i + 1]
                t = low[j] + y * (low[j + 1] - low[j])
                t += x * (high[j] + y * (high[j + 1] - high[j]) - t)
                low, high = _START_TABLES[2][i], _START_TABLES[2][i + 1]
                e = low[j] + y * (low[j + 1] - low[j])
                e += x * (high[j] + y * (high[j + 1] - high[j]) - e)
                a = b * math.exp(-t - e / (b * b)) + 0.5
                a = a if a >= 2.0 else 0.0
    if a:
        # One Halley step on the series, as in the loop below, ends the start.
        off, s, ds, dds = _shape_series(a, b, _START_SHIFT)
        rs = math.sqrt(s)
        h = s + 0.5 * k * ds / rs
        step = (off + k * rs - c) / (a * h)
        den = 1.0 - 0.5 * step * (1.0 + a * (ds + 0.5 * k * (dds - 0.5 * ds * ds / s) / rs) / h)
        if 0.5 < den and -4e-3 * den <= step <= 4e-3 * den:
            return a * math.exp(-step / den)
    else:
        if b is None:
            a = math.exp(min(c, 600.0)) + 0.5 if c >= -2.22 else -1.0 / (c + _EULER_GAMMA)
        else:
            a = 0.5 + b / math.expm1(min(-c, 700.0))
            if a < 1.0:
                iz = 1.0 / (b + 1.5)
                small = c + _EULER_GAMMA + (-math.log(iz) + iz * iz / 24.0 - 1.0 / b - 1.0 / (b + 1.0))
                if small < 0.0:
                    a = min(a, (k - 1.0) / small)
        a = a if _SHAPE_MIN <= a <= _SHAPE_MAX else _SHAPE_MAX if a > _SHAPE_MAX else _SHAPE_MIN
        # An infinite slope gives an infinite or undefined h, which ends a loop.
        for _ in range(20):
            off, s, ds = _shape_estimate(a, b)
            if not s > 0.0:
                break
            rs = math.sqrt(s)
            h = s + 0.5 * k * ds / rs
            if not 0.0 < h < math.inf:
                break
            step = (off + k * rs - c) / (a * h)
            if -0.05 <= step <= 0.05:
                a *= math.exp(-step)
                break
            a *= math.exp(-1.0 if step > 1.0 else 1.0 if step < -1.0 else -step)
    for _ in range(20):
        off, s, ds, dds = _shape_series(a, b, _START_SHIFT)
        if not s > 0.0:
            break
        rs = math.sqrt(s)
        h = s + 0.5 * k * ds / rs
        if not 0.0 < h < math.inf:
            break
        step = (off + k * rs - c) / (a * h)
        # Halley's correction, where the curvature keeps it moderate.
        den = 1.0 - 0.5 * step * (1.0 + a * (ds + 0.5 * k * (dds - 0.5 * ds * ds / s) / rs) / h)
        if den > 0.5:
            step /= den
        if -4e-3 <= step <= 4e-3:
            a *= math.exp(-step)
            break
        a *= math.exp(-1.0 if step > 1.0 else 1.0 if step < -1.0 else -step)
    return min(max(a, _SHAPE_MIN), _SHAPE_MAX)


def _shape_minimum(k: float, b: Optional[float]) -> Tuple[float, float]:
    """(log a*, d^2f / du^2 near a*) for the minimum a* of the shape map f
    of _shape_solve in u = log a, k > 1 (and k < sqrt b for a beta shape):
    the root of r(a*) = k, by Newton steps in log a on log r, from r ~ 1 +
    1.5 zeta(2) a^2 near 0 and r ~ 2 sqrt a far from it, on _shape_series
    to z >= _START_SHIFT (r within 1e-6) until one is at most 1e-5, then
    one to z >= _SERIES_SHIFT.  The error left, about 1e-9 in u, moves
    f(a*) by its square.  A step is at most 1; one whose derivative is lost
    to rounding (a -> 0) steps up.
    """
    log_k = math.log(k)
    a = math.sqrt((k - 1.0) / 2.467) + 0.25 * (k * k - 1.0)
    curvature = math.nan
    z_min = _START_SHIFT
    for _ in range(50):
        _, s, ds, dds = _shape_series(a, b, z_min)
        if not s > 0.0 > ds:
            break
        rs = math.sqrt(s)
        curvature = a * a * (ds + 0.5 * k * (dds - 0.5 * ds * ds / s) / rs)
        slope = a * (1.5 * ds / s - dds / ds)
        step = (math.log(2.0 * s * rs / -ds) - log_k) / slope if slope > 0.0 else -1.0
        a *= math.exp(-1.0 if step > 1.0 else 1.0 if step < -1.0 else -step)
        if z_min == _SERIES_SHIFT:
            break
        if -1e-5 <= step <= 1e-5:
            z_min = _SERIES_SHIFT
    return math.log(a), curvature


# Orders of the Hurwitz zeta for psi' and psi'' (psi''(a) = -2 zeta(3, a)),
# for one argument and for the arguments [a, a + b, a, a + b].
_ZETA_ORDERS = np.array([2.0, 3.0])
_ZETA_ORDERS_PAIR = np.array([2.0, 2.0, 3.0, 3.0])
_EULER_GAMMA = 0.5772156649015329


def _shape_parts(a, b, scratch):
    """(offset(a), slope(a), d slope / da, bound) of a shape map: offset is
    psi(a) for the gamma shape (b None), whose zeta values go into the
    2-buffer scratch, and psi(a) - psi(a + b) for a beta shape, whose zeta
    values go through scratch = (arguments, out), two 4-buffers; slope =
    offset'.  It calls the Hurwitz zeta ufunc that scipy.special.zeta wraps,
    so the values are the same bits, into buffers that save the ufunc
    making an array per call.  A beta shape with a > _SERIES_RATIO * b
    takes its differences from _shape_series instead, free of
    cancellation.

    bound >= d^2 slope / da^2 > 0, for the curvature of _shape_fdf: psi'''
    is positive and decreasing, so the second derivative of either slope
    lies in (0, psi'''(a)], and psi'''(a) = 6 zeta(4, a) <= 2/a^3 + 6/a^4
    (the sum over a + j, j >= 1, is below its integral from a).  The series
    gives the derivative itself."""
    if b is None:
        off = float(_sp.psi(a))
        z2, z3 = _sp._ufuncs._zeta(_ZETA_ORDERS, a, scratch).tolist()
    elif a > _SERIES_RATIO * b:
        return _shape_series(a, b, _SERIES_SHIFT)
    else:
        ab = a + b
        buf, zeta_out = scratch
        buf[0] = buf[2] = a
        buf[1] = buf[3] = ab
        z2_a, z2_ab, z3_a, z3_ab = _sp._ufuncs._zeta(_ZETA_ORDERS_PAIR, buf, zeta_out).tolist()
        off, z2, z3 = float(_sp.psi(a)) - float(_sp.psi(ab)), z2_a - z2_ab, z3_a - z3_ab
    return off, z2, -2.0 * z3, (2.0 + 6.0 / a) / a / a / a


def _shape_fdf(u, c, g, n, b, scratch):
    """(f, df / du, curvature) of the shape map f = offset(a) +
    g sqrt(slope(a) / n) - c at a = exp(u), from one _shape_parts call:
    offset' = slope, and curvature >= |d^2f / du^2| from the bound of
    _shape_parts.  A non-positive slope raises EvaluationError."""
    a = math.exp(u)
    off, s, ds, dds = _shape_parts(a, b, scratch)
    if not s > 0.0:
        raise EvaluationError(f"non-positive variance term at a={a}")
    r = math.sqrt(s / n)
    h = s + 0.5 * g * ds / (n * r)
    # d^2f / du^2 = a h + a^2 (ds + g (dds - ds^2 / (2 s)) / (2 n r)).
    return (off + g * r - c, a * h,
            a * (abs(h) + a * (abs(ds) + 0.5 * abs(g) * (dds + 0.5 * ds * ds / s) / (n * r))))


def _clt_phi(g, n, parts):
    """n offset(a) + g sqrt(n slope(a)) for parts = (offset(a), slope(a),
    ...) of _shape_parts, free of cancellation for a beta shape."""
    return n * parts[0] + g * math.sqrt(n * parts[1])


def _clt_pivot(q, n, parts):
    """(g, log|dg/da|) of g(a) = (q - n offset(a)) / sqrt(n slope(a)), for
    parts = (offset(a), slope(a), d slope / da, ...) of _shape_parts:
    dg/da = -(R + g slope' / (2 slope)) with R = sqrt(n slope)."""
    off, s, ds = parts[:3]
    root = math.sqrt(n * s)
    g = (q - n * off) / root
    return g, _log_abs(root + 0.5 * g * ds / s)


class _GammaShapeEquation:
    """The CLT equation for the shape given the rate beta:
    sum(log x) = n (psi(a) - log beta) + gamma * sqrt(n psi'(a)), with gamma
    standard normal truncated to [-5, 5], solved by _shape_solve from
    (q, gamma, beta) alone, so a draw does not depend on the chain state.
    pivot(q, a) is the CLT equation solved for gamma.
    """

    gamma_dist = _STD_TRUNCNORM

    def __init__(self, n: int, beta: float, scratch):
        self.n, self.log_beta, self.scratch = n, math.log(beta), scratch

    def invert(self, q, g):
        return _shape_solve(q / self.n + self.log_beta, g, self.n, None, self.scratch)

    def phi(self, g, a):
        return _clt_phi(g, self.n, _shape_parts(a, None, self.scratch)) - self.n * self.log_beta

    def pivot(self, q, a):
        return _clt_pivot(q + self.n * self.log_beta, self.n, _shape_parts(a, None, self.scratch))


def _gamma_build_conditionals(data: Dataset) -> dict:
    x = _one_sample(data, "gamma", math.inf, "be positive")
    n = x.size
    sum_x = float(np.sum(x))
    sum_log = float(np.sum(np.log(x)))

    # The zeta values of every shape solve of this conditional; a run makes
    # its draws one at a time.
    scratch = np.empty(2)

    def alpha_equation(d, p):
        return _GammaShapeEquation(n, p["beta"], scratch)

    def rate_kernel(lo, hi, redraw):
        def draw(d, p, rng, warnings=None):
            # _RateEquation(Gamma(n alpha, 1.0), 0.0).invert(sum_x, g) is
            # 1.0 * g / (sum_x - 0.0), and sum_x > 0.
            alpha = p["alpha"]
            if not 0.0 < alpha < math.inf:
                _pos(alpha, "alpha")
            theta = unit_rate_gamma(n * alpha, rng) / sum_x
            return theta if lo < theta < hi else redraw(d, p, rng, warnings, sum_x)
        return draw

    return {
        "alpha": _conditional(
            _ALPHA_BETA, "alpha", FiducialStatistic("sum_log_x", lambda d, p: sum_log),
            alpha_equation, _shape_kernel(sum_log, lambda p, g: _shape_solve(
                sum_log / n + math.log(p["beta"]), g, n, None, scratch)), check_at_start=True),
        "beta": _conditional(
            _ALPHA_BETA, "beta", FiducialStatistic("sum_x", lambda d, p: sum_x),
            lambda d, p: _RateEquation(Gamma(n * _pos(p["alpha"], "alpha"), 1.0), 0.0),
            rate_kernel),
    }


def _gamma_chain_inits(data: Dataset, chains: int) -> list:
    x = data.col("x")
    m, v = float(np.mean(x)), max(float(np.var(x, ddof=1)), 1e-12)
    base = {"alpha": max(m * m / v, 1e-3), "beta": max(m / v, 1e-3)}
    return _disperse(base, _ALPHA_BETA, {}, chains)


def _gamma_simulate(theta: Mapping[str, float], n: int, rng: RngStream) -> Dataset:
    alpha, beta = _pos(theta["alpha"], "alpha"), _pos(theta["beta"], "beta")
    return Dataset({"x": rng.gen.gamma(alpha, 1.0 / beta, size=n)})


# ---------------------------------------------------------------------------
# Beta model: shapes alpha and beta
# ---------------------------------------------------------------------------

class _BetaShapeEquation:
    """The CLT equation for one beta shape given the other shape b:
    q = n (psi(a) - psi(a + b)) + gamma * sqrt(n (psi'(a) - psi'(a + b))),
    with gamma standard normal truncated to [-5, 5], solved by _shape_solve
    from (q, gamma, b) alone.  pivot(q, a) is the CLT equation solved for
    gamma.
    """

    gamma_dist = _STD_TRUNCNORM

    def __init__(self, n: int, b: float, scratch):
        self.n, self.b, self.scratch = n, b, scratch

    def invert(self, q, g):
        c = q / self.n
        if not c < 0.0:
            # _shape_solve rests on -c > 0, the map's limit as a -> inf.  The
            # statistic, a sum of logs of data in (0, 1), is negative; below
            # the certificate a statistic that is not has no root.
            raise StructuralError("statistic not negative: no shape solves the equation",
                                  statistic_value=q)
        return _shape_solve(c, g, self.n, self.b, self.scratch)

    def phi(self, g, a):
        return _clt_phi(g, self.n, _shape_parts(a, self.b, self.scratch))

    def pivot(self, q, a):
        return _clt_pivot(q, self.n, _shape_parts(a, self.b, self.scratch))


def _beta_build_conditionals(data: Dataset) -> dict:
    x = _one_sample(data, "beta", 1.0, "lie strictly inside (0, 1)")
    n = x.size
    sum_log = float(np.sum(np.log(x)))
    sum_log1m = float(np.sum(np.log1p(-x)))
    # Scratch buffers for the solver iterations of every draw of these two
    # conditionals; a run makes its draws one at a time.
    scratch = (np.empty(4), np.empty(4))

    def shape(label, stat_name, q, other):
        def equation_for(d, p):
            return _BetaShapeEquation(n, p[other], scratch)

        # q / n < 0 for data in (0, 1), as _BetaShapeEquation.invert checks.
        return _conditional(_ALPHA_BETA, label, FiducialStatistic(stat_name, lambda d, p: q),
                            equation_for, _shape_kernel(q, lambda p, g: _shape_solve(
                                q / n, g, n, p[other], scratch)), check_at_start=True)

    return {
        "alpha": shape("alpha", "sum_log_x", sum_log, "beta"),
        "beta": shape("beta", "sum_log_1mx", sum_log1m, "alpha"),
    }


def _beta_chain_inits(data: Dataset, chains: int) -> list:
    x = data.col("x")
    m, v = float(np.mean(x)), max(float(np.var(x, ddof=1)), 1e-12)
    common = max(m * (1.0 - m) / v - 1.0, 1e-2)
    base = {"alpha": max(m * common, 1e-2), "beta": max((1.0 - m) * common, 1e-2)}
    return _disperse(base, _ALPHA_BETA, {}, chains)


def _beta_simulate(theta: Mapping[str, float], n: int, rng: RngStream) -> Dataset:
    alpha, beta = _pos(theta["alpha"], "alpha"), _pos(theta["beta"], "beta")
    return Dataset({"x": rng.gen.beta(alpha, beta, size=n)})


# ---------------------------------------------------------------------------
# Bivariate normal model
# ---------------------------------------------------------------------------

# The smallest normal float.
_MIN_NORMAL = 2.0 ** -1022


def _sqrt_product(u: float, v: float) -> float:
    """sqrt(u v) for positive u and v, also where u v is not a normal float.

    Where it is, this is math.sqrt(u * v).  Elsewhere an even power of two
    comes out of each factor, exactly, before the product, and its square
    root goes back in after the square root, so the result scales by 2^k
    when u and v scale by 2^2k and keeps its bits where u v is normal.
    """
    w = u * v
    if _MIN_NORMAL <= w < math.inf:
        return math.sqrt(w)
    eu, ev = math.frexp(u)[1] // 2, math.frexp(v)[1] // 2
    return math.ldexp(math.sqrt(math.ldexp(u, -2 * eu) * math.ldexp(v, -2 * ev)), eu + ev)


# The interval the rho statistic is clipped to.
_RHO_MLE_BRACKET = (-1.0 + 1e-9, 1.0 - 1e-9)
# The exponent of the rho statistic's cube roots.
_THIRD = 1.0 / 3.0
# The sigma statistic solves its quadratic unscaled where every
# |coefficient| lies in [_QUAD_TINY, _QUAD_HUGE].
_QUAD_TINY, _QUAD_HUGE = 2.0 ** -250, 2.0 ** 250


def _bvn_sigma_root(a: float, b: float, c: float) -> float:
    """The positive root of a t^2 + b t + c for a > 0 > c where the sigma
    statistic's unscaled solve does not serve: a coefficient outside
    [2^-250, 2^250] (b = 0 included), or a root that the polish left at
    t <= 0.

    The roots are those of the quadratic divided by the power of two 2^e of
    its largest coefficient: the division is exact, b^2 - 4ac cannot
    overflow, and inside that range the bits are the unscaled ones.  The
    division may underflow sa to 0 (the root of the linear part is taken)
    or sc to -0.0.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not math.isfinite(v):
            raise DomainError(f"coefficient {name} must be finite, got {v}")
    e = math.frexp(max(abs(a), abs(b), abs(c)))[1]
    sa, sb, sc = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
    if sa == 0.0:
        if sb == 0.0:
            raise DegenerateDataError("degenerate quadratic: a = b = 0")
        t = -sc / sb
    else:
        sq = math.sqrt(sb * sb - 4.0 * sa * sc)
        # Stable form: the roots q / sa and sc / q have the signs of q and
        # -q, and q = 0 is a double root at 0.
        q = -0.5 * (sb + math.copysign(sq, sb)) if sb != 0.0 else 0.5 * sq
        t = q / sa if q >= 0.0 else sc / q
    if not t > 0.0:
        raise DegenerateDataError(f"quadratic {a}t^2 + {b}t + {c} has no positive root")
    for _ in range(2):
        deriv = 2.0 * sa * t + sb
        if deriv != 0.0:
            t -= (sa * t * t + sb * t + sc) / deriv
    if t <= 0.0:
        raise DegenerateDataError("positive root collapsed to zero after polishing")
    return t


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
    bracket = (-1.0 + 1e-12, 1.0 - 1e-12)

    def __init__(self, n: int):
        self.sqrt_n = math.sqrt(n)

    def phi(self, g, r):
        return r + (1.0 - r * r) * g / (self.sqrt_n * math.sqrt(1.0 + r * r))

    def invert(self, q, g):
        lo, hi = self.bracket
        sqrt_n = self.sqrt_n
        # For |g| <= 100 sqrt(n), phi(g, lo) and phi(g, hi) lie within
        # (1 - lo^2) |g| / (sqrt(n) sqrt(1 + lo^2)) <= 1.5e-10 of lo and hi,
        # and a q within the rho statistic's clip is 1e-9 - 1e-12 inside
        # them: the sign check cannot fail.
        if not (_RHO_MLE_BRACKET[0] <= q <= _RHO_MLE_BRACKET[1] and abs(g) <= 100.0 * sqrt_n):
            f_lo, f_hi = self.phi(g, lo) - q, self.phi(g, hi) - q
            if not f_lo < 0.0 < f_hi:
                raise StructuralError(
                    f"no correlation solves the equation: no sign change on [{lo}, {hi}]: "
                    f"phi - q = {f_lo:.6g} and {f_hi:.6g}", statistic_value=q, gamma=g)
        # solve_newton(fdf, lo, hi, x, fx, dx, 1e-13) from
        # x = q clipped, with fdf(r) = (phi(g, r) - q, d phi / dr) written
        # inline: the same operations in the same order, so the same bits.
        k = g / sqrt_n
        x = min(max(q, lo), hi)
        r2 = 1.0 + x * x
        root = math.sqrt(r2)
        fx = x + (1.0 - x * x) * g / (sqrt_n * root) - q
        dx = 1.0 - k * x * (2.0 + r2) / (r2 * root)
        before_last = last = 2.0 * (hi - lo)
        px = pdx = None
        for _ in range(200):
            step = fx / dx if 0.0 < dx < math.inf else math.inf
            new = x - step
            size = abs(step)
            if size <= 1e-13:
                return min(max(new, lo), hi)
            if (pdx is not None and size <= QUADRATIC_STEP and lo < new < hi
                    and abs(dx - pdx) * step * step <= 2e-13 * dx * abs(x - px)):
                return new
            if not (lo < new < hi and size <= 0.5 * before_last):
                size = 0.5 * (hi - lo)
                new = lo + size
                if size <= 1e-13:
                    return new
            before_last, last = last, size
            px, pdx = x, dx
            r2 = 1.0 + new * new
            root = math.sqrt(r2)
            fx = new + (1.0 - new * new) * g / (sqrt_n * root) - q
            dx = 1.0 - k * new * (2.0 + r2) / (r2 * root)
            if not math.isfinite(fx):
                raise EvaluationError(f"non-finite target function value at x={new}")
            if fx == 0.0:
                return new
            if fx < 0.0:
                lo = new
            else:
                hi = new
            x = new
        raise EvaluationError(f"Newton iteration did not converge in [{lo}, {hi}]")

    def pivot(self, q, r):
        u, v2, w = q - r, 1.0 + r * r, 1.0 - r * r
        v = math.sqrt(v2)
        # d/dr [u v / w] = (u r (3 + r^2) - w v^2) / (v w^2).
        return (self.sqrt_n * u * v / w,
                _log_abs(self.sqrt_n * (u * r * (2.0 + v2) - w * v2) / (v * w * w)))


def _bvn_build_conditionals(data: Dataset) -> dict:
    x, y = data.col("x"), data.col("y")
    n = x.size
    if y.size != n:
        raise DomainError("bivariate_normal needs x and y of equal length")
    if n < 3:
        raise DomainError("bivariate_normal needs n >= 3")
    if float(np.std(x)) <= 0.0 or float(np.std(y)) <= 0.0:
        raise DegenerateDataError("bivariate_normal needs non-constant columns")
    sx, sy = float(np.sum(x)), float(np.sum(y))
    sxx, syy, sxy = float(np.dot(x, x)), float(np.dot(y, y)), float(np.dot(x, y))
    neg_n = -float(n)
    # The clip of the rho statistic, and the padded interval whose roots
    # are clipped into it rather than rejected.
    rho_lo, rho_hi = _RHO_MLE_BRACKET
    pad = 1e-12 * max(1.0, rho_hi - rho_lo)
    pad_lo, pad_hi = rho_lo - pad, rho_hi + pad
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
                theta = (q - off - sd * rng.take(_NORMAL_KEY, _NORMAL_FILL, _STD_NORMAL)) / n
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
            a, b, c = n * (1.0 - rho * rho), rho * c_xy / math.sqrt(p[other_var]), -c_own
            if not (_QUAD_TINY <= a <= _QUAD_HUGE and _QUAD_TINY <= abs(b) <= _QUAD_HUGE
                    and _QUAD_TINY <= c_own <= _QUAD_HUGE):
                return _bvn_sigma_root(a, b, c)
            # a > 0 > c and b != 0, unscaled: the roots have opposite signs,
            # the positive one is taken from the stable intermediate and
            # polished by two Newton steps.
            q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
            t = q / a if q > 0.0 else c / q
            deriv = 2.0 * a * t + b
            if deriv != 0.0:
                t -= (a * t * t + b * t + c) / deriv
            deriv = 2.0 * a * t + b
            if deriv != 0.0:
                t -= (a * t * t + b * t + c) / deriv
            return t if t > 0.0 else _bvn_sigma_root(a, b, c)

        def equation_for(d, p):
            rho = p["rho"]
            return _BvnSigmaEquation(math.sqrt((1.0 - rho * rho) / (n * (2.0 - rho * rho))))

        def kernel(lo, hi, redraw):
            def draw(d, p, rng, warnings=None):
                # _BvnSigmaEquation(c0).invert(q, g).
                q = statistic(d, p)
                rho = p["rho"]
                c0 = math.sqrt((1.0 - rho * rho) / (n * (2.0 - rho * rho)))
                bracketed = 1.0 + rng.take(_TRUNCNORM_KEY, _TRUNCNORM_FILL, _STD_TRUNCNORM) * c0
                if bracketed <= floor:
                    return redraw(d, p, rng, warnings, q)
                s = q / bracketed
                theta = s * s
                return theta if lo < theta < hi else redraw(d, p, rng, warnings, q)
            return draw

        return _conditional(_BVN_PARAMS, label, FiducialStatistic(stat_name, statistic),
                            equation_for, kernel, check_at_start=True)

    def rho_mle(d, p):
        # Root in (-1, 1) of the cubic stationarity condition of the
        # likelihood in rho, f(r) = -n r^3 + c r^2 + c1 r + c; when several
        # roots fall inside, the highest likelihood wins.
        mu_x, mu_y, sigma_x2, sigma_y2 = p["mu_x"], p["mu_y"], p["sigma_x2"], p["sigma_y2"]
        cxx = sxx - 2.0 * mu_x * sx + n * mu_x * mu_x
        cyy = syy - 2.0 * mu_y * sy + n * mu_y * mu_y
        cxy = sxy - mu_x * sy - mu_y * sx + n * mu_x * mu_y
        c = cxy / _sqrt_product(sigma_x2, sigma_y2)
        c1 = n - cxx / sigma_x2 - cyy / sigma_y2
        if not (math.isfinite(c) and math.isfinite(c1)):
            raise DomainError(f"cubic coefficients must be finite, got {[neg_n, c, c1, c]}")
        # The closed form of the roots of the depressed cubic.  With one
        # real root: Cardano's, two Newton steps and the clip.
        a2, a1 = c / neg_n, c1 / neg_n
        shift = a2 / 3.0
        p3 = a1 - a2 * a2 / 3.0
        try:
            q3 = 2.0 * a2 ** 3 / 27.0 - a2 * a1 / 3.0 + a2
            disc = 0.25 * q3 * q3 + p3 ** 3 / 27.0
        except OverflowError:
            disc = math.nan
        if disc > 0.0:
            s = math.sqrt(disc)
            u, v = -0.5 * q3 + s, -0.5 * q3 - s
            t = (math.copysign(abs(u) ** _THIRD, u) + math.copysign(abs(v) ** _THIRD, v)
                 - shift)
            der = (3.0 * neg_n * t + 2.0 * c) * t + c1
            if der != 0.0:
                t -= (((neg_n * t + c) * t + c1) * t + c) / der
            der = (3.0 * neg_n * t + 2.0 * c) * t + c1
            if der != 0.0:
                t -= (((neg_n * t + c) * t + c1) * t + c) / der
            if pad_lo < t < pad_hi:
                return min(max(t, rho_lo), rho_hi)
        # The rare branches: each real root is polished by two Newton steps
        # and kept if it lies in the padded clip.
        roots = ()
        if disc == 0.0:
            # A double root.
            u = -0.5 * q3
            u = math.copysign(abs(u) ** _THIRD, u)
            roots = (2.0 * u, -u)
        elif disc < 0.0:
            # Three real roots, trigonometric.
            r = math.sqrt(-(p3 ** 3) / 27.0)
            phi = math.acos(min(1.0, max(-1.0, -0.5 * q3 / r)))
            m = 2.0 * math.sqrt(-p3 / 3.0)
            roots = (m * math.cos(phi / 3.0), m * math.cos((phi + 2.0 * math.pi) / 3.0),
                     m * math.cos((phi + 4.0 * math.pi) / 3.0))
        polished = set()
        for t in roots:
            t -= shift
            for _ in range(2):
                der = (3.0 * neg_n * t + 2.0 * c) * t + c1
                if der != 0.0:
                    t -= (((neg_n * t + c) * t + c1) * t + c) / der
            polished.add(t)
        inside = [min(max(t, rho_lo), rho_hi) for t in sorted(polished) if pad_lo < t < pad_hi]
        if not inside:
            # The closed form found no root in the clip.  Where |c| or |c1|
            # is above about 1e102 n it leaves the float range; where they
            # are far above n with a finite discriminant (state variances
            # about 1e-50 of the data's, or means 1e6 away) it can keep no
            # digit of a small root next to a huge one.  With A = cxx /
            # sigma_x2 + cyy / sigma_y2 >= 2 |c|, f(-1) = A + 2c >= 0 >=
            # f(1) = 2c - A, and coefficients that dwarf n leave one root in
            # the clip: bisect for it, on f divided by a power of two so that
            # no term overflows.  Without a sign change f(lo) > 0 > f(hi)
            # over the clip (y = x) there is none.
            e = math.frexp(max(abs(c), abs(c1), -neg_n))[1]
            s3, s2, s1 = math.ldexp(neg_n, -e), math.ldexp(c, -e), math.ldexp(c1, -e)
            lo, hi = rho_lo, rho_hi
            if ((s3 * lo + s2) * lo + s1) * lo + s2 > 0.0 > ((s3 * hi + s2) * hi + s1) * hi + s2:
                mid = 0.5 * (lo + hi)
                while lo < mid < hi:
                    if ((s3 * mid + s2) * mid + s1) * mid + s2 > 0.0:
                        lo = mid
                    else:
                        hi = mid
                    mid = 0.5 * (lo + hi)
                return mid
            raise DegenerateDataError(
                f"cubic {[neg_n, c, c1, c]} has no real root in ({rho_lo}, {rho_hi})")
        # The first root of the highest log likelihood.  No closure here: it
        # would turn the locals it reads into cells on every call.
        root_xy = _sqrt_product(sigma_x2, sigma_y2)
        best = best_ll = None
        for r in inside:
            one_m = 1.0 - r * r
            quad = cxx / sigma_x2 - 2.0 * r * cxy / root_xy + cyy / sigma_y2
            ll = (-0.5 * n * (math.log(sigma_x2) + math.log(sigma_y2) + math.log(one_m))
                  - 0.5 * quad / one_m)
            if best is None or ll > best_ll:
                best, best_ll = r, ll
        return best

    def rho_kernel(lo, hi, redraw):
        def draw(d, p, rng, warnings=None):
            q = rho_mle(d, p)
            g = rng.take(_TRUNCNORM_KEY, _TRUNCNORM_FILL, _STD_TRUNCNORM)
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
    x, y = data.col("x"), data.col("y")
    base = {"mu_x": float(np.mean(x)), "mu_y": float(np.mean(y)), "sigma_x2": float(np.var(x)),
            "sigma_y2": float(np.var(y)),
            "rho": float(np.clip(float(np.corrcoef(x, y)[0, 1]), -0.95, 0.95))}
    spreads = {"mu_x": math.sqrt(base["sigma_x2"] / x.size),
               "mu_y": math.sqrt(base["sigma_y2"] / x.size)}
    return _disperse(base, _BVN_PARAMS, spreads, chains)


def _bvn_simulate(theta: Mapping[str, float], n: int, rng: RngStream) -> Dataset:
    sdx = math.sqrt(_pos(theta["sigma_x2"], "sigma_x2"))
    sdy = math.sqrt(_pos(theta["sigma_y2"], "sigma_y2"))
    rho = float(theta["rho"])
    if not abs(rho) < 1.0:
        raise DomainError(f"|rho| must be < 1, got {rho}")
    z1, z2 = rng.gen.standard_normal(n), rng.gen.standard_normal(n)
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

# name -> ModelSpec(name, params, build_conditionals, simulate, chain_inits).
_MODELS = {
    "normal": _normal_samples("normal", (("x", "mu", "sigma2"),)),
    "pareto": ModelSpec("pareto", _ALPHA_BETA, _pareto_build_conditionals, _pareto_simulate,
                        _pareto_chain_inits),
    "quadreg": ModelSpec("quadreg", _QUADREG_PARAMS, _quadreg_build_conditionals,
                         _quadreg_simulate, _quadreg_chain_inits),
    "gamma": ModelSpec("gamma", _ALPHA_BETA, _gamma_build_conditionals, _gamma_simulate,
                       _gamma_chain_inits),
    "beta": ModelSpec("beta", _ALPHA_BETA, _beta_build_conditionals, _beta_simulate,
                      _beta_chain_inits),
    "behrens_fisher": _normal_samples(
        "behrens_fisher", (("x", "mu_x", "sigma_x2"), ("y", "mu_y", "sigma_y2"))),
    "bivariate_normal": ModelSpec("bivariate_normal", _BVN_PARAMS, _bvn_build_conditionals,
                                  _bvn_simulate, _bvn_chain_inits),
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
