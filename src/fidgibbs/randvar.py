"""Seeded random streams plus samplers, densities and quantiles.

The distribution kinds here are exactly the ones the conditional fiducial
constructions need as primary random variables or as closed-form
conditionals.  Sampling is reproducible: a stream is keyed by
(seed, stream_id) on a counter-based Philox generator, so identical keys
replay identical sequences and distinct stream_ids are independent.

The kinds whose laws the catalog fixes once per dataset are drawn in
blocks of BLOCK_SIZE values per stream: Normal and Exponential from one
block of standard draws each, shifted and scaled per draw, TruncatedNormal
and ChiSquare from one block per law.  A draw takes the next value of its
block, and a new block is drawn when it is used up.  The block key of a
TruncatedNormal or ChiSquare law is the kind plus the law's parameters,
built once per law object when it is made (its block_key attribute): equal
laws share one block, and a draw from a law fixed per dataset hashes that
prebuilt key instead of building one.  A stream keeps blocks for at most
MAX_BLOCK_LAWS laws: a new law evicts the block of the law first seen
longest ago, whose unused values are dropped.  Gamma, whose shape
follows the state in the gamma model, and the two kinds that are never
primaries are drawn one value per call.

fixed_draw binds the draw of a law fixed once, and unit_rate_gamma draws
a Gamma(shape, 1) without building the law; both give the value and bits
of sample, and the catalog's fused draw kernels take their primaries
through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import DomainError
from .specfun import ln_gamma, scipy_special as _sp

__all__ = [
    "RngStream",
    "Normal",
    "TruncatedNormal",
    "Gamma",
    "ChiSquare",
    "ScaledInvChiSquare",
    "Exponential",
    "StudentT",
    "Dist",
    "sample",
    "fixed_draw",
    "unit_rate_gamma",
    "log_density",
    "quantile",
]

_LOG_2PI = math.log(2.0 * math.pi)
_U64 = 2**64
BLOCK_SIZE = 1024
# Laws a stream keeps blocks for; the catalog uses at most three per stream.
MAX_BLOCK_LAWS = 8


class RngStream:
    """Single-owner random stream keyed by (seed, stream_id).

    Wraps ``numpy.random.Philox`` with the 128-bit key set to
    (seed, stream_id); the counter-based design makes distinct keys
    statistically independent streams.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if not (0 <= int(seed) < _U64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not (0 <= int(stream_id) < _U64):
            raise DomainError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))
        self._blocks = {}  # block key -> iterator over the rest of its block

    def take(self, key, fill, dist) -> float:
        """The next value of the block stored under key.

        When that block is used up (or there is none yet), fill(dist, gen,
        BLOCK_SIZE) draws the next one from this stream.  A key without a
        block evicts the oldest key once MAX_BLOCK_LAWS keys hold blocks.
        """
        try:
            return next(self._blocks[key])
        except KeyError:
            if len(self._blocks) >= MAX_BLOCK_LAWS:
                del self._blocks[next(iter(self._blocks))]
        except StopIteration:
            pass
        block = self._blocks[key] = iter(fill(dist, self.gen, BLOCK_SIZE).tolist())
        return next(block)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@dataclass(frozen=True)
class Normal:
    mean: float
    var: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and 0.0 < self.var < math.inf):
            raise DomainError(
                f"Normal requires finite mean and var > 0, got ({self.mean}, {self.var})")


@dataclass(frozen=True)
class TruncatedNormal:
    mean: float
    var: float
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and 0.0 < self.var < math.inf
                and math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"TruncatedNormal requires finite parameters and var > 0, got {self}")
        if not self.lo < self.hi:
            raise DomainError(f"TruncatedNormal requires lo < hi, got [{self.lo}, {self.hi}]")
        object.__setattr__(self, "block_key",
                           (TruncatedNormal, self.mean, self.var, self.lo, self.hi))


@dataclass(frozen=True)
class Gamma:
    shape: float
    rate: float

    def __post_init__(self):
        if not (0.0 < self.shape < math.inf and 0.0 < self.rate < math.inf):
            raise DomainError(
                f"Gamma requires shape > 0 and rate > 0, got ({self.shape}, {self.rate})")


@dataclass(frozen=True)
class ChiSquare:
    df: float

    def __post_init__(self):
        if not 0.0 < self.df < math.inf:
            raise DomainError(f"ChiSquare requires df > 0, got {self.df}")
        object.__setattr__(self, "block_key", (ChiSquare, self.df))


@dataclass(frozen=True)
class ScaledInvChiSquare:
    df: float
    scale: float

    def __post_init__(self):
        if not (0.0 < self.df < math.inf and 0.0 < self.scale < math.inf):
            raise DomainError(
                f"ScaledInvChiSquare requires df > 0 and scale > 0, got ({self.df}, {self.scale})")


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise DomainError(f"Exponential requires rate > 0, got {self.rate}")


@dataclass(frozen=True)
class StudentT:
    df: float
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.df < math.inf and math.isfinite(self.loc)
                and 0.0 < self.scale < math.inf):
            raise DomainError(f"StudentT requires df > 0 and scale > 0, got {self}")


Dist = Union[Normal, TruncatedNormal, Gamma, ChiSquare, ScaledInvChiSquare, Exponential, StudentT]


@lru_cache(maxsize=512)
def _trunc_bounds(d: TruncatedNormal):
    sd = math.sqrt(d.var)
    a = (d.lo - d.mean) / sd
    b = (d.hi - d.mean) / sd
    pa = float(_sp.ndtr(a))
    pb = float(_sp.ndtr(b))
    if pb <= pa:
        raise DomainError(f"truncation interval [{d.lo}, {d.hi}] carries no probability mass")
    return sd, pa, pb


# Block fillers: fill(dist, gen, size) -> array of size draws.

def _standard_normals(dist, g, size):
    return g.standard_normal(size)


def _truncated_normals(dist, g, size):
    # Inversion of the normal CDF restricted to [lo, hi]; g.random gives
    # the same doubles as repeated g.uniform() calls, in the same order.
    sd, pa, pb = _trunc_bounds(dist)
    z = _sp.ndtri(pa + g.random(size) * (pb - pa))
    return np.minimum(np.maximum(dist.mean + sd * z, dist.lo), dist.hi)


def _chi_squares(dist, g, size):
    return g.chisquare(dist.df, size)


def _standard_exponentials(dist, g, size):
    return g.standard_exponential(size)


# One sampler per kind.  Location-scale kinds share one block of standard
# draws per stream; the others keep one block per law.

def _sample_normal(d: Normal, rng: RngStream) -> float:
    return d.mean + math.sqrt(d.var) * rng.take(Normal, _standard_normals, d)


def _sample_truncated_normal(d: TruncatedNormal, rng: RngStream) -> float:
    return rng.take(d.block_key, _truncated_normals, d)


def _sample_chi_square(d: ChiSquare, rng: RngStream) -> float:
    return rng.take(d.block_key, _chi_squares, d)


def _sample_exponential(d: Exponential, rng: RngStream) -> float:
    return rng.take(Exponential, _standard_exponentials, d) / d.rate


def _sample_gamma(d: Gamma, rng: RngStream) -> float:
    return float(rng.gen.gamma(d.shape, 1.0 / d.rate))


def _sample_scaled_inv_chi_square(d: ScaledInvChiSquare, rng: RngStream) -> float:
    # Exact transformation df*scale / X with X ~ chi^2(df).
    return float(d.df * d.scale / rng.gen.chisquare(d.df))


def _sample_student_t(d: StudentT, rng: RngStream) -> float:
    return float(d.loc + d.scale * rng.gen.standard_t(d.df))


_SAMPLERS = {
    Normal: _sample_normal,
    TruncatedNormal: _sample_truncated_normal,
    ChiSquare: _sample_chi_square,
    Exponential: _sample_exponential,
    Gamma: _sample_gamma,
    ScaledInvChiSquare: _sample_scaled_inv_chi_square,
    StudentT: _sample_student_t,
}


def sample(dist: Dist, rng: RngStream) -> float:
    """One draw from the named distribution.

    A TruncatedNormal or ChiSquare law keeps its own block on the stream,
    so these kinds suit laws that stay fixed over many draws: each new law
    costs a block of BLOCK_SIZE draws.
    """
    try:
        sampler = _SAMPLERS[type(dist)]
    except KeyError:
        raise DomainError(f"unknown distribution {dist!r}") from None
    return sampler(dist, rng)


def fixed_draw(dist: Dist) -> Callable[[RngStream], float]:
    """draw(rng), the value and bits of sample(dist, rng), for a law of a
    kind drawn in blocks, with the kind looked up and the law's constants
    formed once: a draw takes the next value of the law's block, under the
    same block key and fill, and does its kind's arithmetic on it."""
    kind = type(dist)
    if kind is Normal:
        mean, sd = dist.mean, math.sqrt(dist.var)
        return lambda rng: mean + sd * rng.take(Normal, _standard_normals, dist)
    if kind is Exponential:
        rate = dist.rate
        return lambda rng: rng.take(Exponential, _standard_exponentials, dist) / rate
    if kind is TruncatedNormal or kind is ChiSquare:
        key = dist.block_key
        fill = _truncated_normals if kind is TruncatedNormal else _chi_squares
        return lambda rng: rng.take(key, fill, dist)
    raise DomainError(f"fixed_draw needs a law drawn in blocks, got {dist!r}")


def unit_rate_gamma(shape: float, rng: RngStream) -> float:
    """sample(Gamma(shape, 1.0), rng) without building the law: the same
    check of shape, generator call and bits."""
    if not 0.0 < shape < math.inf:
        Gamma(shape, 1.0)  # raises the law's DomainError
    return float(rng.gen.gamma(shape, 1.0))


def log_density(dist: Dist, x: float) -> float:
    """Log density at x; -inf outside the support."""
    x = float(x)
    if not math.isfinite(x):
        return -math.inf
    if isinstance(dist, Normal):
        return -0.5 * (_LOG_2PI + math.log(dist.var)) - 0.5 * (x - dist.mean) ** 2 / dist.var
    if isinstance(dist, TruncatedNormal):
        if x < dist.lo or x > dist.hi:
            return -math.inf
        sd, pa, pb = _trunc_bounds(dist)
        base = -0.5 * (_LOG_2PI + math.log(dist.var)) - 0.5 * (x - dist.mean) ** 2 / dist.var
        return base - math.log(pb - pa)
    if isinstance(dist, (Gamma, ChiSquare)):
        # chi^2(df) is Gamma(df / 2, 1 / 2).
        shape, rate = (dist.df / 2.0, 0.5) if isinstance(dist, ChiSquare) else (dist.shape, dist.rate)
        if x < 0.0:
            return -math.inf
        if x == 0.0:
            if shape == 1.0:
                return math.log(rate)
            return math.inf if shape < 1.0 else -math.inf
        return shape * math.log(rate) + (shape - 1.0) * math.log(x) - rate * x - ln_gamma(shape)
    if isinstance(dist, ScaledInvChiSquare):
        if x <= 0.0:
            return -math.inf
        half_df = dist.df / 2.0
        return (half_df * math.log(half_df * dist.scale) - ln_gamma(half_df)
                - (half_df + 1.0) * math.log(x) - half_df * dist.scale / x)
    if isinstance(dist, Exponential):
        if x < 0.0:
            return -math.inf
        return math.log(dist.rate) - dist.rate * x
    if isinstance(dist, StudentT):
        z = (x - dist.loc) / dist.scale
        return (ln_gamma((dist.df + 1.0) / 2.0) - ln_gamma(dist.df / 2.0)
                - 0.5 * math.log(dist.df * math.pi) - math.log(dist.scale)
                - 0.5 * (dist.df + 1.0) * math.log1p(z * z / dist.df))
    raise DomainError(f"unknown distribution {dist!r}")


def quantile(dist: Dist, p: float) -> float:
    """Inverse CDF at probability p, 0 < p < 1."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile requires 0 < p < 1, got {p}")
    if isinstance(dist, Normal):
        return float(dist.mean + math.sqrt(dist.var) * _sp.ndtri(p))
    if isinstance(dist, TruncatedNormal):
        sd, pa, pb = _trunc_bounds(dist)
        return float(dist.mean + sd * _sp.ndtri(pa + p * (pb - pa)))
    if isinstance(dist, Gamma):
        return float(_sp.gammaincinv(dist.shape, p) / dist.rate)
    if isinstance(dist, ChiSquare):
        return float(2.0 * _sp.gammaincinv(dist.df / 2.0, p))
    if isinstance(dist, ScaledInvChiSquare):
        return float(dist.df * dist.scale / quantile(ChiSquare(dist.df), 1.0 - p))
    if isinstance(dist, Exponential):
        return float(-math.log1p(-p) / dist.rate)
    if isinstance(dist, StudentT):
        return float(dist.loc + dist.scale * _sp.stdtrit(dist.df, p))
    raise DomainError(f"unknown distribution {dist!r}")
