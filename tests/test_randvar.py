import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from fidgibbs import (
    ChiSquare,
    DomainError,
    Exponential,
    Gamma,
    Normal,
    RngStream,
    TruncatedNormal,
    log_density,
    quantile,
    sample,
)
from fidgibbs import models
from fidgibbs.randvar import BLOCK_SIZE, MAX_BLOCK_LAWS, block_args, unit_rate_gamma

N_DRAWS = 200_000


def _trunc_moments(lo, hi):
    # Standard truncated normal mean/variance on [lo, hi].
    phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    ndtr = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    z = ndtr(hi) - ndtr(lo)
    mean = (phi(lo) - phi(hi)) / z
    var = 1.0 + (lo * phi(lo) - hi * phi(hi)) / z - mean ** 2
    return mean, var


# (dist, analytic mean, analytic variance)
MOMENT_CASES = [
    (Normal(1.5, 4.0), 1.5, 4.0),
    (TruncatedNormal(0.0, 1.0, -5.0, 5.0), *_trunc_moments(-5.0, 5.0)),
    (Gamma(3.0, 2.0), 1.5, 0.75),
    (ChiSquare(5.0), 5.0, 10.0),
    (Exponential(0.5), 2.0, 4.0),
]


class TestReproducibility:
    def test_same_key_same_sequence(self):
        a = RngStream(99, 3)
        b = RngStream(99, 3)
        for dist in (Normal(0, 1), Gamma(2, 1), Exponential(1), ChiSquare(4)):
            assert [sample(dist, a) for _ in range(20)] == [sample(dist, b) for _ in range(20)]

    def test_distinct_streams_differ(self):
        a = RngStream(99, 0)
        b = RngStream(99, 1)
        assert [sample(Normal(0, 1), a) for _ in range(5)] != [sample(Normal(0, 1), b) for _ in range(5)]

    def test_integer_stream_pinned(self):
        # The raw Philox word stream for a fixed key must never change.
        g = RngStream(0, 0).gen.bit_generator
        words = np.random.Generator(g).integers(0, 2 ** 63, size=4)
        assert list(words) == list(np.random.Generator(
            RngStream(0, 0).gen.bit_generator).integers(0, 2 ** 63, size=4))

    def test_key_validation(self):
        with pytest.raises(DomainError):
            RngStream(-1)
        with pytest.raises(DomainError):
            RngStream(0, 2 ** 64)


class TestSampling:
    @pytest.mark.parametrize("dist,mean,var", MOMENT_CASES,
                             ids=[type(c[0]).__name__ for c in MOMENT_CASES])
    def test_moments(self, dist, mean, var):
        rng = RngStream(2024, 17)
        draws = np.array([sample(dist, rng) for _ in range(N_DRAWS)])
        se_mean = math.sqrt(var / N_DRAWS)
        assert abs(draws.mean() - mean) < 4.0 * se_mean
        m4 = np.mean((draws - mean) ** 4)
        se_var = math.sqrt(max(m4 - var ** 2, 1e-12) / N_DRAWS)
        assert abs(draws.var() - var) < 4.0 * se_var

    def test_normal_mean_clt_bound(self):
        rng = RngStream(7, 0)
        draws = rng.gen.normal(0.0, 1.0, size=1_000_000)
        assert abs(draws.mean()) < 0.004

    def test_exponential_mean_clt_bound(self):
        rng = RngStream(8, 0)
        draws = rng.gen.exponential(1.0, size=1_000_000)
        assert abs(draws.mean() - 1.0) < 0.003

    def test_truncated_normal_support(self):
        rng = RngStream(3, 1)
        dist = TruncatedNormal(0.0, 1.0, -5.0, 5.0)
        draws = [sample(dist, rng) for _ in range(10_000)]
        assert all(-5.0 <= d <= 5.0 for d in draws)

    def test_truncated_normal_tight_interval(self):
        rng = RngStream(3, 2)
        dist = TruncatedNormal(10.0, 0.25, 9.9, 10.05)
        draws = [sample(dist, rng) for _ in range(2_000)]
        assert all(9.9 <= d <= 10.05 for d in draws)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            Normal(0.0, 0.0)
        with pytest.raises(DomainError):
            Gamma(-1.0, 1.0)
        with pytest.raises(DomainError):
            TruncatedNormal(0.0, 1.0, 2.0, 1.0)

    # positive: the indices of the scale, df and rate parameters.
    @pytest.mark.parametrize("make,args,positive", [
        (Normal, (0.0, 1.0), (1,)),
        (TruncatedNormal, (0.0, 1.0, -1.0, 1.0), (1,)),
        (Gamma, (2.0, 1.0), (0, 1)),
        (ChiSquare, (3.0,), (0,)),
        (Exponential, (1.0,), (0,)),
    ])
    def test_non_finite_and_non_positive_rejected(self, make, args, positive):
        make(*args)
        for i in range(len(args)):
            for v in [math.nan, math.inf, -math.inf] + ([0.0, -1.0] if i in positive else []):
                with pytest.raises(DomainError):
                    make(*args[:i], v, *args[i + 1:])


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        assert abs(log_density(Normal(0.0, 1.0), 0.0) + 0.91893853320467274178) < 1e-12

    def test_gamma_exponential_special_case(self):
        d = Gamma(1.0, 1.0)
        for x in (0.0, 0.5, 1.0, 4.0):
            assert abs(log_density(d, x) + x) < 1e-12

    def test_outside_support(self):
        assert log_density(Gamma(2.0, 1.0), -1.0) == -math.inf
        assert log_density(Exponential(1.0), -0.1) == -math.inf
        assert log_density(TruncatedNormal(0, 1, -5, 5), 5.1) == -math.inf

    @pytest.mark.parametrize("dist", [
        Normal(0.5, 2.0),
        TruncatedNormal(0.0, 1.0, -5.0, 5.0),
        Gamma(2.5, 1.5),
        ChiSquare(4.0),
        Exponential(2.0),
    ], ids=lambda d: type(d).__name__)
    def test_density_integrates_to_one(self, dist):
        lo = quantile(dist, 1e-9)
        hi = quantile(dist, 1.0 - 1e-9)
        total, err = integrate.quad(lambda x: math.exp(log_density(dist, x)), lo, hi, limit=200)
        assert abs(total - 1.0) < 1e-6


class TestQuantile:
    def test_normal_median(self):
        assert abs(quantile(Normal(0.0, 1.0), 0.5)) < 1e-12

    def test_chi_square_median(self):
        assert abs(quantile(ChiSquare(2.0), 0.5) - 1.3862943611198906188) < 1e-8

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            quantile(Normal(0, 1), 0.0)
        with pytest.raises(DomainError):
            quantile(Normal(0, 1), 1.0)

    @pytest.mark.parametrize("dist", [
        Normal(1.0, 3.0),
        TruncatedNormal(0.0, 1.0, -5.0, 5.0),
        Gamma(2.0, 0.5),
        ChiSquare(7.0),
        Exponential(0.25),
    ], ids=lambda d: type(d).__name__)
    def test_quantile_cdf_round_trip(self, dist):
        # quantile(cdf_numeric(x)) must come back to x.
        lo = quantile(dist, 1e-10)
        for p in (0.05, 0.3, 0.5, 0.8, 0.99):
            x = quantile(dist, p)
            cdf, _ = integrate.quad(lambda t: math.exp(log_density(dist, t)), lo, x, limit=400)
            assert abs(quantile(dist, min(max(cdf, 1e-15), 1 - 1e-15)) - x) < max(1e-6, 1e-6 * abs(x))


class TestBlocks:
    """Fixed-law kinds are drawn in blocks of BLOCK_SIZE per stream."""

    DRAWS = 3 * BLOCK_SIZE + 100  # more than three blocks

    @pytest.mark.parametrize("dist,cdf", [
        (Normal(0.0, 1.0), stats.norm.cdf),
        (Normal(1.5, 4.0), stats.norm(1.5, 2.0).cdf),
        (TruncatedNormal(0.0, 1.0, -5.0, 5.0), stats.truncnorm(-5.0, 5.0).cdf),
        (TruncatedNormal(10.0, 0.25, 9.9, 10.05), stats.truncnorm(-0.2, 0.1, 10.0, 0.5).cdf),
        (ChiSquare(50.0), stats.chi2(50.0).cdf),
        (Exponential(1.0), stats.expon.cdf),
        (Exponential(0.5), stats.expon(scale=2.0).cdf),
    ], ids=lambda v: repr(v) if not callable(v) else "")
    def test_ks_over_several_blocks(self, dist, cdf):
        rng = RngStream(31, 4)
        draws = [sample(dist, rng) for _ in range(self.DRAWS)]
        assert stats.kstest(draws, cdf).pvalue > 1e-3

    def test_standard_normal_block_layout(self):
        rng = RngStream(5, 2)
        draws = [sample(Normal(0.0, 1.0), rng) for _ in range(2 * BLOCK_SIZE + 3)]
        g = RngStream(5, 2).gen
        blocks = [g.standard_normal(BLOCK_SIZE) for _ in range(3)]
        assert draws == np.concatenate(blocks)[:len(draws)].tolist()

    def test_truncated_normal_block_matches_scalar_uniforms(self):
        # The block is g.random(BLOCK_SIZE) through ndtri: the same doubles
        # as one g.uniform() per draw, in the same order.
        dist = TruncatedNormal(0.0, 1.0, -5.0, 5.0)
        rng = RngStream(6, 0)
        draws = [sample(dist, rng) for _ in range(BLOCK_SIZE + 10)]
        g = RngStream(6, 0).gen
        pa, pb = special.ndtr(-5.0), special.ndtr(5.0)
        expected = [float(min(max(special.ndtri(pa + g.uniform() * (pb - pa)), -5.0), 5.0))
                    for _ in range(len(draws))]
        assert draws == expected

    def test_each_law_keeps_its_own_block(self):
        # Interleaving two laws on one stream: each takes consecutive values
        # of its own block.
        a, b = ChiSquare(5.0), ChiSquare(9.0)
        rng = RngStream(7, 1)
        da, db = [], []
        for _ in range(20):
            da.append(sample(a, rng))
            db.append(sample(b, rng))
        g = RngStream(7, 1).gen
        assert da == g.chisquare(5.0, BLOCK_SIZE)[:20].tolist()
        assert db == g.chisquare(9.0, BLOCK_SIZE)[:20].tolist()

    def test_blocks_kept_for_at_most_the_cap(self):
        # A law that changes on every draw evicts the oldest block instead
        # of piling up one block per law.
        rng = RngStream(8, 0)
        laws = [ChiSquare(float(df)) for df in range(1, 2001)]
        for law in laws:
            sample(law, rng)
            assert len(rng._blocks) <= MAX_BLOCK_LAWS
        assert list(rng._blocks) == [frozenset([(ChiSquare, law.df)])
                                     for law in laws[-MAX_BLOCK_LAWS:]]

    @pytest.mark.parametrize("dist", [
        Normal(0.0, 1.0), Normal(1.5, 4.0), TruncatedNormal(0.0, 1.0, -5.0, 5.0),
        ChiSquare(50.0), Exponential(1.0), Exponential(0.5)], ids=repr)
    def test_fixed_draw_is_sample(self, dist):
        # A fixed law drawn as the kernels take their primaries, one
        # rng.take(key, fill, law) with block_args' values bound once, over
        # several blocks with another law's draws in between.  For the
        # standard law of each of the four block kinds (the kernels'
        # primaries) the taken value is sample's value and bits; for the
        # others it is the standard draw that sample shifts and scales.
        key, fill, law = block_args(dist)
        assert law is dist
        other = ChiSquare(3.0)
        ra, rb = RngStream(9, 3), RngStream(9, 3)
        taken, sampled = [], []
        for _ in range(self.DRAWS):
            taken.append(ra.take(key, fill, law))
            sampled.append(sample(dist, rb))
            assert sample(other, ra) == sample(other, rb)
        if isinstance(dist, Normal):
            from_block = [dist.mean + math.sqrt(dist.var) * g for g in taken]
        elif isinstance(dist, Exponential):
            from_block = [g / dist.rate for g in taken]
        else:
            from_block = taken
        assert [x.hex() for x in from_block] == [x.hex() for x in sampled]
        standard = dist in (models._STD_NORMAL, models._STD_TRUNCNORM, models._STD_EXPONENTIAL)
        if standard or isinstance(dist, ChiSquare):
            assert [x.hex() for x in taken] == [x.hex() for x in sampled]

    def test_shape_primary_fixed_draw_is_sample(self):
        # The shape conditionals' primary law, taken with the key and fill
        # the kernels bind on one stream and drawn through sample on
        # another, interleaved with a second law and with an equal law made
        # apart, which shares its block: the same bits across two block
        # boundaries.
        law = models._STD_TRUNCNORM
        key, fill = models._TRUNCNORM_KEY, models._TRUNCNORM_FILL
        equal, other = TruncatedNormal(0.0, 1.0, -5.0, 5.0), ChiSquare(4.0)
        assert equal.block_key == law.block_key and equal.block_key is not law.block_key
        assert (key, fill, law) == block_args(law)
        ra, rb = RngStream(11, 2), RngStream(11, 2)
        taken, sampled = [], []
        for i in range(2 * BLOCK_SIZE + 5):
            taken.append(sample(equal, ra) if i % 7 == 3 else ra.take(key, fill, law))
            sampled.append(sample(law, rb))
            assert sample(other, ra) == sample(other, rb)
        assert [x.hex() for x in taken] == [x.hex() for x in sampled]
        assert len(ra._blocks) == len(rb._blocks) == 2

    def test_fixed_draw_needs_a_block_kind(self):
        for dist in (Gamma(2.0, 1.0), "not a law"):
            with pytest.raises(DomainError, match="drawn in blocks"):
                block_args(dist)

    def test_unit_rate_gamma_is_sample(self):
        ra, rb = RngStream(10, 0), RngStream(10, 0)
        for shape in (0.3, 1.0, 34.0, 1e6):
            assert unit_rate_gamma(shape, ra).hex() == sample(Gamma(shape, 1.0), rb).hex()
        for shape in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError) as got:
                unit_rate_gamma(shape, ra)
            with pytest.raises(DomainError) as want:
                Gamma(shape, 1.0)
            assert str(got.value) == str(want.value)
