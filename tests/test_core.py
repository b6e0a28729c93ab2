import functools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from fidgibbs import (
    ConditionalFiducialSampler,
    Dataset,
    DomainError,
    FiducialStatistic,
    Normal,
    RngStream,
    StructuralEquation,
    StructuralError,
    check_injectivity,
    get_model,
)
from fidgibbs.randvar import BLOCK_SIZE

UNBOUNDED = (-math.inf, math.inf)


def _catalog_equation(model, data, label, state):
    """The structural equation of a catalog conditional at a state."""
    return get_model(model).build_conditionals(data)[label].equation(data, state)


def _mean_equation(n, sigma2):
    data = Dataset({"x": np.arange(float(n))})
    return _catalog_equation("normal", data, "mu", {"mu": 0.0, "sigma2": sigma2})


def _gamma_alpha_equation(x, beta, start):
    return _catalog_equation("gamma", Dataset({"x": x}), "alpha", {"alpha": start, "beta": beta})


def _sum_equation(n, sigma2):
    # Same construction but with the statistic sum(x) instead of mean(x).
    c = math.sqrt(n * sigma2)
    return StructuralEquation(
        gamma_dist=Normal(0.0, 1.0),
        phi=lambda g, mu: n * mu + c * g,
        invert=lambda q, g: (q - c * g) / n,
        theta_domain=(-math.inf, math.inf),
        gamma_domain=(-5.0, 5.0),
    )


class TestStructuralEquation:
    def test_domain_validation(self):
        with pytest.raises(DomainError):
            StructuralEquation(Normal(0, 1), lambda g, t: t, lambda q, g: q,
                               theta_domain=(1.0, 1.0), gamma_domain=(-5, 5))

    def test_normal_mean_gamma_zero_recovers_statistic(self):
        eq = _mean_equation(4, 1.0)
        assert eq.invert(2.5, 0.0) == 2.5

    def test_round_trip_grid(self):
        eq = _mean_equation(7, 2.3)
        for g in np.linspace(-5, 5, 11):
            for mu in np.linspace(-10, 10, 11):
                assert abs(eq.invert(eq.phi(g, mu), g) - mu) < 1e-10


class TestDraw:
    def _sampler(self, statistic_kind="mean"):
        # Each (n, sigma2) builds its equation once: a catalog build per draw
        # would dominate the 100 000 draws of the KS test.
        if statistic_kind == "mean":
            stat = FiducialStatistic("xbar", lambda d, p: float(np.mean(d.col("x"))))
            equation = functools.lru_cache(maxsize=None)(_mean_equation)
        else:
            stat = FiducialStatistic("sum_x", lambda d, p: float(np.sum(d.col("x"))))
            equation = functools.lru_cache(maxsize=None)(_sum_equation)
        return ConditionalFiducialSampler("mu", stat, lambda d, p: equation(d.n, p["sigma2"]),
                                          theta_domain=UNBOUNDED)

    def test_draws_against_analytic_conditional(self):
        # n=4, xbar=0, sigma2=1: conditional is N(0, 0.25).
        data = Dataset({"x": np.array([-1.0, 1.0, -2.0, 2.0])})
        sampler = self._sampler()
        rng = RngStream(11, 0)
        draws = np.array([sampler.draw(data, {"sigma2": 1.0}, rng) for _ in range(100_000)])
        res = stats.kstest(draws, lambda x: stats.norm.cdf(x, 0.0, 0.5))
        assert res.pvalue > 1e-3

    def test_statistic_choice_is_immaterial(self):
        # sum(x) and mean(x) are one-to-one related: identical induced draws.
        data = Dataset({"x": np.array([0.3, -1.2, 2.2, 0.7])})
        a = self._sampler("mean")
        b = self._sampler("sum")
        ra, rb = RngStream(5, 1), RngStream(5, 1)
        draws_a = [a.draw(data, {"sigma2": 2.0}, ra) for _ in range(50)]
        draws_b = [b.draw(data, {"sigma2": 2.0}, rb) for _ in range(50)]
        assert np.std(draws_a) > 0.0
        assert np.allclose(draws_a, draws_b, atol=1e-12)

    def test_statistic_choice_ks(self):
        data = Dataset({"x": np.array([0.3, -1.2, 2.2, 0.7])})
        a = self._sampler("mean")
        b = self._sampler("sum")
        ra, rb = RngStream(6, 1), RngStream(7, 2)
        da = np.array([a.draw(data, {"sigma2": 2.0}, ra) for _ in range(20_000)])
        db = np.array([b.draw(data, {"sigma2": 2.0}, rb) for _ in range(20_000)])
        assert stats.ks_2samp(da, db).pvalue > 1e-3

    def test_same_q_same_gamma_same_theta(self):
        data = Dataset({"x": np.array([1.0, 3.0])})
        sampler = self._sampler()
        r1, r2 = RngStream(3, 0), RngStream(3, 0)
        d1 = [sampler.draw(data, {"sigma2": 1.5}, r1) for _ in range(10)]
        d2 = [sampler.draw(data, {"sigma2": 1.5}, r2) for _ in range(10)]
        assert np.std(d1) > 0.0
        assert d1 == d2

    def test_redraw_on_structural_failure(self):
        # Inversion fails for gamma below a cutoff: the draw retries and
        # counts every rejection.
        def invert(q, g):
            if g < 0.3:
                raise StructuralError("below cutoff")
            return q + g

        eq = StructuralEquation(Normal(0.0, 1.0), lambda g, t: t - g, invert,
                                theta_domain=(-math.inf, math.inf), gamma_domain=(-5, 5))
        sampler = ConditionalFiducialSampler(
            "theta", FiducialStatistic("q", lambda d, p: 0.0), lambda d, p: eq,
            theta_domain=UNBOUNDED)
        warnings = Counter()
        rng = RngStream(8, 0)
        draws = [sampler.draw(None, {}, rng, warnings) for _ in range(200)]
        assert all(d >= 0.3 for d in draws)
        assert warnings["theta.gamma_redraw"] > 50

    def test_redraw_takes_next_block_value(self):
        # The first inversion fails: the draw is the next value of the
        # standard normal block, and the draw after it the one after that.
        calls = []

        def invert(q, g):
            calls.append(g)
            if len(calls) == 1:
                raise StructuralError("first gamma rejected")
            return q + g

        eq = StructuralEquation(Normal(0.0, 1.0), lambda g, t: t - g, invert,
                                theta_domain=(-math.inf, math.inf), gamma_domain=(-5, 5))
        sampler = ConditionalFiducialSampler(
            "theta", FiducialStatistic("q", lambda d, p: 0.0), lambda d, p: eq,
            theta_domain=UNBOUNDED)
        warnings = Counter()
        rng = RngStream(8, 1)
        draws = [sampler.draw(None, {}, rng, warnings) for _ in range(2)]
        block = RngStream(8, 1).gen.standard_normal(BLOCK_SIZE).tolist()
        assert calls == block[:3]
        assert draws == block[1:3]
        assert warnings == {"theta.gamma_redraw": 1}

    def test_exhausted_redraws_raise(self):
        def invert(q, g):
            raise StructuralError("never invertible")

        eq = StructuralEquation(Normal(0.0, 1.0), lambda g, t: t, invert,
                                theta_domain=(-math.inf, math.inf), gamma_domain=(-5, 5))
        sampler = ConditionalFiducialSampler(
            "theta", FiducialStatistic("q", lambda d, p: 0.0), lambda d, p: eq,
            theta_domain=UNBOUNDED)
        with pytest.raises(StructuralError) as err:
            sampler.draw(None, {}, RngStream(9, 0))
        assert err.value.diagnostics["statistic"] == "q"


class TestCheckInjectivity:
    def test_affine_map_is_monotone(self):
        report = check_injectivity(_mean_equation(4, 1.0), q=0.0)
        assert report.monotone
        assert report.injective
        assert report.max_roundtrip_residual < 1e-12

    def test_gamma_shape_equation_n20(self):
        # Shape equation at a realistic statistic: injective over the
        # truncated gamma interval.
        rng = np.random.default_rng(42)
        x = rng.gamma(2.0, 2.0, size=20)
        q = float(np.sum(np.log(x)))
        eq = _gamma_alpha_equation(x, 0.5, 1.0)
        report = check_injectivity(eq, q)
        assert report.monotone
        assert report.max_roundtrip_residual < 1e-7

    def test_gamma_shape_equation_small_n_extreme_q(self):
        # n=2 leaves part of the gamma interval without a solution; the
        # report says so instead of lying.
        eq = _gamma_alpha_equation(np.array([1.0, 2.0]), 1.0, 1.0)
        report = check_injectivity(eq, q=-30.0)
        assert report.n_failed > 0
        assert not report.injective
        # Values that do exist still decrease with gamma.
        assert report.monotone or report.n_failed == report.gamma_grid.size
