import math
import warnings

import numpy as np
import pytest

from fidgibbs import ChainConfig, DomainError, SampleMatrix, get_model, run, summarize
from fidgibbs.diagnostics import (
    effective_sample_size,
    ess_of_chains,
    rhat_of_chains,
    split_rhat,
)


def _matrix(values, b=0, seed=0, scan_order=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        values = values[:, :, None]
    chains, m, k = values.shape
    labels = tuple(f"p{i}" for i in range(k))
    cfg = ChainConfig(m=m, b=b, chains=chains, seed=seed,
                      scan_order=scan_order or labels)
    return SampleMatrix(values=values, labels=labels, config=cfg)


class TestSplitRhat:
    def test_zero_between_split_variance_hits_lower_bound(self):
        # Split halves with equal means and positive spread: the statistic
        # lands exactly on its floor sqrt((L - 1) / L).
        pattern = [1.0, 2.0] * 5 + [2.0, 1.0] * 5
        chains = np.array([pattern, pattern])
        L = 10
        assert rhat_of_chains(chains) == pytest.approx(math.sqrt((L - 1) / L), abs=1e-12)

    def test_lower_bound_property(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            chains = rng.normal(size=(3, 40))
            L = 20
            assert rhat_of_chains(chains) >= math.sqrt((L - 1) / L) - 1e-12

    def test_iid_chains_near_one(self):
        rng = np.random.default_rng(2)
        chains = rng.normal(size=(4, 10_000))
        r = rhat_of_chains(chains)
        assert 0.99 <= r <= 1.01

    def test_stuck_versus_diffuse(self):
        rng = np.random.default_rng(3)
        stuck = np.zeros(1000)
        diffuse = rng.normal(5.0, 1.0, size=1000)
        r = rhat_of_chains(np.array([stuck, diffuse]))
        assert r > 1.1

    def test_trending_chain_detected(self):
        # The split variant flags within-chain drift even with one chain.
        trend = np.linspace(0.0, 1.0, 2000) + 0.01 * np.random.default_rng(4).normal(size=2000)
        assert rhat_of_chains(trend[None, :]) > 1.1

    def test_degenerate_constant_chains(self):
        chains = np.full((2, 100), 7.0)
        assert math.isnan(rhat_of_chains(chains))

    def test_sample_matrix_wrapper_and_length_guard(self):
        sm = _matrix(np.random.default_rng(5).normal(size=(2, 100)), b=10)
        assert 0.9 < split_rhat(sm, "p0") < 1.1
        short = _matrix(np.random.default_rng(6).normal(size=(2, 20)), b=5)
        with pytest.raises(DomainError):
            split_rhat(short, "p0")


class TestEffectiveSampleSize:
    def test_iid_close_to_n(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=20_000)
        ess = ess_of_chains(x)
        assert abs(ess - x.size) / x.size < 0.1

    def test_alternating_sequence_clipped_at_n(self):
        x = np.tile([1.0, -1.0], 500)
        assert ess_of_chains(x) == x.size

    def test_ar1_autocorrelation(self):
        rng = np.random.default_rng(8)
        phi = 0.9
        n = 200_000
        eps = rng.normal(size=n)
        x = np.empty(n)
        x[0] = eps[0]
        for i in range(1, n):
            x[i] = phi * x[i - 1] + eps[i]
        expected = n * (1 - phi) / (1 + phi)
        assert abs(ess_of_chains(x) - expected) / expected < 0.2

    def test_minimum_length_guard(self):
        sm = _matrix(np.random.default_rng(9).normal(size=(1, 60)), b=20)
        with pytest.raises(DomainError):
            effective_sample_size(sm, "p0")
        sm = _matrix(np.random.default_rng(9).normal(size=(1, 200)), b=20)
        assert effective_sample_size(sm, "p0") > 1.0


class TestExtremeScale:
    def test_finite_draws_near_float_limit_give_finite_values(self):
        x = np.random.default_rng(4).normal(size=(2, 400)) * 1e300
        sm = _matrix(x)
        for value in (rhat_of_chains(x), ess_of_chains(x),
                      split_rhat(sm, "p0"), effective_sample_size(sm, "p0")):
            assert math.isfinite(value)

    @pytest.mark.parametrize("power", [900, -900])
    def test_power_of_two_scaling_is_exact(self, power):
        x = np.cumsum(np.random.default_rng(8).normal(size=(3, 600)), axis=1)
        scaled = np.ldexp(x, power)
        assert rhat_of_chains(scaled) == rhat_of_chains(x)
        assert ess_of_chains(scaled) == ess_of_chains(x)


class TestSummarize:
    def test_constant_samples(self):
        sm = _matrix(np.full((2, 120), 4.2), b=20)
        report = summarize(sm)
        p = report.param("p0")
        assert p.sd == 0.0
        assert p.q2_5 == p.q50 == p.q97_5 == 4.2
        assert math.isnan(p.rhat)
        assert not p.converged

    @pytest.mark.parametrize("power", [900, -900])
    def test_power_of_two_scaling_is_exact(self, power):
        x = np.cumsum(np.random.default_rng(8).normal(size=(3, 600, 2)), axis=1)
        base = summarize(_matrix(x, b=100))
        scaled = summarize(_matrix(np.ldexp(x, power), b=100))
        for p, q in zip(base.params, scaled.params):
            assert (q.rhat, q.ess, q.converged) == (p.rhat, p.ess, p.converged)
            assert q.hist_counts.tolist() == p.hist_counts.tolist()
            assert q.hist_edges.tolist() == np.ldexp(p.hist_edges, power).tolist()
            for name in ("mean", "sd", "q2_5", "q50", "q97_5"):
                assert getattr(q, name) == math.ldexp(getattr(p, name), power)

    def test_histogram_contract(self, normal_data):
        sm = run(get_model("normal"), normal_data, ChainConfig(m=800, b=100, chains=3, seed=5))
        report = summarize(sm, bins=60)
        for p in report.params:
            assert p.hist_counts.sum() == 3 * (800 - 100)
            assert p.hist_edges.size == p.hist_counts.size + 1
            dens = p.hist_densities()
            widths = np.diff(p.hist_edges)
            assert abs(float(np.sum(dens * widths)) - 1.0) < 1e-9
            assert p.q2_5 <= p.q50 <= p.q97_5

    def test_histogram_of_draws_near_the_float_limit(self):
        # 3 x 599 draws over +-1.7e308: the draw count times a bin width
        # overflows.
        x = np.random.default_rng(12).uniform(-1.0, 1.0, (3, 600, 1)) * 1.7e308
        x[0, 1], x[1, 1] = -1.7e308, 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (p,) = summarize(_matrix(x, b=1)).params
            dens = p.hist_densities()
        widths = np.diff(p.hist_edges)
        assert np.all(np.isfinite(dens)) and np.all(dens[p.hist_counts > 0] > 0)
        assert float(np.sum(dens * widths)) == pytest.approx(1.0, rel=1e-12)
        assert np.array_equal(dens, p.hist_counts / p.hist_counts.sum() / widths)

    @pytest.mark.parametrize("bins", [1, 60])
    def test_histogram_wider_than_the_float_range(self, bins):
        # 2 x 300 draws over +-1.7e308: one bin is wider than the largest
        # float, and at 60 bins the draw count times a width overflows.
        x = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 300, 1)) * 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (p,) = summarize(_matrix(x), bins=bins).params
            dens = p.hist_densities()
            half_widths = np.diff(p.hist_edges / 2.0)
        assert p.hist_counts.size == bins
        assert np.all(np.isfinite(dens)) and np.all(dens[p.hist_counts > 0] > 0)
        assert 2.0 * float(np.sum(dens * half_widths)) == pytest.approx(1.0, rel=1e-12)

    def test_config_echo(self, normal_data):
        cfg = ChainConfig(m=300, b=50, chains=2, seed=99, scan_order=("sigma2", "mu"))
        sm = run(get_model("normal"), normal_data, cfg)
        report = summarize(sm)
        assert report.seed == 99
        assert report.scan_order == ("sigma2", "mu")
        assert report.chains == 2 and report.m == 300 and report.b == 50
        doc = report.to_dict()
        assert doc["scan_order"] == ["sigma2", "mu"]
        assert doc["seed"] == 99

    def test_pure_function_of_matrix(self, normal_data):
        sm = run(get_model("normal"), normal_data, ChainConfig(m=400, b=50, chains=2, seed=13))
        a = summarize(sm).to_dict()
        b = summarize(sm).to_dict()
        assert a == b

    def test_gibbs_report_convergence_flags(self, normal_data):
        sm = run(get_model("normal"), normal_data,
                 ChainConfig(m=3000, b=500, chains=4, seed=17))
        report = summarize(sm)
        for p in report.params:
            assert p.rhat < 1.05
            assert p.ess > 400
            assert p.converged
