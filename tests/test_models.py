import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

import fidgibbs.gibbs
import fidgibbs.models as M
import oracles
from conftest import layered
from fidgibbs import (
    DegenerateDataError,
    DomainError,
    Dataset,
    EvaluationError,
    StructuralError,
    RngStream,
    ChainConfig,
    check_injectivity,
    check_model,
    get_model,
    run,
    simulate_dataset,
)
from fidgibbs.core import INJECTIVITY_GRID_SIZE
from fidgibbs.randvar import sample


def _catalog(model, data, label):
    """The catalog conditional for one parameter, built on data."""
    return get_model(model).build_conditionals(data)[label]


def _bvn_statistic(x, y, label, state):
    """The statistic run evaluates for one bivariate-normal conditional."""
    data = Dataset({"x": x, "y": y})
    return _catalog("bivariate_normal", data, label).statistic.compute(data, state)


class TestNormalConditionals:
    def test_mu_given_sigma2(self):
        for (xbar, sigma2, n), (mean, var) in [((0.0, 1.0, 4), (0.0, 0.25)),
                                                ((1.0, 2.0, 2), (1.0, 1.0))]:
            d = oracles.normal_conditional_mu(xbar, sigma2, n)
            assert (d.mean(), d.var()) == pytest.approx((mean, var), rel=1e-15, abs=0.0)

    def test_mu_invalid_variance(self, normal_data):
        # The fused draw and the layered path both refuse a zero variance.
        cond = _catalog("normal", normal_data, "mu")
        for draw in (cond.draw, layered(cond).draw):
            with pytest.raises(DomainError):
                draw(normal_data, {"mu": 5.0, "sigma2": 0.0}, RngStream(1, 0))

    def test_sigma2_given_mu(self):
        # n mean((x - mu)^2) / sigma2 is chi-square with n degrees of freedom.
        for mu, x in [(0.0, [-1.0, 1.0]), (2.0, [1.0, 3.0]), (0.5, [0.2, -1.0, 2.0, 0.8])]:
            x = np.array(x)
            d = oracles.normal_conditional_sigma2(mu, x)
            ss = float(np.sum((x - mu) ** 2))
            for v in (0.1, 0.7, 2.0, 9.0):
                assert d.cdf(v) == pytest.approx(stats.chi2.sf(ss / v, x.size), rel=1e-12)

    def test_sigma2_degenerate(self):
        with pytest.raises(DegenerateDataError):
            get_model("normal").build_conditionals(Dataset({"x": np.array([0.0, 0.0])}))

    def test_marginal_mu(self):
        # With n = 2 the marginal is a Cauchy law: its quartiles are xbar -+ s / sqrt(2).
        d = oracles.normal_marginal_mu(np.array([-1.0, 1.0]))
        assert d.ppf(0.75) == pytest.approx(1.0, rel=1e-12)
        x = np.array([8.0, 12.0, 8.0, 12.0, 10.0])
        d = oracles.normal_marginal_mu(x)
        assert d.mean() == pytest.approx(10.0, rel=1e-15)
        # Student t(4) with scale 2 / sqrt(5) has variance (4 / 5) * 4 / (4 - 2).
        assert d.var() == pytest.approx(8.0 / 5.0, rel=1e-12)

    def test_marginal_constant_data(self):
        with pytest.raises(DegenerateDataError):
            run(get_model("normal"), Dataset({"x": np.array([3.0, 3.0, 3.0])}),
                ChainConfig(m=100, b=10, chains=1))

    def test_log_density_matches_independent_formula(self):
        # Printed formulas recoded from scratch, compared on 100 points.
        x = np.linspace(-4.0, 4.0, 100)
        d = oracles.normal_conditional_mu(0.5, 2.0, 5)
        expected = -0.5 * np.log(2 * np.pi * 0.4) - (x - 0.5) ** 2 / 0.8
        assert np.max(np.abs(d.logpdf(x) - expected)) < 1e-10

        data = np.array([0.2, -1.0, 2.0, 0.8])
        d = oracles.normal_conditional_sigma2(0.0, data)
        n, s2 = 4, float(np.mean(data ** 2))
        grid = np.linspace(0.1, 12.0, 100)
        expected = ((n / 2) * np.log(n * s2 / 2) - math.lgamma(n / 2)
                    - (n / 2 + 1) * np.log(grid) - n * s2 / (2 * grid))
        assert np.max(np.abs(d.logpdf(grid) - expected)) < 1e-10


class TestParetoConditionals:
    def test_alpha_given_beta(self):
        # Gamma(n, rate): mean n / rate, variance n / rate^2.
        x = np.array([math.e, math.e ** 2])
        d = oracles.pareto_conditional_alpha(1.0, x)
        assert (d.mean(), d.var()) == pytest.approx((2.0 / 3.0, 2.0 / 9.0), rel=1e-12)
        beta = 0.7
        d = oracles.pareto_conditional_alpha(beta, np.full(3, math.e * beta))
        assert (d.mean(), d.var()) == pytest.approx((1.0, 1.0 / 3.0), rel=1e-12)

    def test_alpha_degenerate_rate(self):
        with pytest.raises(DegenerateDataError):
            get_model("pareto").build_conditionals(Dataset({"x": np.array([2.0, 2.0])}))

    def test_beta_above_min_rejected(self):
        # Above min(x) the alpha conditional does not exist.
        data = Dataset({"x": np.array([2.0, 4.0])})
        cond = _catalog("pareto", data, "alpha")
        for draw in (cond.draw, layered(cond).draw):
            with pytest.raises(DomainError, match="exceeds min"):
                draw(data, {"alpha": 1.0, "beta": 3.0}, RngStream(1, 0))

    def test_beta_draw_boundary(self):
        # gamma = 0 sits at the upper support point min(x).
        data = Dataset({"x": np.array([2.0, 3.0, 5.0])})
        eq = _catalog("pareto", data, "beta").equation(data, {"alpha": 1.5, "beta": 1.0})
        assert eq.invert(2.0, 0.0) == 2.0

    def test_beta_draw_support_and_median(self):
        x = np.array([2.0, 3.0, 5.0])
        alpha, n = 1.5, 3
        data = Dataset({"x": x})
        cond = _catalog("pareto", data, "beta")
        rng = RngStream(77, 0)
        state = {"alpha": alpha, "beta": 1.0}
        draws = np.array([cond.draw(data, state, rng) for _ in range(100_000)])
        assert np.all(draws <= 2.0) and np.all(draws > 0.0)
        expected_median = 2.0 * math.exp(-math.log(2.0) / (n * alpha))
        assert abs(np.median(draws) - expected_median) < 0.01

    def test_beta_draw_matches_quadrature_cdf(self):
        x = np.array([2.0, 3.0, 5.0])
        alpha = 1.5
        data = Dataset({"x": x})
        cond = _catalog("pareto", data, "beta")
        rng = RngStream(78, 0)
        state = {"alpha": alpha, "beta": 1.0}
        draws = np.array([cond.draw(data, state, rng) for _ in range(100_000)])

        def density(t):
            return math.exp(oracles.pareto_conditional_beta_log_density(t, alpha, x))

        # The CDF at the sorted draws: quad up to the smallest, then the
        # integrals between consecutive draws by three-point Gauss-Legendre,
        # accumulated.  The widest gap is 0.04; at every draw the sum is
        # within 1.4e-12 of one quad from 1e-12 to the draw.
        xs = np.sort(draws)
        nodes, weights = np.polynomial.legendre.leggauss(3)
        mid, half = 0.5 * (xs[1:] + xs[:-1]), 0.5 * np.diff(xs)
        values = np.array([density(t) for t in (mid[:, None] + half[:, None] * nodes).ravel().tolist()])
        gaps = half * (values.reshape(-1, 3) @ weights)
        first, _ = integrate.quad(density, 1e-12, xs[0], limit=200)
        at_draws = first + np.concatenate(([0.0], np.cumsum(gaps)))

        res = stats.kstest(draws, lambda b: np.interp(b, xs, at_draws))
        assert res.pvalue > 1e-3


class TestQuadregConditionals:
    def setup_method(self):
        r = np.random.default_rng(9)
        self.x = r.normal(size=12)
        self.y = 1.0 - 0.5 * self.x + 0.25 * self.x ** 2 + 0.3 * r.normal(size=12)

    def test_printed_formulas(self):
        b0, b1, b2, s2 = 0.8, -0.4, 0.3, 0.5
        d = oracles.quadreg_conditionals(b0, b1, b2, s2, self.x, self.y)
        n = self.x.size
        sx, sx2 = self.x.sum(), (self.x ** 2).sum()
        sx3, sx4 = (self.x ** 3).sum(), (self.x ** 4).sum()
        assert abs(d["beta0"].mean() - (self.y.sum() - b1 * sx - b2 * sx2) / n) < 1e-12
        assert abs(d["beta0"].var() - s2 / n) < 1e-12
        assert abs(d["beta1"].mean() - ((self.x * self.y).sum() - b0 * sx - b2 * sx3) / sx2) < 1e-12
        assert abs(d["beta1"].var() - s2 / sx2) < 1e-12
        assert abs(d["beta2"].mean()
                   - ((self.x ** 2 * self.y).sum() - b0 * sx2 - b1 * sx3) / sx4) < 1e-12
        assert abs(d["beta2"].var() - s2 / sx4) < 1e-12
        # RSS / sigma2 is chi-square with n degrees of freedom.
        rss = ((self.y - b0 - b1 * self.x - b2 * self.x ** 2) ** 2).sum()
        for v in (0.1, 0.5, 2.0):
            assert d["sigma2"].cdf(v) == pytest.approx(stats.chi2.sf(rss / v, n), rel=1e-12)

    def test_intercept_only_mean(self):
        d = oracles.quadreg_conditionals(0.0, 0.0, 0.0, 1.0, self.x, self.y)
        assert abs(d["beta0"].mean() - np.mean(self.y)) < 1e-12

    def test_degenerate_design(self):
        data = Dataset({"x": np.zeros(5), "y": np.arange(5.0)})
        with pytest.raises(DegenerateDataError):
            get_model("quadreg").build_conditionals(data)

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 200, 2.0 ** -200])
    def test_exact_quadratic_raises(self, scale):
        # y exactly quadratic in x leaves only rounding in the residual sum
        # of squares (3.9e-31 at the exact coefficients, unscaled); a run on
        # it gave sigma2 draws of order 1e-27 and no warning.
        x = np.array([0.0, 2.0, -2.0, 4.0])
        data = Dataset({"x": x, "y": scale * (1.0 + 2.0 * x - 0.5 * x * x)})
        with pytest.raises(DegenerateDataError, match="quadratic"):
            get_model("quadreg").build_conditionals(data)

    def test_nearly_quadratic_runs(self):
        # Relative noise of 1e-6 is a residual: sigma2 is of order
        # 1e-12 y'y / n.
        x = np.array([0.0, 2.0, -2.0, 4.0])
        y = (1.0 + 2.0 * x - 0.5 * x * x) * (1.0 + 1e-6 * np.random.default_rng(3).normal(size=4))
        s = run(get_model("quadreg"), Dataset({"x": x, "y": y}),
                ChainConfig(m=300, b=100, chains=2, seed=1))
        sigma2 = s.post_burnin("sigma2")
        assert np.all(sigma2 > 0.0) and 1e-16 < float(np.median(sigma2)) < 1e-6


class TestGammaConditionals:
    def test_beta_draws_match_gamma_law(self, gamma_data):
        # beta given alpha is Gamma(n alpha, sum x).
        x = gamma_data.col("x")
        alpha = 1.7
        cond = _catalog("gamma", gamma_data, "beta")
        rng = RngStream(65, 0)
        draws = [cond.draw(gamma_data, {"alpha": alpha, "beta": 1.0}, rng) for _ in range(20_000)]
        law = stats.gamma(a=x.size * alpha, scale=1.0 / float(np.sum(x)))
        assert stats.kstest(draws, law.cdf).pvalue > 1e-3

    def test_alpha_gamma_zero_solves_digamma_equation(self, gamma_data):
        x = gamma_data.col("x")
        n = x.size
        beta = 0.5
        eq = _catalog("gamma", gamma_data, "alpha").equation(gamma_data, {"alpha": 1.0, "beta": beta})
        q = float(np.sum(np.log(x)))
        a = eq.invert(q, 0.0)
        assert abs(special.psi(a) - (q / n + math.log(beta))) < 1e-10

    def test_alpha_injectivity_n20(self, gamma_data):
        x = gamma_data.col("x")
        eq = _catalog("gamma", gamma_data, "alpha").equation(gamma_data, {"alpha": 1.0, "beta": 0.5})
        report = check_injectivity(eq, float(np.sum(np.log(x))))
        assert report.monotone

    def test_alpha_round_trip(self, gamma_data):
        x = gamma_data.col("x")
        n = x.size
        q = float(np.sum(np.log(x)))
        eq = _catalog("gamma", gamma_data, "alpha").equation(gamma_data, {"alpha": 1.0, "beta": 0.5})
        rng = RngStream(55, 0)
        for _ in range(300):
            g = sample(eq.gamma_dist, rng)
            a = eq.invert(q, g)
            assert abs(eq.phi(g, a) - q) <= 1e-8

    def test_alpha_draw_positive(self, gamma_data, rng):
        cond = _catalog("gamma", gamma_data, "alpha")
        draws = [cond.draw(gamma_data, {"alpha": 1.0, "beta": 0.5}, rng) for _ in range(200)]
        assert all(d > 0.0 for d in draws)


class TestBetaConditionals:
    def test_gamma_zero_solves_digamma_difference(self, beta_data):
        x = beta_data.col("x")
        n = x.size
        b = 3.0
        eq = _catalog("beta", beta_data, "alpha").equation(beta_data, {"alpha": 1.0, "beta": b})
        q = float(np.sum(np.log(x)))
        a = eq.invert(q, 0.0)
        assert abs((special.psi(a) - special.psi(a + b)) - q / n) < 1e-10

    def test_monotone_map(self, beta_data):
        x = beta_data.col("x")
        eq = _catalog("beta", beta_data, "alpha").equation(beta_data, {"alpha": 1.0, "beta": 3.0})
        report = check_injectivity(eq, float(np.sum(np.log(x))))
        assert report.monotone

    def test_round_trip(self, beta_data):
        x = beta_data.col("x")
        q = float(np.sum(np.log(x)))
        eq = _catalog("beta", beta_data, "alpha").equation(beta_data, {"alpha": 1.0, "beta": 3.0})
        rng = RngStream(56, 0)
        for _ in range(300):
            g = sample(eq.gamma_dist, rng)
            a = eq.invert(q, g)
            assert abs(eq.phi(g, a) - q) <= 1e-8

    def test_relabel_symmetry(self, beta_data):
        # x -> 1 - x swaps the two shape draws exactly (same stream).
        mirrored = Dataset({"x": 1.0 - beta_data.col("x")})
        alpha = _catalog("beta", beta_data, "alpha")
        beta = _catalog("beta", mirrored, "beta")
        r1, r2 = RngStream(57, 0), RngStream(57, 0)
        a_draws = [alpha.draw(beta_data, {"alpha": 1.0, "beta": 3.0}, r1) for _ in range(50)]
        b_draws = [beta.draw(mirrored, {"alpha": 3.0, "beta": 1.0}, r2) for _ in range(50)]
        assert np.allclose(a_draws, b_draws, atol=1e-10)


class TestBehrensFisher:
    def test_symmetric_data_median_zero(self):
        r = RngStream(58, 0)
        x = np.concatenate([r.gen.normal(0, 2, 6), -r.gen.normal(0, 2, 6)])
        y = np.concatenate([r.gen.normal(0, 1, 5), -r.gen.normal(0, 1, 5)])
        x -= x.mean()
        y -= y.mean()
        draws = oracles.behrens_fisher_direct_draws(x, y, 100_000, RngStream(59, 0).gen)
        assert abs(np.median(draws)) < 0.02

    def test_scalar_draw_matches_vectorized_construction(self, bf_data):
        # The catalog conditionals, composed by the Gibbs sampler one scalar
        # draw at a time, reproduce the direct mean-difference construction.
        x, y = bf_data.col("x"), bf_data.col("y")
        sm = run(get_model("behrens_fisher"), bf_data,
                 ChainConfig(m=10_500, b=500, chains=2, seed=60))
        draws = sm.pooled("mu_x") - sm.pooled("mu_y")
        direct = oracles.behrens_fisher_direct_draws(x, y, 20_000, RngStream(61, 0).gen)
        assert stats.ks_2samp(draws, direct).pvalue > 1e-3

    def test_degenerate_group(self):
        with pytest.raises(DegenerateDataError):
            get_model("behrens_fisher").build_conditionals(
                Dataset({"x": np.array([1.0, 1.0]), "y": np.array([0.0, 1.0])}))


class TestBivariateNormal:
    STATE = {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": 0.0}

    @pytest.mark.parametrize("rho", [0.0, 0.7])
    @pytest.mark.parametrize("label,other", [("mu_x", "mu_y"), ("mu_y", "mu_x")])
    def test_mean_draws_match_normal_law(self, bvn_data, label, other, rho):
        # mu_x given the rest is N(xbar + rho sqrt(sx2 / sy2) (mu_y - ybar),
        # sx2 (1 - rho^2) / n), and symmetrically for mu_y.
        state = {"mu_x": 0.3, "mu_y": -0.4, "sigma_x2": 1.2, "sigma_y2": 0.9, "rho": rho}
        col, other_col = label[-1], other[-1]
        v = bvn_data.col(col)
        var, other_var = state[f"sigma_{col}2"], state[f"sigma_{other_col}2"]
        mean = (np.mean(v) + rho * math.sqrt(var / other_var)
                * (state[other] - np.mean(bvn_data.col(other_col))))
        cond = _catalog("bivariate_normal", bvn_data, label)
        rng = RngStream(66, 0)
        draws = [cond.draw(bvn_data, state, rng) for _ in range(20_000)]
        law = stats.norm(mean, math.sqrt(var * (1.0 - rho ** 2) / v.size))
        assert stats.kstest(draws, law.cdf).pvalue > 1e-3

    def test_sigma_mle_uncorrelated_case(self):
        x = np.array([math.sqrt(2), math.sqrt(2), -math.sqrt(2), -math.sqrt(2)])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        sig = _bvn_statistic(x, y, "sigma_x2", self.STATE)
        assert abs(sig * sig - 2.0) < 1e-12

    def test_sigma_mle_matches_grid_search(self):
        data = simulate_dataset(
            "bivariate_normal",
            {"mu_x": 0.5, "mu_y": -0.2, "sigma_x2": 1.5, "sigma_y2": 0.8, "rho": 0.6},
            10, RngStream(62, 0))
        x, y = data.col("x"), data.col("y")
        state = {"mu_x": 0.5, "mu_y": -0.2, "sigma_x2": 1.0, "sigma_y2": 0.8, "rho": 0.6}
        sig = _bvn_statistic(x, y, "sigma_x2", state)
        grid = np.arange(max(sig - 0.5, 1e-3), sig + 0.5, 1e-4)
        ll = [oracles.bvn_log_likelihood(0.5, -0.2, g * g, 0.8, 0.6, x, y) for g in grid]
        assert abs(grid[int(np.argmax(ll))] - sig) < 1e-3

    def test_sigma_draw_gamma_zero(self, bvn_data):
        state = {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": 0.8}
        eq = _catalog("bivariate_normal", bvn_data, "sigma_x2").equation(bvn_data, state)
        assert abs(eq.invert(1.3, 0.0) - 1.69) < 1e-12

    def test_rho_mle_symmetric_zero(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        rho = _bvn_statistic(x, y, "rho", self.STATE)
        assert abs(rho) < 1e-9

    def test_rho_mle_matches_grid_search(self):
        data = simulate_dataset(
            "bivariate_normal",
            {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": 0.7},
            10, RngStream(63, 0))
        x, y = data.col("x"), data.col("y")
        rho = _bvn_statistic(x, y, "rho", self.STATE)
        grid = np.arange(-0.999, 0.999, 1e-4)
        ll = [oracles.bvn_log_likelihood(0.0, 0.0, 1.0, 1.0, g, x, y) for g in grid]
        assert abs(grid[int(np.argmax(ll))] - rho) < 1e-3

    def test_rho_equation_gamma_zero(self, bvn_data):
        eq = _catalog("bivariate_normal", bvn_data, "rho").equation(bvn_data, self.STATE)
        assert abs(eq.invert(0.73, 0.0) - 0.73) < 1e-10

    def test_rho_equation_unique_sign_change(self, bvn_data):
        # At n=200 the map is strictly increasing in rho for any |gamma| <= 5.
        eq = _catalog("bivariate_normal", bvn_data, "rho").equation(bvn_data, self.STATE)
        rho_hat = 0.8
        grid = np.linspace(-0.999, 0.999, 4001)
        for g in (-5.0, -2.0, 0.0, 2.0, 5.0):
            vals = np.array([eq.phi(g, r) for r in grid]) - rho_hat
            signs = np.sign(vals)
            changes = np.sum(signs[1:] != signs[:-1])
            assert changes == 1

    def test_rho_round_trip(self, bvn_data):
        cond = _catalog("bivariate_normal", bvn_data, "rho")
        eq = cond.equation(bvn_data, self.STATE)
        q = cond.statistic.compute(bvn_data, self.STATE)
        rng = RngStream(64, 0)
        for _ in range(300):
            g = sample(eq.gamma_dist, rng)
            r = eq.invert(q, g)
            assert -1.0 < r < 1.0
            assert abs(eq.phi(g, r) - q) <= 1e-8

    def test_start_with_huge_sigma_statistic(self):
        # rho Cxy / sigma_y is about -1e157 here: the sigma_x statistic is a
        # finite root of about 2.6e155, whose square leaves the float range, so
        # no point of the start probe's grid solves, and the start fails with a
        # finite statistic and the state named.
        data = simulate_dataset(
            "bivariate_normal", {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0,
                                 "rho": 0.5}, 20, RngStream(3, 0))
        data = Dataset({"x": data.col("x") * 1e3, "y": data.col("y") * 1e3})
        init = {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1e-300, "rho": -0.5}
        with pytest.raises(StructuralError) as err:
            run(get_model("bivariate_normal"), data,
                ChainConfig(m=50, b=0, chains=1, init=(init,)))
        assert str(err.value).startswith(
            "conditional for 'sigma_x2': no gamma of the probe grid solves the equation")
        assert math.isfinite(err.value.diagnostics["statistic_value"])
        assert err.value.diagnostics["state"] == init

    def test_draw_wrappers(self, bvn_data, rng):
        conditionals = get_model("bivariate_normal").build_conditionals(bvn_data)
        s2 = conditionals["sigma_x2"].draw(bvn_data, dict(self.STATE, rho=0.8), rng)
        assert s2 > 0.0
        r = conditionals["rho"].draw(bvn_data, self.STATE, rng)
        assert -1.0 < r < 1.0


    @pytest.mark.parametrize("k", [300, -300, 450, -450])
    def test_chains_scale_with_the_data(self, k):
        # Data times 2^k: the means scale by 2^k, the variances by 2^2k and
        # rho not at all, bit for bit.  sigma_x2 sigma_y2 leaves the float
        # range from |k| of about 260 on, where the rho statistic read 0
        # (k > 0) or divided by zero (k < 0).
        data = simulate_dataset(
            "bivariate_normal", {"mu_x": 0.3, "mu_y": -0.2, "sigma_x2": 1.0, "sigma_y2": 2.0,
                                 "rho": 0.9}, 30, RngStream(5, 0))
        x, y = data.col("x"), data.col("y")
        assert 0.9 < np.corrcoef(x, y)[0, 1] < 0.95
        spec, config = get_model("bivariate_normal"), ChainConfig(m=400, b=0, chains=2, seed=11)
        ref = run(spec, data, config).values
        got = run(spec, Dataset({"x": np.ldexp(x, k), "y": np.ldexp(y, k)}), config).values
        want = np.concatenate([np.ldexp(ref[..., :2], k), np.ldexp(ref[..., 2:4], 2 * k),
                               ref[..., 4:]], axis=-1)
        assert got.tobytes() == want.tobytes()
        assert np.mean(ref[..., 4]) > 0.85


class TestSimulate:
    def test_gamma_sampling_setup(self):
        data = simulate_dataset("gamma", {"alpha": 2.0, "beta": 0.5}, 20, RngStream(70, 0))
        x = data.col("x")
        assert x.size == 20 and np.all(x > 0)

    def test_beta_sampling_setup(self):
        data = simulate_dataset("beta", {"alpha": 8.0, "beta": 3.0}, 50, RngStream(71, 0))
        x = data.col("x")
        assert x.size == 50 and np.all((x > 0) & (x < 1))
        assert abs(np.mean(x) - 8.0 / 11.0) < 0.1

    def test_bvn_sampling_setup(self):
        data = simulate_dataset(
            "bivariate_normal",
            {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": 0.8},
            200, RngStream(72, 0))
        rho_hat = np.corrcoef(data.col("x"), data.col("y"))[0, 1]
        assert abs(rho_hat - 0.8) < 0.1

    def test_pareto_support(self):
        data = simulate_dataset("pareto", {"alpha": 3.0, "beta": 2.0}, 500, RngStream(73, 0))
        assert np.all(data.col("x") >= 2.0)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            simulate_dataset("gamma", {"alpha": -1.0, "beta": 1.0}, 5, RngStream(1, 0))
        with pytest.raises(DomainError):
            simulate_dataset("gamma", {"alpha": 1.0}, 5, RngStream(1, 0))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(DomainError, match="unknown parameter 'rate'"):
            simulate_dataset("gamma", {"alpha": 2.0, "beta": 1.0, "rate": 5.0}, 5, RngStream(1, 0))


def _brent_shape_root(f):
    """The reference root of a shape map f(a), independent of the solver: the
    largest upward sign change of f on a log grid of factor 1.25 over
    [1e-12, 1e30] with the map's least point added (a bounded search in
    log a next to the grid's least value, so that a dip narrower than the
    grid is seen), refined by Brent on that interval (a bracket that holds
    the root).  Its tolerance is relative to the bracket so that small roots
    are compared at full precision.  The root is None when there is no such
    sign change; the least value of f found is returned too.  Below the
    grid the map's terms of order 1/a cancel to within eps / a in floats
    where gamma = sqrt n (the chain-start probe's gamma = 5 at n = 25)."""
    def safe(a):
        try:
            return f(a)
        except EvaluationError:
            return math.nan

    grid = np.exp(np.arange(math.log(1e-12), math.log(1e30), math.log(1.25))).tolist()
    values = [safe(a) for a in grid]
    i = int(np.nanargmin(values))
    bounds = (math.log(grid[max(i - 1, 0)]), math.log(grid[min(i + 1, len(grid) - 1)]))
    a_min = math.exp(optimize.minimize_scalar(lambda u: safe(math.exp(u)), bounds=bounds,
                                              method="bounded", options={"xatol": 1e-12}).x)
    points = sorted(zip(grid + [a_min], values + [safe(a_min)]))
    ups = [(lo, hi) for (lo, flo), (hi, fhi) in zip(points, points[1:]) if flo <= 0.0 < fhi]
    least = float(np.nanmin([v for _, v in points]))
    if not ups:
        return None, least
    lo, hi = ups[-1]
    return optimize.brentq(f, lo, hi, xtol=1e-13 * lo), least


def _shape_map(c, g, n, b, scratch):
    """The shape map a -> offset(a) + g sqrt(slope(a) / n) - c of
    _shape_solve in floats, from _shape_parts."""
    def f(a):
        off, s = M._shape_parts(a, b, scratch)[:2]
        if not s > 0.0:
            raise EvaluationError("non-positive variance term")
        return off + g * math.sqrt(s / n) - c
    return f


def _shape_c(eq, q):
    """The float c that eq's solve inverts, as invert forms it."""
    return q / eq.n + eq.log_beta if isinstance(eq, M._GammaShapeEquation) else q / eq.n


# Datasets on which the shape equations are hard: gamma with n=5 leaves
# part of the truncated gamma interval without a root, the beta panels
# include shapes below one.
SHAPE_PANELS = {
    "gamma_n5": ("gamma", lambda g: {"x": g.gamma(2.0, 2.0, 5)}),
    "gamma_n20": ("gamma", lambda g: {"x": g.gamma(2.0, 2.0, 20)}),
    "beta_a8_b3_n50": ("beta", lambda g: {"x": g.beta(8.0, 3.0, 50)}),
    "beta_a0.5_b0.7_n40": ("beta", lambda g: {"x": g.beta(0.5, 0.7, 40)}),
    "beta_a0.4_b0.3_n25": ("beta", lambda g: {"x": g.beta(0.4, 0.3, 25)}),
}


def _mpmath_root_error(c, g, n, b, a):
    """|a - r| / r for the root r of the shape map of _shape_solve(c, g, n,
    b) next to a, from the 40-digit value f(a) of the map: the Newton
    correction f(a) / (a f'(a)), with f' in floats.  Next to a root it is
    the relative distance up to a term of the order of its square.  The map
    must rise at a: of two roots, a is the larger."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        x = mp.mpf(a)
        if b is None:
            off, s = mp.psi(0, x), mp.psi(1, x)
        else:
            xb = x + mp.mpf(b)
            off, s = mp.psi(0, x) - mp.psi(0, xb), mp.psi(1, x) - mp.psi(1, xb)
        f = float(off + g * mp.sqrt(s / n) - mp.mpf(c))
    s, ds = (float(special.polygamma(k, a)) for k in (1, 2))
    if b is not None:
        s -= float(special.polygamma(1, a + b))
        ds -= float(special.polygamma(2, a + b))
    slope = a * (s + 0.5 * g * ds / math.sqrt(n * s))
    assert slope > 0.0, (c, g, a)
    return abs(f / slope)


def _record_shape_solves(panel, monkeypatch):
    """(c, gamma, n, b, scratch) of every shape solve of two short chains on
    the panel's dataset, chain-start probes included, run in this process."""
    model, make = SHAPE_PANELS[panel]
    records = []
    solve = M._shape_solve

    def recording(*args):
        records.append(args)
        return solve(*args)

    monkeypatch.setattr(M, "_shape_solve", recording)
    monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 1)
    data = Dataset(make(np.random.default_rng(16)))
    run(get_model(model), data, ChainConfig(m=400, b=100, chains=2, seed=16))
    monkeypatch.undo()
    return records


class TestNewtonInversion:
    @pytest.mark.parametrize("panel", sorted(SHAPE_PANELS))
    def test_flat_solve_matches_the_callback_solve(self, panel, monkeypatch):
        # Recorded chain states, probes and draws outside the certificate
        # included.  Inside and outside the certificate each root is within
        # 1e-12 of the 40-digit root, and the larger of two.  A solve raises
        # StructuralError only where the map has no root: its least value
        # (_brent_shape_root) is positive.
        records = _record_shape_solves(panel, monkeypatch)
        outside = raised = 0
        worst = 0.0
        for c, g, n, b, scratch in records:
            outside += g >= _certificate("gamma" if b is None else "beta", n, b)
            try:
                got = M._shape_solve(c, g, n, b, scratch)
            except StructuralError:
                raised += 1
                root, least = _brent_shape_root(_shape_map(c, g, n, b, scratch))
                assert root is None and least > 0.0, (c, g, root, least)
                continue
            worst = max(worst, _mpmath_root_error(c, g, n, b, got))
        assert worst <= 1e-12
        assert len(records) > 800
        # The other shapes of beta_a8_b3_n50 keep its certificate above 5.
        assert (outside > 0) == (panel != "beta_a8_b3_n50")
        if panel == "gamma_n5":
            assert raised > 0
        print(f"{len(records)} solves, {outside} outside the certificate, {raised} raised, "
              f"largest root error {worst:.2g}")

    def test_narrow_dip_is_solved(self):
        # gamma n = 5 outside the certificate (a recorded state): the map
        # falls to one minimum of -0.024 at a* = 0.32 and is negative only
        # between its roots 0.253 and 0.4196, a factor of 1.66 in a.  From
        # a point at or above the minimum, a bracket that grows by factors
        # of 4 steps over the dip and finds no root; the solve returns the
        # larger root.
        eq = M._GammaShapeEquation(5, 1.0, np.empty(2))
        q, g = 2.826600280064237, 2.5856573625976793
        assert g * g >= 5
        f = _shape_map(_shape_c(eq, q), g, 5, None, eq.scratch)
        assert f(0.25) > 0.0 > f(0.32) and f(0.42) > 0.0
        a = eq.invert(q, g)
        assert a == pytest.approx(0.41964245874720, rel=1e-12)
        assert _mpmath_root_error(_shape_c(eq, q), g, 5, None, a) <= 1e-12

    @pytest.mark.parametrize("b", [None, 2.0, 4.0])
    def test_solves_at_k_one(self, b):
        # gamma = sqrt(n) = 5 at n = 25, the end of the chain-start probe's
        # grid.  There the map rises from its limit -Euler's gamma - psi(b)
        # - c at a -> 0 (psi(b) = 0 for the gamma shape), and its terms of
        # order 1/a cancel in floats.  On a grid of c = limit + d: where the
        # 40-digit limit is not negative there is no root and the solve
        # raises; elsewhere it raises or returns a root within 1e-12 of 40
        # digits.  At d = 0 the float c can lie an ulp on either side of the
        # limit.  For 0 < d < 0.02 the root lies below about 0.01, where the
        # float map keeps only eps / a of its value, and is not held to
        # 1e-12 (see CHANGES.md).
        mp = pytest.importorskip("mpmath")
        n, g = 25, 5.0
        eq = (M._GammaShapeEquation(n, 1.0, np.empty(2)) if b is None else
              M._BetaShapeEquation(n, b, (np.empty(4), np.empty(4))))
        with mp.workdps(40):
            limit = -mp.euler - (0 if b is None else mp.psi(0, b))
        roots = 0
        for d in (-1.0, -0.1, -1e-2, -1e-4, -1e-8, -1e-12, 0.0, 0.02, 0.1, 0.5):
            q = n * float(limit + d)
            with mp.workdps(40):
                no_root = limit - mp.mpf(_shape_c(eq, q)) >= 0
            try:
                a = eq.invert(q, g)
            except StructuralError:
                continue
            assert not no_root, (d, a)
            assert _mpmath_root_error(_shape_c(eq, q), g, n, b, a) <= 1e-12, d
            roots += 1
        # The three points from 0.02 on the root side.
        assert roots == 3

    def test_probe_ends_at_k_one_without_a_root(self):
        # gamma n = 25: every chain start's statistic has c < -Euler's
        # gamma, so the probe's last grid point, gamma = 5 (k = 1), has no
        # root in each of the 4 chains.
        data = simulate_dataset("gamma", {"alpha": 0.5, "beta": 1.0}, 25, RngStream(0, 2**32))
        sm = run(get_model("gamma"), data, ChainConfig(m=50, b=0, chains=4, seed=0))
        assert sm.warnings == {"alpha.injectivity_grid_failures": 4}

    @pytest.mark.parametrize("panel", sorted(SHAPE_PANELS))
    def test_shape_newton_agrees_with_brent(self, panel, monkeypatch):
        # Every shape solve of the catalog equations on perturbed states is
        # checked against Brent on a grid bracket that holds the root: a
        # returned root is the largest root within 1e-10 relative.  A solve
        # that raises is outside the certificate, and there the map has no
        # root: its least value, the grid's refined by a bounded search, is
        # positive.
        model, make = SHAPE_PANELS[panel]
        solve = M._shape_solve
        outcomes = []

        def both(c, g, n, b, scratch):
            try:
                got = solve(c, g, n, b, scratch)
            except StructuralError:
                got = None
            want, least = _brent_shape_root(_shape_map(c, g, n, b, scratch))
            certified = g < 0.0 or g * g < n * (1.0 if b is None else min(1.0, b))
            outcomes.append((got, want, least, certified))
            if got is None:
                raise StructuralError("no root")
            return got

        monkeypatch.setattr(M, "_shape_solve", both)
        gen = np.random.default_rng(7)
        spec = get_model(model)
        for _ in range(4):
            data = Dataset(make(gen))
            conditionals = spec.build_conditionals(data)
            init = spec.chain_inits(data, 1)[0]
            for i in range(100):
                state = {k: v * math.exp(gen.normal(0.0, 1.5)) for k, v in init.items()}
                cond = conditionals["alpha" if model == "gamma" or i % 2 else "beta"]
                eq = cond.equation_for(data, state)
                g = float(gen.uniform(-5.0, 5.0)) if i % 3 else float(np.clip(gen.normal(), -5, 5))
                try:
                    eq.invert(cond.statistic.compute(data, state), g)
                except StructuralError:
                    pass
        assert len(outcomes) == 400
        for got, want, least, certified in outcomes:
            if got is not None:
                assert got == pytest.approx(want, rel=1e-10)
            else:
                assert not certified
                assert want is None and least > 0.0
        if panel == "gamma_n5":
            assert any(got is None for got, *_ in outcomes)

    @pytest.mark.parametrize("model,theta,n", [
        ("gamma", {"alpha": 2.0, "beta": 0.5}, 20),
        ("beta", {"alpha": 8.0, "beta": 3.0}, 50),
        ("beta", {"alpha": 0.5, "beta": 0.7}, 40),
        ("beta", {"alpha": 0.4, "beta": 0.3}, 25),
    ])
    def test_shape_solve_evaluations(self, model, theta, n, monkeypatch):
        # Special-function evaluations per solve inside the certificate.
        # Brent needed 8.2 (gamma) and 8.6 (beta 8/3) here, the Newton solve
        # from the chain state 5.8 and 5.6, and the solve from two rough
        # elementary Newton steps 2.0 to 2.8 (the most at shapes below 1).
        # From _shape_start, within about 1e-9 of the root, the solve
        # certifies its first Newton step after one evaluation: a start that
        # needs a second one in more than 1% of the solves fails.  Outside the
        # certificate a solve takes at most 3 on average, the evaluation at
        # the map's minimum included (14 by the geometric bracket at beta
        # 0.4/0.3).  The calls are counted in this process, so the chains
        # must run here.
        monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 1)
        solve, fdf = M._shape_solve, M._shape_fdf
        counts = {True: [0, 0], False: [0, 0]}
        certified = [False]

        def counting_solve(c, g, n, b, scratch):
            certified[0] = g < 0.0 or g * g < n * (1.0 if b is None else min(1.0, b))
            counts[certified[0]][0] += 1
            return solve(c, g, n, b, scratch)

        def counting_fdf(*args):
            counts[certified[0]][1] += 1
            return fdf(*args)

        monkeypatch.setattr(M, "_shape_solve", counting_solve)
        monkeypatch.setattr(M, "_shape_fdf", counting_fdf)
        data = simulate_dataset(model, theta, n, RngStream(1, 2**32))
        run(get_model(model), data, ChainConfig(m=1500, b=100, chains=2, seed=2018))
        (solves, evaluations), (outside, outside_evaluations) = counts[True], counts[False]
        assert solves > 3000
        assert evaluations / solves <= 1.01
        assert outside_evaluations <= 3 * outside
        print(f"{evaluations / solves:.3f} evaluations per certified solve, "
              f"{outside_evaluations / max(outside, 1):.3f} per solve outside it ({outside})")

    def test_rho_newton_agrees_with_brent(self):
        # One Newton solve on the whole bracket serves every gamma: inside
        # the certificate |gamma| < sqrt(n / 2) and outside it, the root
        # (or the raise) is Brent's on the same bracket.
        gen = np.random.default_rng(3)
        outside = 0
        for i in range(3000):
            n = int(gen.integers(3, 40)) if i % 2 else int(gen.integers(3, 5001))
            eq = M._BvnRhoEquation(n)
            q = float(np.tanh(gen.normal(0.0, 1.5)))
            g = float(gen.uniform(-5.0, 5.0))
            try:
                got = eq.invert(q, g)
            except StructuralError:
                got = None
            try:
                want = optimize.brentq(lambda r: eq.phi(g, r) - q, *eq.bracket,
                                       xtol=1e-13)
            except ValueError:
                want = None
            assert (got is None) == (want is None)
            if got is not None:
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
            outside += g * g >= n / 2
        assert outside > 500

    def test_rho_raises_without_sign_change(self):
        # q outside (-1, 1) has no root, also where |gamma| < sqrt(n / 2).
        eq = M._BvnRhoEquation(50)
        for q in (-1.5, 1.5):
            with pytest.raises(StructuralError, match="no correlation solves the equation"):
                eq.invert(q, 0.5)

    def test_rho_entry_check_skipped_only_where_it_cannot_fail(self):
        # invert skips the sign check at the bracket ends for q inside the rho
        # statistic's clip and |gamma| <= 100 sqrt(n).  Against the check made
        # on every call, each case gives the same root bits or the same raise.
        def checked(eq, q, g):
            lo, hi = eq.bracket
            f_lo, f_hi = eq.phi(g, lo) - q, eq.phi(g, hi) - q
            if not f_lo < 0.0 < f_hi:
                raise StructuralError(
                    f"no correlation solves the equation: no sign change on [{lo}, {hi}]: "
                    f"phi - q = {f_lo:.6g} and {f_hi:.6g}", statistic_value=q, gamma=g)
            sqrt_n = eq.sqrt_n
            k = g / sqrt_n
            r = min(max(q, lo), hi)
            fr, dr = _rho_fdf(r, q, g, sqrt_n, k)
            return M.solve_newton(_rho_fdf, lo, hi, r, fr, dr, tol=1e-13, args=(q, g, sqrt_n, k))

        def outcome(invert, eq, q, g):
            try:
                return invert(eq, q, g).hex()
            except (StructuralError, EvaluationError) as exc:
                return f"{type(exc).__name__}: {exc}"

        gen = np.random.default_rng(29)
        clip = M._RHO_MLE_BRACKET[1]
        edges = [s * e for s in (1.0, -1.0)
                 for e in (clip, math.nextafter(clip, 2.0), math.nextafter(clip, 0.0),
                           1.0 - 1e-12, 1.0, 1.5)]
        cases = raised = 0
        for n in (3, 4, 30, 200, 5000):
            limit = 100.0 * math.sqrt(n)
            gammas = [0.0, 0.7, 5.0, limit, math.nextafter(limit, math.inf), 1e3, 1e4, 1e6]
            gammas += [-g for g in gammas] + gen.uniform(-5.0, 5.0, 20).tolist()
            qs = edges + np.tanh(gen.normal(0.0, 2.0, 20)).tolist()
            eq = M._BvnRhoEquation(n)
            for q in qs:
                for g in gammas:
                    want = outcome(checked, eq, q, g)
                    assert outcome(M._BvnRhoEquation.invert, eq, q, g) == want, (n, q, g)
                    cases += 1
                    raised += want.startswith("StructuralError")
        assert cases == 5 * 32 * 36 and raised > 300
        print(f"{cases} cases, {raised} raised")

    @pytest.mark.parametrize("n,g", [(3, 1.3), (3, -4.0), (30, 3.9), (30, -5.0)])
    def test_rho_large_gamma_has_one_root(self, n, g, monkeypatch):
        # |gamma| >= sqrt(n / 2): phi is not monotone, yet q in (-1, 1) is
        # crossed once, and the one Newton solve returns that crossing, bit
        # for bit the generic solve_newton's.
        assert g * g >= n / 2
        monkeypatch.setattr(optimize, "brentq", lambda *a, **k: pytest.fail("Brent called"))
        eq = M._BvnRhoEquation(n)
        r = eq.invert(0.3, g)
        assert r.hex() == _rho_newton(eq, 0.3, g).hex()
        assert abs(eq.phi(g, r) - 0.3) <= 1e-12
        grid = np.linspace(*eq.bracket, 4001)
        signs = np.sign([eq.phi(g, x) - 0.3 for x in grid.tolist()])
        crossings = np.flatnonzero(signs[1:] != signs[:-1])
        assert crossings.size == 1
        assert grid[crossings[0]] <= r <= grid[crossings[0] + 1]

    def test_extreme_shapes_raise_no_warnings(self):
        # Far-out statistics and states drive psi'' to overflow; a non-finite
        # derivative bisects quietly (RuntimeWarnings fail the suite).  gamma
        # 0.5 is inside both certificates at n = 4, 2.0 on their edge and
        # 3.0 outside them, where a map falls to a minimum or decreases.
        data = Dataset({"x": np.array([0.2, 0.5, 0.7, 0.9])})
        for model in ("gamma", "beta"):
            cond = _catalog(model, data, "alpha")
            for q in (-1e150, -10.0, 10.0):
                for other in (1e-200, 1.0, 1e200):
                    for start in (1e-300, 1.0, 1e300):
                        eq = cond.equation_for(data, {"alpha": start, "beta": other})
                        for g in (0.5, 2.0, 3.0):
                            try:
                                a = eq.invert(q, g)
                            except StructuralError:
                                continue
                            assert 0.0 < a < math.inf


def _rho_fdf(r, q, g, sqrt_n, k):
    """(phi(g, r) - q, d phi / dr) of the correlation equation, k = g / sqrt_n:
    the map whose generic solve _BvnRhoEquation.invert writes inline."""
    r2 = 1.0 + r * r
    root = math.sqrt(r2)
    return (r + (1.0 - r * r) * g / (sqrt_n * root) - q,
            1.0 - k * r * (2.0 + r2) / (r2 * root))


def _rho_newton(eq, q, g):
    """The correlation equation's root by solve_newton on _rho_fdf from q
    clipped into the bracket, without the entry check."""
    lo, hi = eq.bracket
    sqrt_n = eq.sqrt_n
    k = g / sqrt_n
    r = min(max(q, lo), hi)
    fr, dr = _rho_fdf(r, q, g, sqrt_n, k)
    return M.solve_newton(_rho_fdf, lo, hi, r, fr, dr, tol=1e-13, args=(q, g, sqrt_n, k))


def _shape_conditional(model, n, seed, label="alpha"):
    theta = {"alpha": 2.0, "beta": 0.5} if model == "gamma" else {"alpha": 8.0, "beta": 3.0}
    data = simulate_dataset(model, theta, n, RngStream(seed, 0))
    return data, _catalog(model, data, label)


def _certificate(model, n, other):
    """The gamma below which the shape map is increasing with one root."""
    return math.sqrt(n) if model == "gamma" else math.sqrt(n * min(1.0, other))


class TestShapeSeries:
    def test_beta_offset_and_slope_free_of_cancellation(self):
        # psi(a) - psi(a + b) and psi'(a) - psi'(a + b) as _shape_parts gives
        # them, against 40 digits, for a / b from 1e-3 to 1e15.  The ufunc's
        # difference alone lost 2.7e-7 of the offset at a = 1e8, b = 1, and
        # 0.29 at a = 1e14.
        mp = pytest.importorskip("mpmath")
        scratch = (np.empty(4), np.empty(4))
        worst = [0.0, 0.0]
        for a in (1.37 * np.logspace(-3, 15, 10)).tolist():
            for ratio in np.logspace(-3, 15, 19).tolist():
                b = a / ratio
                got = M._shape_parts(a, b, scratch)[:2]
                with mp.workdps(40):
                    x, xb = mp.mpf(a), mp.mpf(a) + mp.mpf(b)
                    want = (mp.psi(0, x) - mp.psi(0, xb), mp.psi(1, x) - mp.psi(1, xb))
                    for i in (0, 1):
                        worst[i] = max(worst[i], float(abs(got[i] / want[i] - 1)))
        print(f"largest relative error: offset {worst[0]:.2g}, slope {worst[1]:.2g}")
        assert max(worst) <= 1e-12

    def test_beta_phi_free_of_cancellation(self):
        # The beta shape equation's phi against 40 digits where a >> b: the
        # difference of the digamma and trigamma values lost 2.7e-7 of it at
        # a = 1e8 and 1.9e-3 at a = 1e12 (b = 1, n = 50).
        mp = pytest.importorskip("mpmath")
        eq = M._BetaShapeEquation(50, 1.0, (np.empty(4), np.empty(4)))
        for a in (1e8, 1e12):
            for g in (-2.0, 0.0, 2.5):
                with mp.workdps(40):
                    x = mp.mpf(a)
                    want = float(50 * (mp.psi(0, x) - mp.psi(0, x + 1))
                                 + g * mp.sqrt(50 * (mp.psi(1, x) - mp.psi(1, x + 1))))
                assert eq.phi(g, a) == pytest.approx(want, rel=1e-12, abs=0.0), (a, g)

    @pytest.mark.parametrize("b", [None, 1.5, 4.0, 100.0])
    def test_shape_minimum_against_40_digits(self, b):
        # a* of _shape_minimum, where r(a) = 2 slope^(3/2) / -slope' = k,
        # against the 40-digit root of r(a) = k; k from near 1 to near
        # sqrt b, where a* grows without bound.
        mp = pytest.importorskip("mpmath")
        top = 3.5 if b is None else math.sqrt(b) * (1.0 - 1e-3)
        for k in (1.0 + 1e-6, 1.001, 1.2, 2.0, 3.5, top):
            if not k <= top:
                continue
            u, curvature = M._shape_minimum(k, b)
            with mp.workdps(40):
                def r(t):
                    x = mp.exp(t)
                    s = mp.psi(1, x) - (mp.psi(1, x + b) if b else 0)
                    ds = mp.psi(2, x) - (mp.psi(2, x + b) if b else 0)
                    return 2 * s ** 1.5 / -ds - k
                want = float(mp.findroot(r, mp.mpf(u)))
            assert u == pytest.approx(want, abs=1e-8), (k, u, want)
            assert curvature > 0.0

    @pytest.mark.parametrize("b", [None, 0.3, 3.0, 1e6])
    def test_start_series_accuracy(self, b):
        # The elementary offset, slope and slope' of the start (the series
        # at z >= 5) against 40 digits: within 1e-9 (absolute), 1e-7 and
        # 1e-5 (relative).  The slope's error is at most 1.6e-9, which is 5e-8
        # of a beta slope psi'(5) - psi'(8).
        mp = pytest.importorskip("mpmath")
        for a in (1e-6, 0.02, 0.4, 1.0, 1.46, 2.5, 4.99, 5.0, 7.3, 40.0, 3e3, 1e9):
            got = M._shape_series(a, b, M._START_SHIFT)
            with mp.workdps(40):
                x = mp.mpf(a)
                want = [mp.psi(k, x) - (mp.psi(k, x + mp.mpf(b)) if b else 0) for k in range(3)]
            assert abs(got[0] - float(want[0])) <= 1e-9 * max(1.0, abs(float(want[0]))), a
            assert got[1] == pytest.approx(float(want[1]), rel=1e-7), a
            assert got[2] == pytest.approx(float(want[2]), rel=1e-5), a

    @pytest.mark.parametrize("b", [None, 0.3, 3.0])
    def test_curvature_bound(self, b):
        # The last value of _shape_parts bounds the derivative of the slope's
        # derivative, 6 zeta(4, a) less 6 zeta(4, a + b) for a beta shape,
        # from above (the series past a = 64 b gives the value itself).
        mp = pytest.importorskip("mpmath")
        scratch = np.empty(2) if b is None else (np.empty(4), np.empty(4))
        for a in np.logspace(-6, 8, 29).tolist():
            with mp.workdps(40):
                x = mp.mpf(a)
                want = float(6 * (mp.zeta(4, x) - (mp.zeta(4, x + mp.mpf(b)) if b else 0)))
            assert M._shape_parts(a, b, scratch)[3] >= want * (1.0 - 1e-9), a

    @pytest.mark.parametrize("model", ["gamma", "beta"])
    def test_start_lands_next_to_the_root(self, model):
        # Inside the certificate, on maps whose root a0 is known (c is the
        # map's value at a0): the start lands close enough for the solve to
        # certify its first Newton step, and mostly within 1e-9.  The first
        # sweep is mostly inside the first-point tables, the second runs
        # through the shapes, sizes and other shapes around and past them.
        gen = np.random.default_rng(5)
        scratch = np.empty(2) if model == "gamma" else (np.empty(4), np.empty(4))
        sweeps = [((3, 5, 20, 50, 400), (1e-3, 1e4), (-4.0, 4.0)),
                  ((2, 3, 5, 20, 50, 400, 5000), (1e-8, 1e12), (-6.0, 8.0))]
        for sizes, shapes, log_b in sweeps:
            errors = []
            for _ in range(3000):
                n = int(gen.choice(sizes))
                b = None if model == "gamma" else math.exp(gen.uniform(*log_b))
                g = float(gen.uniform(-5.0, min(_certificate(model, n, b), 5.0)))
                a0 = math.exp(gen.uniform(math.log(shapes[0]), math.log(shapes[1])))
                off, s = M._shape_parts(a0, b, scratch)[:2]
                k = g / math.sqrt(n)
                errors.append(abs(math.log(M._shape_start(off + k * math.sqrt(s), k, b) / a0)))
            print(f"shapes {shapes}: median {np.median(errors):.2g}, largest {max(errors):.2g}")
            assert np.median(errors) <= 1e-10 and max(errors) <= 3e-7

    @pytest.mark.parametrize("model", ["gamma", "beta"])
    def test_table_start_takes_one_series_step(self, model, monkeypatch):
        # Inside the first-point tables the first point is within 2e-3 of
        # the root, so the start sums the series once and never the rough
        # estimate: the gamma table's c and k, and beta shapes from a = 2 up
        # (roots from 2.1, whose first points are all above 2).
        gen = np.random.default_rng(8)
        scratch = np.empty(2) if model == "gamma" else (np.empty(4), np.empty(4))
        starts = []
        while len(starts) < 2000:
            if model == "gamma":
                starts.append((gen.uniform(-16.0, 8.0), -math.expm1(gen.uniform(-3.0, 1.6)), None))
                continue
            b, a0 = math.exp(gen.uniform(-3.0, 5.0)), math.exp(gen.uniform(math.log(2.1), 9.0))
            k = math.sqrt(b) * -math.expm1(gen.uniform(-0.25, 1.6))
            off, s = M._shape_parts(a0, b, scratch)[:2]
            if k < 1.0 and 3.4e-4 <= -(off + k * math.sqrt(s)) <= 1.6:
                starts.append((off + k * math.sqrt(s), k, b))
        calls = []
        for name in ("_shape_series", "_shape_estimate"):
            monkeypatch.setattr(M, name, lambda *a, f=getattr(M, name), name=name:
                                calls.append(name) or f(*a))
        for args in starts:
            M._shape_start(*args)
        assert calls == ["_shape_series"] * len(starts)


class TestShapePivots:
    @pytest.mark.parametrize("model,n,other", [("gamma", 20, 0.5), ("gamma", 5, 0.5),
                                               ("beta", 50, 3.0), ("beta", 25, 0.4)])
    def test_pivot_inverts_invert(self, model, n, other):
        # pivot(q, invert(q, g)) gives g back, and log|dg/da| matches a
        # central difference of g.
        data, cond = _shape_conditional(model, n, 61)
        eq = cond.equation_for(data, {"alpha": 1.0, "beta": other})
        q = cond.statistic.compute(data, {"beta": other})
        solved = 0
        for g in np.linspace(-5.0, 5.0, 41).tolist():
            try:
                a = eq.invert(q, g)
            except StructuralError:
                continue
            solved += 1
            back, log_dg = eq.pivot(q, a)
            assert back == pytest.approx(g, abs=1e-9)
            h = 1e-6 * a
            slope = (eq.pivot(q, a + h)[0] - eq.pivot(q, a - h)[0]) / (2.0 * h)
            assert log_dg == pytest.approx(math.log(abs(slope)), abs=1e-5)
        assert solved >= 25

    @pytest.mark.parametrize("model,n,label,other,seed", [
        ("gamma", 20, "alpha", 0.5, 62), ("beta", 50, "alpha", 3.0, 63),
        ("beta", 50, "beta", 8.0, 65), ("gamma", 5, "alpha", 0.5, 66),
        ("beta", 25, "alpha", 0.4, 67)],
        ids=["gamma-20-0.5-62", "beta-50-3.0-63", "beta-50-beta-8.0-65", "gamma-5-0.5-66",
             "beta-25-0.4-67"])
    def test_draws_follow_the_pivot_law(self, model, n, label, other, seed):
        # The independent oracle: a draw a has g(a) = pivot(q, a) with the
        # primary's law given acceptance.  a decreases in g on the branch
        # the solver returns, and every g up to min(5, max g(a)) is
        # accepted, so P(A <= a) = (Phi(top) - Phi(g(a))) / (Phi(top) - Phi(-5)).
        data, cond = _shape_conditional(model, n, seed, label)
        state = {"alpha": other, "beta": 1.0} if label == "beta" else {"alpha": 1.0, "beta": other}
        eq = cond.equation_for(data, state)
        q = cond.statistic.compute(data, state)
        grid = np.exp(np.linspace(math.log(1e-4), math.log(1e4), 4001)).tolist()
        top = min(5.0, max(eq.pivot(q, a)[0] for a in grid))
        norm = stats.norm.cdf(top) - stats.norm.cdf(-5.0)

        def cdf(values):
            g = np.clip([eq.pivot(q, a)[0] for a in values], -5.0, top)
            return (stats.norm.cdf(top) - stats.norm.cdf(g)) / norm

        rng = RngStream(seed, 0)
        draws = [cond.draw(data, state, rng) for _ in range(20_000)]
        pvalue = stats.kstest(draws, cdf).pvalue
        print(f"KS p-value {pvalue:.3g}")
        assert pvalue > 1e-3

    @pytest.mark.parametrize("model,region", [("gamma", "inside"), ("gamma", "outside"),
                                              ("beta", "inside"), ("beta", "outside")])
    @given(u=st.floats(0.0, 1.0), log_other=st.floats(-3.0, 3.0),
           log_states=st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
           shift=st.floats(-1.0, 1.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_solve_does_not_read_the_state(self, model, region, u, log_other, log_states, shift):
        # The same (q, gamma, other shape) gives the same root, or the same
        # raise, from any value of the shape being drawn.
        n = 5 if model == "gamma" else 10
        data, cond = _shape_conditional(model, n, 64)
        other = math.exp(log_other)
        q = cond.statistic.compute(data, {"beta": other}) * (1.0 + 0.5 * shift)
        lim = min(_certificate(model, n, other), 5.0)
        if region == "inside":
            g = -5.0 + u * (lim + 5.0) * (1.0 - 1e-9)
        else:
            assume(lim < 5.0)
            g = lim + u * (5.0 - lim)
        outcomes = set()
        for log_state in log_states:
            eq = cond.equation_for(data, {"alpha": math.exp(log_state), "beta": other})
            try:
                outcomes.add(eq.invert(q, g))
            except StructuralError as exc:
                outcomes.add(str(exc))
        assert len(outcomes) == 1


def _bvn_conditional(rho, n, seed, label):
    """A bivariate-normal conditional on simulated data, at the chain start."""
    data = simulate_dataset(
        "bivariate_normal", {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": rho},
        n, RngStream(seed, 0))
    state = get_model("bivariate_normal").chain_inits(data, 1)[0]
    cond = _catalog("bivariate_normal", data, label)
    return data, state, cond, cond.equation_for(data, state), cond.statistic.compute(data, state)


class TestBvnPivots:
    @pytest.mark.parametrize("label,rho,n", [("rho", 0.95, 30), ("rho", 0.2, 4),
                                             ("sigma_x2", 0.2, 4), ("sigma_y2", 0.8, 200)])
    def test_pivot_inverts_invert(self, label, rho, n):
        # pivot(q, invert(q, g)) gives g back, and log|dg/dtheta| matches a
        # central difference of g.
        _, _, _, eq, q = _bvn_conditional(rho, n, 60, label)
        solved = 0
        for g in np.linspace(-5.0, 5.0, 41).tolist():
            try:
                theta = eq.invert(q, g)
            except StructuralError:
                continue
            solved += 1
            back, log_dg = eq.pivot(q, theta)
            assert back == pytest.approx(g, abs=1e-8)
            h = 1e-7 * min(abs(theta), 1.0 - abs(theta)) if label == "rho" else 1e-6 * theta
            slope = (eq.pivot(q, theta + h)[0] - eq.pivot(q, theta - h)[0]) / (2.0 * h)
            assert slope < 0.0
            assert log_dg == pytest.approx(math.log(-slope), abs=1e-5)
        assert solved >= 25

    def test_rho_pivot_is_a_decreasing_bijection(self):
        # g(r) falls strictly from +inf to -inf on (-1, 1), for every n and q.
        grid = np.linspace(-1.0, 1.0, 20_001)[1:-1].tolist()
        for n in (3, 4, 30, 5000):
            eq = M._BvnRhoEquation(n)
            for q in (-0.999, -0.5, 0.0, 0.3, 0.95, 0.999):
                g = np.array([eq.pivot(q, r)[0] for r in grid])
                assert np.all(np.diff(g) < 0.0)
                assert g[0] > 5.0 and g[-1] < -5.0

    def test_rho_needs_no_start_probe(self):
        # The rho conditional is not probed at the start of a chain: the
        # grid that check_injectivity walks is strictly decreasing wherever
        # invert solves, also for statistics within 1e-16 of +-1, where the
        # roots of some or all gammas lie past the bracket ends.
        for n in (3, 4, 30, 200, 5000):
            data, state, cond, _, _ = _bvn_conditional(0.5, n, 63, "rho")
            assert not cond.check_at_start
            eq = cond.equation(data, state)
            for k in range(1, 17):
                for q in (1.0 - 10.0 ** -k, 1.0 - 3.0 * 10.0 ** -k):
                    for signed in (q, -q):
                        report = check_injectivity(eq, signed)
                        assert report.monotone or report.n_failed == INJECTIVITY_GRID_SIZE
                        assert report.n_failed == 0 or k >= 12
                        finite = report.theta_values[np.isfinite(report.theta_values)]
                        assert np.all(np.diff(finite) < 0.0)

    @pytest.mark.parametrize("label,rho,n,seed", [("rho", 0.95, 30, 60), ("rho", 0.2, 4, 61),
                                                  ("sigma_x2", 0.2, 4, 62)])
    def test_draws_follow_the_pivot_law(self, label, rho, n, seed):
        # The independent oracle: theta decreases in g, and the accepted g
        # are those above the equation's gamma_domain floor (-5 for rho), so
        # P(Theta <= t) = (Phi(5) - Phi(g(t))) / (Phi(5) - Phi(floor)) with
        # g(t) clipped to [floor, 5].  At rho 0.95, n = 30 the statistic is
        # near 0.95 and the monotone certificate fails for |g| >= 3.87; at
        # n = 4 the sigma equation excludes the g below -2.9.
        data, state, cond, eq, q = _bvn_conditional(rho, n, seed, label)
        floor = getattr(eq, "gamma_domain", (-5.0, 5.0))[0]
        if label == "rho":
            assert floor == -5.0
            if n == 30:
                assert 0.94 < q < 0.96
        else:
            assert -4.0 < floor < -2.0
        norm = stats.norm.cdf(5.0) - stats.norm.cdf(floor)

        def cdf(values):
            g = np.clip([eq.pivot(q, t)[0] for t in values], floor, 5.0)
            return (stats.norm.cdf(5.0) - stats.norm.cdf(g)) / norm

        rng = RngStream(seed, 0)
        draws = [cond.draw(data, state, rng) for _ in range(20_000)]
        pvalue = stats.kstest(draws, cdf).pvalue
        print(f"KS p-value {pvalue:.3g}")
        assert pvalue > 1e-3


def _bvn_panel_data(rho, n, seed):
    """Data as the benchmark's bivariate-normal panels make it."""
    g = np.random.default_rng(seed)
    z1, z2 = g.standard_normal(n), g.standard_normal(n)
    return Dataset({"x": z1, "y": rho * z1 + math.sqrt(1.0 - rho * rho) * z2})


def _mp_bvn_statistics(data, state):
    """The sigma_x, sigma_y and rho statistics at state, from the data at 50
    digits: each sigma the positive root of its quadratic in closed form,
    and rho the root of the cubic in the statistic's padded clip by
    polyroots (the highest likelihood among several, by
    oracles.bvn_log_likelihood), clipped.  Also returns the number of real
    roots of the cubic and of those in the clip."""
    mp = pytest.importorskip("mpmath")
    x, y = data.col("x"), data.col("y")
    lo, hi = M._RHO_MLE_BRACKET
    pad = 1e-12 * (hi - lo)
    with mp.workdps(50):
        mu_x, mu_y, sx2, sy2, rho = (mp.mpf(state[k]) for k in
                                     ("mu_x", "mu_y", "sigma_x2", "sigma_y2", "rho"))
        dx = [mp.mpf(v) - mu_x for v in x.tolist()]
        dy = [mp.mpf(v) - mu_y for v in y.tolist()]
        n = len(dx)
        cxx, cyy = mp.fsum(v * v for v in dx), mp.fsum(v * v for v in dy)
        cxy = mp.fsum(u * v for u, v in zip(dx, dy))

        def sigma(c_own, other_var):
            # The positive root of a t^2 + b t - c_own, without cancellation.
            a, b = n * (1 - rho * rho), rho * cxy / mp.sqrt(other_var)
            sq = mp.sqrt(b * b + 4 * a * c_own)
            return float(2 * c_own / (b + sq) if b >= 0 else (sq - b) / (2 * a))

        want = {"sigma_x2": sigma(cxx, sy2), "sigma_y2": sigma(cyy, sx2)}
        c = cxy / mp.sqrt(sx2 * sy2)
        c1 = n - cxx / sx2 - cyy / sy2
        # polyroots resolves roots of very different sizes only roughly:
        # Newton steps at 50 digits finish each real one.
        real = []
        for r in mp.polyroots([-n, c, c1, c], maxsteps=400, extraprec=1000):
            if abs(mp.im(r)) > mp.mpf(10) ** -30 * (1 + abs(r)):
                continue
            r = mp.re(r)
            for _ in range(60):
                der = (-3 * n * r + 2 * c) * r + c1
                if der == 0:
                    break
                r -= (((-n * r + c) * r + c1) * r + c) / der
            real.append(float(r))
    inside = [min(max(r, lo), hi) for r in real if lo - pad < r < hi + pad]
    want["rho"] = inside[0] if len(inside) == 1 else max(inside, default=None, key=lambda r: (
        oracles.bvn_log_likelihood(state["mu_x"], state["mu_y"], state["sigma_x2"],
                                   state["sigma_y2"], r, x, y)))
    return want, len(real), len(inside)


class TestBvnStatisticsAgainstMpmath:
    """The sigma_x, sigma_y and rho statistics that run draws from, through
    statistic.compute, against the 50-digit oracle above: within 1e-14
    relative for sigma and 1e-12 for rho, on chain states and on each rare
    branch of the solves."""

    LABELS = ("sigma_x2", "sigma_y2", "rho")

    def _check(self, data, states):
        """Compare every statistic at states with the oracle; returns the
        number of states whose cubic has several roots in the clip."""
        conditionals = get_model("bivariate_normal").build_conditionals(data)
        several = 0
        for state in states:
            want, _, inside = _mp_bvn_statistics(data, state)
            several += inside > 1
            for label, tol in zip(self.LABELS, (1e-14, 1e-14, 1e-12)):
                got = conditionals[label].statistic.compute(data, state)
                assert abs(got - want[label]) <= tol * abs(want[label]), (label, state, got)
        return several

    @pytest.mark.parametrize("case", ["panel_rho0.8_n200", "panel_rho0.97_n30", "golden_n4"])
    def test_chain_states(self, case):
        # 300 states per case from two chains: the benchmark's two
        # bivariate-normal panels and the golden table's n = 4 run, whose
        # rho cubics have several roots in the clip at some states.
        if case == "golden_n4":
            data = simulate_dataset(
                "bivariate_normal", {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0,
                                     "rho": 0.2}, 4, RngStream(2018, stream_id=2**32))
        else:
            rho, n = (0.8, 200) if case == "panel_rho0.8_n200" else (0.97, 30)
            data = _bvn_panel_data(rho, n, 22)
        samples = run(get_model("bivariate_normal"), data,
                      ChainConfig(m=150, b=0, chains=2, seed=2018))
        states = [dict(zip(samples.labels, row))
                  for row in samples.values.reshape(-1, len(samples.labels)).tolist()]
        several = self._check(data, states)
        print(f"{case}: {several} of {len(states)} states with several roots in the clip")
        if case == "golden_n4":
            assert several > 0

    @pytest.mark.parametrize("k,rho", [(300, 0.5), (-300, 0.5), (0, 1e-80), (0, 0.0)])
    def test_quadratic_outside_the_unscaled_range(self, k, rho):
        # A coefficient outside [2^-250, 2^250]: C_own at data scale 2^+-300,
        # or rho C_xy / sigma_other at rho = 1e-80; and b = 0 at rho = 0.
        base = _bvn_panel_data(0.6, 12, 5)
        data = Dataset({"x": np.ldexp(base.col("x"), k), "y": np.ldexp(base.col("y"), k)})
        state = {"mu_x": math.ldexp(0.1, k), "mu_y": math.ldexp(-0.2, k),
                 "sigma_x2": math.ldexp(1.3, 2 * k), "sigma_y2": math.ldexp(0.7, 2 * k), "rho": rho}
        self._check(data, [state])

    def test_cubic_with_three_real_roots(self):
        # Variances far above the data's: c1 is near n and c near 0, so the
        # cubic's roots lie near -1, 0 and 1.
        data = _bvn_panel_data(0.6, 12, 5)
        state = {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1e6, "sigma_y2": 2e6, "rho": 0.3}
        assert _mp_bvn_statistics(data, state)[1] == 3
        self._check(data, [state])

    @pytest.mark.parametrize("ratio", [1e150, 1e-150, 1e300, 1e-300])
    def test_variances_far_from_the_data(self, ratio):
        # sigma_x2 / sigma_y2 of 1e+-150 and 1e+-300: |c| or |c1| is far
        # above n, where the closed form of the cubic leaves the float range.
        data = _bvn_panel_data(0.5, 20, 7)
        states = [{"mu_x": 0.1, "mu_y": -0.1, "sigma_x2": s * ratio, "sigma_y2": s, "rho": 0.3}
                  for s in (1.0, 0.5, 2.0)]
        states += [dict(s, sigma_x2=s["sigma_y2"], sigma_y2=s["sigma_x2"]) for s in states]
        self._check(data, states)

    def test_variance_far_below_the_data_runs(self, tmp_path):
        # A chain started at sigma_x2 = 1e-150 draws rho first.
        from fidgibbs import cli
        out = tmp_path / "out"
        assert cli.main(["run", "--model", "bivariate_normal", "--simulate",
                         "mu_x=0,mu_y=0,sigma_x2=1,sigma_y2=1,rho=0.5,n=20", "--m", "200",
                         "--b", "50", "--chains", "1", "--init",
                         "mu_x=0,mu_y=0,sigma_x2=1e-150,sigma_y2=1,rho=0.3", "--scan-order",
                         "rho,mu_x,mu_y,sigma_x2,sigma_y2", "--output-dir", str(out)]) == 0
        rho = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, usecols=-1)
        assert rho.size == 200 and np.all(np.abs(rho) < 1.0)

    def test_no_root_in_the_clip_raises(self):
        # y = x and a state with equal means and variances: the one real root
        # is rho = 1, outside the statistic's clip.
        x = np.array([1.0, 2.0, 3.0, 4.0])
        data = Dataset({"x": x, "y": x})
        state = {"mu_x": 2.5, "mu_y": 2.5, "sigma_x2": 1.25, "sigma_y2": 1.25, "rho": 0.5}
        assert _mp_bvn_statistics(data, state)[0]["rho"] is None
        cond = _catalog("bivariate_normal", data, "rho")
        with pytest.raises(DegenerateDataError, match="has no real root in"):
            cond.statistic.compute(data, state)

    @pytest.mark.parametrize("label,match", [("sigma_x2", "coefficient c must be finite"),
                                             ("rho", "cubic coefficients must be finite")])
    def test_non_finite_coefficient_raises(self, label, match):
        # mu_x = 1e200: the centred sum of squares of x overflows.
        data = _bvn_panel_data(0.6, 12, 5)
        state = {"mu_x": 1e200, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": 0.3}
        with pytest.raises(DomainError, match=match):
            _catalog("bivariate_normal", data, label).statistic.compute(data, state)


# Data no model can take: too few observations, values outside the support,
# constant data and columns of unequal length, where each applies.
HOSTILE_DATA = [
    ("normal", "too_few", {"x": [1.0]}),
    ("normal", "constant", {"x": [2.0, 2.0, 2.0]}),
    ("pareto", "too_few", {"x": [2.0]}),
    ("pareto", "negative", {"x": [-1.0, 2.0, 3.0]}),
    ("pareto", "zero", {"x": [0.0, 2.0, 3.0]}),
    ("pareto", "constant", {"x": [2.0, 2.0, 2.0]}),
    ("quadreg", "too_few", {"x": [1.0], "y": [1.0]}),
    ("quadreg", "unequal", {"x": [1.0, 2.0], "y": [1.0, 2.0, 3.0]}),
    ("quadreg", "zero_design", {"x": [0.0, 0.0, 0.0], "y": [1.0, 2.0, 3.0]}),
    ("quadreg", "two_x_values", {"x": [1.0, 2.0, 1.0, 2.0], "y": [1.0, 2.0, 3.0, 4.0]}),
    ("gamma", "too_few", {"x": [2.0]}),
    ("gamma", "negative", {"x": [-1.0, 2.0, 3.0]}),
    ("gamma", "zero", {"x": [0.0, 2.0, 3.0]}),
    ("gamma", "constant", {"x": [2.0, 2.0, 2.0]}),
    ("beta", "too_few", {"x": [0.5]}),
    ("beta", "above_one", {"x": [0.5, 1.5, 0.2]}),
    ("beta", "at_one", {"x": [0.5, 1.0, 0.2]}),
    ("beta", "at_zero", {"x": [0.5, 0.0, 0.2]}),
    ("beta", "constant", {"x": [0.5, 0.5, 0.5]}),
    ("behrens_fisher", "too_few", {"x": [1.0], "y": [1.0, 2.0]}),
    ("behrens_fisher", "constant", {"x": [1.0, 2.0], "y": [3.0, 3.0, 3.0]}),
    ("bivariate_normal", "too_few", {"x": [1.0, 2.0], "y": [2.0, 1.0]}),
    ("bivariate_normal", "unequal", {"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0, 4.0]}),
    ("bivariate_normal", "constant", {"x": [1.0, 2.0, 3.0], "y": [5.0, 5.0, 5.0]}),
]


@pytest.mark.parametrize("model,columns", [(m, c) for m, _, c in HOSTILE_DATA],
                         ids=[f"{m}-{case}" for m, case, _ in HOSTILE_DATA])
def test_hostile_data_raises_typed_error(model, columns):
    # build_conditionals is the one data check: it, run and check_model
    # raise a typed error, never a RuntimeWarning (an error in this suite)
    # or a numpy ValueError.
    spec = get_model(model)
    data = Dataset(columns)
    typed = (DomainError, DegenerateDataError)
    with pytest.raises(typed):
        spec.build_conditionals(data)
    with pytest.raises(typed):
        run(spec, data, ChainConfig(m=20, b=5, chains=2, seed=1))
    with pytest.raises(typed):
        check_model(spec, data)


class TestConstantTimeStatistics:
    """The variance and RSS statistics, built once per dataset and O(1) per
    draw, against exact rational O(n) references."""

    @staticmethod
    def _mean_sq(x, mu):
        return float(sum((Fraction(v) - Fraction(mu)) ** 2 for v in x) / len(x))

    @staticmethod
    def _rss(x, y, b0, b1, b2):
        b0, b1, b2 = Fraction(b0), Fraction(b1), Fraction(b2)
        return float(sum((Fraction(yi) - b0 - b1 * Fraction(xi) - b2 * Fraction(xi) ** 2) ** 2
                         for xi, yi in zip(x, y)))

    @pytest.mark.parametrize("mean", [0.0, 1.0, 1e4, -1e6, 1e8])
    @pytest.mark.parametrize("sd", [1.0, 3.7])
    def test_variance_statistic(self, mean, sd):
        g = np.random.default_rng(17)
        x = mean + sd * g.standard_normal(40)
        y = -mean + 0.5 * sd * g.standard_normal(25)
        cases = (("normal", Dataset({"x": x}), (("x", "mu", "sigma2"),)),
                 ("behrens_fisher", Dataset({"x": x, "y": y}),
                  (("x", "mu_x", "sigma_x2"), ("y", "mu_y", "sigma_y2"))))
        for model, data, groups in cases:
            conds = get_model(model).build_conditionals(data)
            for column, mu, s2 in groups:
                v = data.col(column)
                center, se = float(np.mean(v)), float(np.std(v)) / math.sqrt(v.size)
                mus = [center + k * se for k in (0.0, 1e-9, -0.3, 2.0, -40.0, 1e6)]
                for m in mus + [0.0, 2.0 * center + sd]:
                    got = conds[s2].statistic.compute(data, {mu: m})
                    ref = self._mean_sq(v, m)
                    assert abs(got - ref) <= 1e-12 * ref, (model, s2, m)

    # (x offset, x spread): offsets up to 1e4, designs of moderate condition.
    @pytest.mark.parametrize("x_offset,x_spread", [(0.0, 1.0), (1e2, 10.0), (1e4, 1e3), (0.0, 1e4)])
    @pytest.mark.parametrize("y_offset", [0.0, 1e2, 1e4])
    def test_rss_statistic(self, x_offset, x_spread, y_offset):
        g = np.random.default_rng(23)
        t = np.linspace(-2.0, 2.0, 30)
        x = x_offset + x_spread * t
        y = y_offset + 1.0 - 0.5 * t + 0.25 * t * t + 0.7 * g.standard_normal(t.size)
        data = Dataset({"x": x, "y": y})
        spec = get_model("quadreg")
        rss = spec.build_conditionals(data)["sigma2"].statistic
        # The states a run visits, plus far-off ones.
        sm = run(spec, data, ChainConfig(m=15, b=0, chains=2, seed=3))
        states = [dict(zip(sm.labels, row)) for row in sm.values.reshape(-1, 4).tolist()]
        states += [{"beta0": 0.0, "beta1": 0.0, "beta2": 0.0},
                   {"beta0": y_offset, "beta1": 1.0, "beta2": -1.0}]
        for st in states:
            ref = self._rss(x, y, st["beta0"], st["beta1"], st["beta2"])
            got = rss.compute(data, st)
            assert abs(got - ref) <= 1e-12 * ref, st
