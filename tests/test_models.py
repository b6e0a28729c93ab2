import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

import fidgibbs.gibbs
import fidgibbs.models as M
from fidgibbs import (
    DegenerateDataError,
    DomainError,
    Dataset,
    EvaluationError,
    StructuralError,
    Gamma,
    Normal,
    RngStream,
    ScaledInvChiSquare,
    StudentT,
    ChainConfig,
    check_injectivity,
    check_model,
    get_model,
    run,
    log_density,
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
        assert M.normal_conditional_mu(0.0, 1.0, 4) == Normal(0.0, 0.25)
        assert M.normal_conditional_mu(1.0, 2.0, 2) == Normal(1.0, 1.0)

    def test_mu_invalid_variance(self):
        with pytest.raises(DomainError):
            M.normal_conditional_mu(5.0, 0.0, 3)

    def test_sigma2_given_mu(self):
        d = M.normal_conditional_sigma2(0.0, np.array([-1.0, 1.0]))
        assert d == ScaledInvChiSquare(2, 1.0)
        d = M.normal_conditional_sigma2(2.0, np.array([1.0, 3.0]))
        assert d == ScaledInvChiSquare(2, 1.0)

    def test_sigma2_degenerate(self):
        with pytest.raises(DegenerateDataError):
            M.normal_conditional_sigma2(0.0, np.array([0.0, 0.0]))

    def test_marginal_mu(self):
        d = M.normal_marginal_mu(np.array([-1.0, 1.0]))
        assert d == StudentT(1, 0.0, 1.0)
        x = np.array([8.0, 12.0, 8.0, 12.0, 10.0])
        d = M.normal_marginal_mu(x)
        assert d.df == 4
        assert abs(d.loc - 10.0) < 1e-12
        assert abs(d.scale - 2.0 / math.sqrt(5.0)) < 1e-12

    def test_marginal_constant_data(self):
        with pytest.raises(DegenerateDataError):
            M.normal_marginal_mu(np.array([3.0, 3.0, 3.0]))

    def test_log_density_matches_independent_formula(self):
        # Printed formulas recoded from scratch, compared on 100 points.
        x = np.linspace(-4.0, 4.0, 100)
        d = M.normal_conditional_mu(0.5, 2.0, 5)
        expected = -0.5 * np.log(2 * np.pi * 0.4) - (x - 0.5) ** 2 / 0.8
        got = np.array([log_density(d, v) for v in x])
        assert np.max(np.abs(got - expected)) < 1e-10

        data = np.array([0.2, -1.0, 2.0, 0.8])
        d = M.normal_conditional_sigma2(0.0, data)
        n, s2 = 4, float(np.mean(data ** 2))
        grid = np.linspace(0.1, 12.0, 100)
        expected = ((n / 2) * np.log(n * s2 / 2) - math.lgamma(n / 2)
                    - (n / 2 + 1) * np.log(grid) - n * s2 / (2 * grid))
        got = np.array([log_density(d, v) for v in grid])
        assert np.max(np.abs(got - expected)) < 1e-10


class TestParetoConditionals:
    def test_alpha_given_beta(self):
        x = np.array([math.e, math.e ** 2])
        assert M.pareto_conditional_alpha(1.0, x) == Gamma(2, 3.0)
        beta = 0.7
        x = np.full(3, math.e * beta)
        d = M.pareto_conditional_alpha(beta, x)
        assert d.shape == 3 and abs(d.rate - 3.0) < 1e-12

    def test_alpha_degenerate_rate(self):
        with pytest.raises(DegenerateDataError):
            M.pareto_conditional_alpha(2.0, np.array([2.0, 2.0]))

    def test_beta_above_min_rejected(self):
        with pytest.raises(DomainError):
            M.pareto_conditional_alpha(3.0, np.array([2.0, 4.0]))

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
            return math.exp(M.pareto_conditional_beta_log_density(t, alpha, x))

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

    def test_joint_kernel_support(self):
        x = np.array([2.0, 3.0])
        assert M.pareto_joint_log_kernel(1.0, 2.5, x) == -math.inf
        assert math.isfinite(M.pareto_joint_log_kernel(2.0, 0.5, np.array([3.0])))


class TestQuadregConditionals:
    def setup_method(self):
        r = np.random.default_rng(9)
        self.x = r.normal(size=12)
        self.y = 1.0 - 0.5 * self.x + 0.25 * self.x ** 2 + 0.3 * r.normal(size=12)

    def test_printed_formulas(self):
        b0, b1, b2, s2 = 0.8, -0.4, 0.3, 0.5
        d = M.quadreg_conditionals(b0, b1, b2, s2, self.x, self.y)
        n = self.x.size
        sx, sx2 = self.x.sum(), (self.x ** 2).sum()
        sx3, sx4 = (self.x ** 3).sum(), (self.x ** 4).sum()
        assert abs(d["beta0"].mean - (self.y.sum() - b1 * sx - b2 * sx2) / n) < 1e-12
        assert abs(d["beta0"].var - s2 / n) < 1e-12
        assert abs(d["beta1"].mean - ((self.x * self.y).sum() - b0 * sx - b2 * sx3) / sx2) < 1e-12
        assert abs(d["beta1"].var - s2 / sx2) < 1e-12
        assert abs(d["beta2"].mean
                   - ((self.x ** 2 * self.y).sum() - b0 * sx2 - b1 * sx3) / sx4) < 1e-12
        assert abs(d["beta2"].var - s2 / sx4) < 1e-12
        rss = ((self.y - b0 - b1 * self.x - b2 * self.x ** 2) ** 2).sum()
        assert d["sigma2"].df == n
        assert abs(d["sigma2"].scale - rss / n) < 1e-12

    def test_intercept_only_mean(self):
        d = M.quadreg_conditionals(0.0, 0.0, 0.0, 1.0, self.x, self.y)
        assert abs(d["beta0"].mean - np.mean(self.y)) < 1e-12

    def test_degenerate_design(self):
        x = np.zeros(5)
        y = np.arange(5.0)
        with pytest.raises(DegenerateDataError):
            M.quadreg_conditionals(0.0, 0.0, 0.0, 1.0, x, y)

    def test_zero_residuals(self):
        # Exactly representable perfect fit.
        x = np.array([0.0, 2.0, -2.0, 4.0])
        y = 1.0 + 2.0 * x - 0.5 * x ** 2
        with pytest.raises(DegenerateDataError):
            M.quadreg_conditionals(1.0, 2.0, -0.5, 1.0, x, y)

    def test_joint_kernel_values(self):
        y = 1.0 + 2.0 * self.x - 0.5 * self.x ** 2
        n = self.x.size
        # Perfect fit at sigma = 1: only the sigma power term, which is 0.
        assert abs(M.quadreg_joint_log_kernel(1.0, 2.0, -0.5, 1.0, self.x, y)) < 1e-12
        # Doubling sigma with zero residuals costs (n + 2) log 2 in log kernel.
        k2 = M.quadreg_joint_log_kernel(1.0, 2.0, -0.5, 4.0, self.x, y)
        assert abs(k2 - (-(n + 2) * math.log(2.0))) < 1e-12


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
        from fidgibbs import digamma
        assert abs(digamma(a) - (q / n + math.log(beta))) < 1e-10

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
        from fidgibbs import digamma
        assert abs((digamma(a) - digamma(a + b)) - q / n) < 1e-10

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
        draws = M.behrens_fisher_direct_draws(x, y, 100_000, RngStream(59, 0))
        assert abs(np.median(draws)) < 0.02

    def test_scalar_draw_matches_vectorized_construction(self, bf_data):
        # The catalog conditionals, composed by the Gibbs sampler one scalar
        # draw at a time, reproduce the direct mean-difference construction.
        x, y = bf_data.col("x"), bf_data.col("y")
        sm = run(get_model("behrens_fisher"), bf_data,
                 ChainConfig(m=10_500, b=500, chains=2, seed=60))
        draws = sm.pooled("mu_x") - sm.pooled("mu_y")
        direct = M.behrens_fisher_direct_draws(x, y, 20_000, RngStream(61, 0))
        assert stats.ks_2samp(draws, direct).pvalue > 1e-3

    def test_degenerate_group(self):
        with pytest.raises(DegenerateDataError):
            M.behrens_fisher_direct_draws(np.array([1.0, 1.0]), np.array([0.0, 1.0]), 10,
                                          RngStream(1, 0))
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
        ll = [M.bvn_log_likelihood(0.5, -0.2, g * g, 0.8, 0.6, x, y) for g in grid]
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
        ll = [M.bvn_log_likelihood(0.0, 0.0, 1.0, 1.0, g, x, y) for g in grid]
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


class TestExpandingRoot:
    @pytest.mark.parametrize("start", [1e-3, 0.3, 2.9, 3.1, 40.0, 1e6])
    def test_each_point_evaluated_at_most_twice(self, start):
        # The bracket ends found by the expansion are not evaluated again.
        calls = []

        def f(a):
            calls.append(a)
            return math.log(a) - math.log(3.0), 1.0 / a

        root = M._expanding_root(f, start)
        assert root == pytest.approx(3.0, rel=1e-10)
        counts = {a: calls.count(a) for a in calls}
        assert max(counts.values()) <= 2, counts

    def test_non_finite_bracket_end_raises_structural_error(self):
        # f is undefined between 1.2 and 3; the expansion stops on a bracket
        # whose lower end is such a point.
        def f(a):
            if 1.2 < a < 3.0:
                raise EvaluationError(f"undefined at {a}")
            return a - 1.0, 1.0

        with pytest.raises(StructuralError, match="root isolation failed"):
            M._expanding_root(f, 2.0)


def _brent_shape_root(f):
    """The reference root of a shape map f(a), independent of the solver: the
    largest upward sign change of f on a log grid of factor 1.25 over
    [1e-30, 1e30], refined by Brent on that grid interval (a bracket that
    holds the root).  Its tolerance is relative to the bracket so that tiny
    roots are compared at full precision.  The root is None when there is no
    such sign change; the grid points where f <= 0 are returned too."""
    def safe(a):
        try:
            return f(a)
        except EvaluationError:
            return math.nan

    grid = np.exp(np.arange(math.log(1e-30), math.log(1e30), math.log(1.25))).tolist()
    values = [safe(a) for a in grid]
    negative = [a for a, v in zip(grid, values) if v <= 0.0]
    ups = [(lo, hi) for lo, hi, flo, fhi in zip(grid, grid[1:], values, values[1:])
           if flo <= 0.0 < fhi]
    if not ups:
        return None, negative
    lo, hi = ups[-1]
    return optimize.brentq(f, lo, hi, xtol=1e-13 * lo), negative


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


# The shape solve as it was built from callbacks (parts_fn, bounds_fn and
# estimate), through scipy.special.zeta: the reference that the flat solve
# must match bit for bit, raises and their messages included.

def _ref_gamma_parts(a):
    z2, z3 = special.zeta([2.0, 3.0], a).tolist()
    return float(special.psi(a)), z2, -2.0 * z3


def _ref_psi_bounds(a):
    ia = 1.0 / a
    ix = 1.0 / (a + 1.0)
    psi = math.log(a + 1.0) - ia
    tri = ia * ia + ix
    return psi - ix, psi - 0.5 * ix, tri + 0.5 * ix * ix, tri + ix * ix


def _ref_psi_estimate(a):
    """(psi(a), psi'(a), psi''(a)) by the recurrence to a + 2 and the
    asymptotic series of psi(z + 1/2) at z = a + 3/2, to terms in 1/z^2."""
    ia = 1.0 / a
    ia1 = 1.0 / (a + 1.0)
    iz = 1.0 / (a + 1.5)
    iz2 = iz * iz
    return (-math.log(iz) + iz2 / 24.0 - ia - ia1,
            ia * ia + ia1 * ia1 + iz - iz * iz2 / 12.0,
            -2.0 * (ia * ia * ia + ia1 * ia1 * ia1) - iz2 + 0.25 * iz2 * iz2)


def _ref_inverse_digamma_start(y):
    """Minka's start for psi(a) = y: exp(y) + 1/2, or -1/(y + Euler's gamma)
    below y = -2.22."""
    return math.exp(min(y, 600.0)) + 0.5 if y >= -2.22 else -1.0 / (y + M._EULER_GAMMA)


def _ref_beta_callbacks(b):
    """parts_fn, estimate and bounds_fn of a beta shape with other shape b."""
    def parts(a):
        ab = a + b
        z2_a, z2_ab, z3_a, z3_ab = special.zeta([2.0, 2.0, 3.0, 3.0], [a, ab, a, ab]).tolist()
        return float(special.psi(a)) - float(special.psi(ab)), z2_a - z2_ab, -2.0 * (z3_a - z3_ab)

    def estimate(a):
        off, s, ds = _ref_psi_estimate(a)
        off_b, s_b, ds_b = _ref_psi_estimate(a + b)
        return off - off_b, s - s_b, ds - ds_b

    def bounds(a):
        off_lo, off_hi, s_lo, s_hi = _ref_psi_bounds(a)
        off_b_lo, off_b_hi, s_b_lo, s_b_hi = _ref_psi_bounds(a + b)
        return off_lo - off_b_hi, off_hi - off_b_lo, max(s_lo - s_b_hi, 0.0), s_hi - s_b_lo

    return parts, estimate, bounds


def _ref_estimate_steps(estimate, c, g, n, a, steps):
    a = a if M._SHAPE_MIN <= a <= M._SHAPE_MAX else M._SHAPE_MAX if a > M._SHAPE_MAX else M._SHAPE_MIN
    for _ in range(steps):
        off, s, ds = estimate(a)
        if not s > 0.0:
            break
        r = math.sqrt(s / n)
        d = a * (s + 0.5 * g * ds / (n * r))
        if not 0.0 < d < math.inf:
            break
        a *= math.exp(max(-1.0, min(1.0, (c - off - g * r) / d)))
    return a


def _ref_clt_shape_invert(c, parts_fn, g, n, start, bounds_fn=None):
    def in_log(u):
        a = math.exp(u)
        off, s, ds = parts_fn(a)
        if not s > 0.0:
            raise EvaluationError(f"non-positive variance term at a={a}")
        r = math.sqrt(s / n)
        return off + g * r - c, a * (s + 0.5 * g * ds / (n * r))

    try:
        if start is None:
            return M._uncertified_root(in_log, g * g >= n)
        u = math.log(start)
        fu, du = in_log(u)
        if not math.isfinite(fu):
            raise EvaluationError(f"non-finite target function value at a={math.exp(u)}")
        if fu == 0.0:
            return math.exp(u)
        lo = hi = u
        width = max(2.0 * abs(fu) / du if 0.0 < du < math.inf else 0.0, 0.25)
        g_up = g >= 0.0
        while True:
            if fu < 0.0:
                hi = u + width
                if hi > M._LOG_SHAPE_MAX:
                    raise StructuralError("no upper bracket: target function stays negative")
                off_lo, _, s_lo, s_hi = bounds_fn(math.exp(hi))
                if off_lo + g * math.sqrt((s_lo if g_up else s_hi) / n) > c:
                    break
            else:
                lo = u - width
                if lo < M._LOG_SHAPE_MIN:
                    raise StructuralError("no lower bracket: target function stays positive")
                _, off_hi, s_lo, s_hi = bounds_fn(math.exp(lo))
                if off_hi + g * math.sqrt((s_hi if g_up else s_lo) / n) < c:
                    break
            width *= 2.0
        return math.exp(M.solve_newton(in_log, lo, hi, u, fu, du, 1e-13, quadratic=True))
    except EvaluationError as exc:
        raise StructuralError(f"root isolation failed: {exc}") from exc


def _ref_shape_invert(eq, q, g):
    """The callback solve of eq.invert(q, g)."""
    n = eq.n
    if isinstance(eq, M._GammaShapeEquation):
        c = q / n + eq.log_beta
        if not (g < 0.0 or g * g < n):
            return _ref_clt_shape_invert(c, _ref_gamma_parts, g, n, None)
        a = _ref_inverse_digamma_start(c)
        if g:
            a = _ref_inverse_digamma_start(c - g * math.sqrt(_ref_psi_estimate(a)[1] / n))
        a = _ref_estimate_steps(_ref_psi_estimate, c, g, n, a, 1)
        return _ref_clt_shape_invert(c, _ref_gamma_parts, g, n, a, _ref_psi_bounds)
    b = eq.b
    parts, estimate, bounds = _ref_beta_callbacks(b)
    c = q / n
    if not (g < 0.0 or g * g < n * min(1.0, b)):
        return _ref_clt_shape_invert(c, parts, g, n, None)
    if not c < 0.0:
        raise StructuralError("statistic not negative: no shape solves the equation",
                              statistic_value=q)
    a = 0.5 + b / math.expm1(min(-c, 700.0))
    if a < 1.0:
        small = c + M._EULER_GAMMA + _ref_psi_estimate(b)[0]
        if small < 0.0:
            a = min(a, -1.0 / small)
    a = _ref_estimate_steps(estimate, c, g, n, a, 2)
    return _ref_clt_shape_invert(c, parts, g, n, a, bounds)


def _record_shape_solves(panel, monkeypatch):
    """(equation, q, gamma) of every shape solve of two short chains on the
    panel's dataset, chain-start probes included, run in this process."""
    model, make = SHAPE_PANELS[panel]
    records = []
    for cls in (M._GammaShapeEquation, M._BetaShapeEquation):
        def recording(eq, q, g, invert=cls.invert):
            records.append((eq, q, g))
            return invert(eq, q, g)
        monkeypatch.setattr(cls, "invert", recording)
    monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 1)
    data = Dataset(make(np.random.default_rng(16)))
    run(get_model(model), data, ChainConfig(m=400, b=100, chains=2, seed=16))
    monkeypatch.undo()
    return records


class TestNewtonInversion:
    @pytest.mark.parametrize("panel", sorted(SHAPE_PANELS))
    def test_flat_solve_matches_the_callback_solve(self, panel, monkeypatch):
        # Recorded chain states, probes and draws outside the certificate
        # included: the same root to the bit, or the same StructuralError.
        records = _record_shape_solves(panel, monkeypatch)
        outside = raised = 0
        for eq, q, g in records:
            try:
                want = _ref_shape_invert(eq, q, g).hex()
            except StructuralError as exc:
                want, raised = f"raised {exc}", raised + 1
            try:
                got = eq.invert(q, g).hex()
            except StructuralError as exc:
                got = f"raised {exc}"
            assert got == want, (q, g)
            model = "gamma" if isinstance(eq, M._GammaShapeEquation) else "beta"
            outside += g >= _certificate(model, eq.n, getattr(eq, "b", None))
        assert len(records) > 800
        # The other shapes of beta_a8_b3_n50 keep its certificate above 5.
        assert (outside > 0) == (panel != "beta_a8_b3_n50")
        if panel == "gamma_n5":
            assert raised > 0
        print(f"{len(records)} solves, {outside} outside the certificate, {raised} raised")

    @pytest.mark.parametrize("panel", sorted(SHAPE_PANELS))
    def test_shape_newton_agrees_with_brent(self, panel, monkeypatch):
        # Every shape solve of the catalog equations on perturbed states is
        # checked against Brent on a grid bracket that holds the root: a
        # returned root is the largest root within 1e-10 relative.  A solve
        # that raises is outside the certificate, and there the map has no
        # root on the grid or its negative dip is narrower than the factor 4
        # that the bracket expansion steps by.
        model, make = SHAPE_PANELS[panel]
        solve = M._shape_solve
        outcomes = []

        def both(c, g, n, b, start, scratch):
            try:
                got = solve(c, g, n, b, start, scratch)
            except StructuralError:
                got = None

            def f(a):
                off, s, _ = M._shape_parts(a, b, scratch)
                if not s > 0.0:
                    raise EvaluationError("non-positive variance term")
                return off + g * math.sqrt(s / n) - c

            want, negative = _brent_shape_root(f)
            outcomes.append((got, want, negative, start is not None))
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
        for got, want, negative, certified in outcomes:
            if got is not None:
                assert got == pytest.approx(want, rel=1e-10)
            else:
                assert not certified
                assert not negative or max(negative) < 4.0 * min(negative)
        if panel == "gamma_n5":
            assert any(got is None for got, *_ in outcomes)

    @pytest.mark.parametrize("model,theta,n", [
        ("gamma", {"alpha": 2.0, "beta": 0.5}, 20),
        ("beta", {"alpha": 8.0, "beta": 3.0}, 50),
    ])
    def test_shape_solve_evaluations(self, model, theta, n, monkeypatch):
        # Brent needed 8.2 (gamma) and 8.6 (beta) evaluations per solve here,
        # the Newton solve from the chain state 5.8 and 5.6.  The calls are
        # counted in this process, so the chains must run here.
        monkeypatch.setattr(fidgibbs.gibbs, "_usable_cpus", lambda: 1)
        solve, fdf = M._shape_solve, M._shape_fdf
        counts = {"solves": 0, "evaluations": 0}

        def counting_solve(*args):
            counts["solves"] += 1
            return solve(*args)

        def counting_fdf(*args):
            counts["evaluations"] += 1
            return fdf(*args)

        monkeypatch.setattr(M, "_shape_solve", counting_solve)
        monkeypatch.setattr(M, "_shape_fdf", counting_fdf)
        data = simulate_dataset(model, theta, n, RngStream(1, 2**32))
        run(get_model(model), data, ChainConfig(m=1500, b=100, chains=2, seed=2018))
        assert counts["solves"] > 3000
        assert counts["evaluations"] / counts["solves"] <= 3.5

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
                want = optimize.brentq(lambda r: eq.phi(g, r) - q, eq.bracket.lo, eq.bracket.hi,
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
            lo, hi = eq.bracket.lo, eq.bracket.hi
            f_lo, f_hi = eq.phi(g, lo) - q, eq.phi(g, hi) - q
            if not f_lo < 0.0 < f_hi:
                raise StructuralError(
                    f"no correlation solves the equation: no sign change on [{lo}, {hi}]: "
                    f"phi - q = {f_lo:.6g} and {f_hi:.6g}", statistic_value=q, gamma=g)
            sqrt_n = eq.sqrt_n
            k = g / sqrt_n
            r = min(max(q, lo), hi)
            fr, dr = M._rho_fdf(r, q, g, sqrt_n, k)
            return M.solve_newton(M._rho_fdf, lo, hi, r, fr, dr, tol=1e-13, quadratic=True,
                                  args=(q, g, sqrt_n, k))

        def outcome(invert, eq, q, g):
            try:
                return invert(eq, q, g).hex()
            except (StructuralError, EvaluationError) as exc:
                return f"{type(exc).__name__}: {exc}"

        gen = np.random.default_rng(29)
        clip = M._RHO_MLE_BRACKET.hi
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
        # crossed once, and the one Newton solve returns that crossing.
        assert g * g >= n / 2
        calls = []
        newton = M.solve_newton
        monkeypatch.setattr(M, "solve_newton",
                            lambda *a, **k: calls.append(a) or newton(*a, **k))
        monkeypatch.setattr(optimize, "brentq", lambda *a, **k: pytest.fail("Brent called"))
        eq = M._BvnRhoEquation(n)
        r = eq.invert(0.3, g)
        assert len(calls) == 1
        assert abs(eq.phi(g, r) - 0.3) <= 1e-12
        grid = np.linspace(eq.bracket.lo, eq.bracket.hi, 4001)
        signs = np.sign([eq.phi(g, x) - 0.3 for x in grid.tolist()])
        crossings = np.flatnonzero(signs[1:] != signs[:-1])
        assert crossings.size == 1
        assert grid[crossings[0]] <= r <= grid[crossings[0] + 1]

    def test_extreme_shapes_raise_no_warnings(self):
        # Far-out statistics and states drive psi'' to overflow; a non-finite
        # derivative bisects quietly (RuntimeWarnings fail the suite).  gamma
        # 0.5 is inside both certificates, 2.0 outside them at n = 4.
        data = Dataset({"x": np.array([0.2, 0.5, 0.7, 0.9])})
        for model in ("gamma", "beta"):
            cond = _catalog(model, data, "alpha")
            for q in (-1e150, -10.0, 10.0):
                for other in (1e-200, 1.0, 1e200):
                    for start in (1e-300, 1.0, 1e300):
                        eq = cond.equation_for(data, {"alpha": start, "beta": other})
                        for g in (0.5, 2.0):
                            try:
                                a = eq.invert(q, g)
                            except StructuralError:
                                continue
                            assert 0.0 < a < math.inf


def _shape_conditional(model, n, seed, label="alpha"):
    theta = {"alpha": 2.0, "beta": 0.5} if model == "gamma" else {"alpha": 8.0, "beta": 3.0}
    data = simulate_dataset(model, theta, n, RngStream(seed, 0))
    return data, _catalog(model, data, label)


def _certificate(model, n, other):
    """The gamma below which the shape map is increasing with one root."""
    return math.sqrt(n) if model == "gamma" else math.sqrt(n * min(1.0, other))


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
    # build_conditionals is the one data check: it, run and (for the
    # closed-form models) check_model raise a typed error, never a
    # RuntimeWarning (an error in this suite) or a numpy ValueError.
    spec = get_model(model)
    data = Dataset(columns)
    typed = (DomainError, DegenerateDataError)
    with pytest.raises(typed):
        spec.build_conditionals(data)
    with pytest.raises(typed):
        run(spec, data, ChainConfig(m=20, b=5, chains=2, seed=1))
    if spec.joint_log_kernel is not None:
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
