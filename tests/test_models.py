import math

import numpy as np
import pytest
from scipy import integrate, stats

import fidgibbs.models as M
from fidgibbs import (
    Bracket,
    BracketError,
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
    get_model,
    run,
    log_density,
    simulate_dataset,
    solve_monotone,
)
from fidgibbs.randvar import sample


def _catalog(model, data, label):
    """The catalog conditional for one parameter, built on data."""
    return get_model(model).build_conditionals(data)[label]


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

        def cdf(b):
            val, _ = integrate.quad(
                lambda t: math.exp(M.pareto_conditional_beta_log_density(t, alpha, x)),
                1e-12, b, limit=200)
            return val

        res = stats.kstest(draws, np.vectorize(cdf))
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
    def test_beta_given_alpha(self):
        x = np.array([1.0, 2.0, 3.0])
        assert M.gamma_conditional_beta(2.0, x) == Gamma(6.0, 6.0)
        assert M.gamma_conditional_beta(1.0, x) == Gamma(3.0, 6.0)

    def test_beta_invalid_sum(self):
        with pytest.raises(DomainError):
            M.gamma_conditional_beta(1.0, np.array([0.0, 0.0]))

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
    def test_angle_quarter_pi(self):
        # s_x^2/n_x = s_y^2/n_y forces the 45-degree angle.
        x = np.array([-math.sqrt(3), math.sqrt(3), -math.sqrt(3), math.sqrt(3)])
        y = np.array([-math.sqrt(3), 0.0, math.sqrt(3)])
        assert abs(M.behrens_fisher_angle(x, y) - math.pi / 4) < 1e-12

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
            get_model("behrens_fisher").validate_data(
                Dataset({"x": np.array([1.0, 1.0]), "y": np.array([0.0, 1.0])}))


class TestBivariateNormal:
    STATE = {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": 0.0}

    def test_mu_x_conditional_special_cases(self, bvn_data):
        x, y = bvn_data.col("x"), bvn_data.col("y")
        n = x.size
        d = M.bvn_conditional_mu_x(0.3, 1.2, 0.9, 0.0, x, y)
        assert abs(d.mean - np.mean(x)) < 1e-12
        assert abs(d.var - 1.2 / n) < 1e-12
        # mu_y = ybar wipes out the correlation adjustment.
        d = M.bvn_conditional_mu_x(float(np.mean(y)), 1.2, 0.9, 0.7, x, y)
        assert abs(d.mean - np.mean(x)) < 1e-12
        # rho -> 1 collapses the variance.
        d = M.bvn_conditional_mu_x(0.0, 1.0, 1.0, 0.9999, x, y)
        assert d.var < 1e-3

    def test_mu_x_domain(self, bvn_data):
        with pytest.raises(DomainError):
            M.bvn_conditional_mu_x(0.0, 1.0, 1.0, 1.0, bvn_data.col("x"), bvn_data.col("y"))

    def test_sigma_mle_uncorrelated_case(self):
        x = np.array([math.sqrt(2), math.sqrt(2), -math.sqrt(2), -math.sqrt(2)])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        s2 = M.bvn_sigma_x2_mle(0.0, 0.0, 1.0, 0.0, x, y)
        assert abs(s2 - 2.0) < 1e-12

    def test_sigma_mle_matches_grid_search(self):
        data = simulate_dataset(
            "bivariate_normal",
            {"mu_x": 0.5, "mu_y": -0.2, "sigma_x2": 1.5, "sigma_y2": 0.8, "rho": 0.6},
            10, RngStream(62, 0))
        x, y = data.col("x"), data.col("y")
        args = (0.5, -0.2, 0.8, 0.6)
        s2 = M.bvn_sigma_x2_mle(*args, x, y)
        sig = math.sqrt(s2)
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
        rho = M.bvn_rho_mle(0.0, 0.0, 1.0, 1.0, x, y)
        assert abs(rho) < 1e-9

    def test_rho_mle_matches_grid_search(self):
        data = simulate_dataset(
            "bivariate_normal",
            {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": 0.7},
            10, RngStream(63, 0))
        x, y = data.col("x"), data.col("y")
        rho = M.bvn_rho_mle(0.0, 0.0, 1.0, 1.0, x, y)
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
        x, y = bvn_data.col("x"), bvn_data.col("y")
        eq = _catalog("bivariate_normal", bvn_data, "rho").equation(bvn_data, self.STATE)
        q = M.bvn_rho_mle(0.0, 0.0, 1.0, 1.0, x, y)
        rng = RngStream(64, 0)
        for _ in range(300):
            g = sample(eq.gamma_dist, rng)
            r = eq.invert(q, g)
            assert -1.0 < r < 1.0
            assert abs(eq.phi(g, r) - q) <= 1e-8

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


def _brent_expanding_root(f, start):
    """The Brent inversion the Newton one replaced, as a reference: the same
    geometric expansion, then solve_monotone on the bracket it found.  Its
    tolerance is relative to the bracket so that tiny roots are compared at
    full precision."""
    def safe(a):
        try:
            return f(a)
        except EvaluationError:
            return math.nan

    lo = hi = max(start, 1e-8)
    flo = fhi = safe(lo)
    if not flo <= 0.0:
        while True:
            hi, fhi = lo, flo
            lo *= 0.25
            if lo < 1e-280:
                raise StructuralError("no lower bracket")
            flo = safe(lo)
            if flo <= 0.0:
                break
    if not fhi >= 0.0:
        while True:
            lo, flo = hi, fhi
            hi *= 4.0
            if hi > 1e280:
                raise StructuralError("no upper bracket")
            fhi = safe(hi)
            if fhi >= 0.0:
                break
    known = {lo: flo, hi: fhi}
    try:
        return solve_monotone(lambda a: known[a] if a in known else f(a), 0.0,
                              Bracket(lo, hi), tol=1e-13 * lo)
    except (BracketError, EvaluationError) as exc:
        raise StructuralError(f"root isolation failed: {exc}") from exc


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


class TestNewtonInversion:
    @pytest.mark.parametrize("panel", sorted(SHAPE_PANELS))
    def test_shape_newton_agrees_with_brent(self, panel, monkeypatch):
        # Every shape solve of the catalog equations on perturbed states is
        # checked against Brent on the same bracket: same raise/no-raise
        # outcome, roots within 1e-10 relative.
        model, make = SHAPE_PANELS[panel]
        newton = M._expanding_root
        outcomes = []

        def both(f, start):
            try:
                got = newton(f, start)
            except StructuralError:
                got = None
            try:
                want = _brent_expanding_root(lambda a: f(a)[0], start)
            except StructuralError:
                want = None
            outcomes.append((got, want))
            if got is None:
                raise StructuralError("no root")
            return got

        monkeypatch.setattr(M, "_expanding_root", both)
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
        for got, want in outcomes:
            assert (got is None) == (want is None)
            if got is not None:
                assert got == pytest.approx(want, rel=1e-10)
        if panel == "gamma_n5":
            assert any(got is None for got, _ in outcomes)

    @pytest.mark.parametrize("model,theta,n", [
        ("gamma", {"alpha": 2.0, "beta": 0.5}, 20),
        ("beta", {"alpha": 8.0, "beta": 3.0}, 50),
    ])
    def test_shape_solve_evaluations(self, model, theta, n, monkeypatch):
        # Brent needed 8.2 (gamma) and 8.6 (beta) evaluations per solve here.
        clt = M._clt_shape_invert
        counts = {"solves": 0, "evaluations": 0}

        def counting(q_over_n, parts_fn, g, n_, start):
            def parts(a):
                counts["evaluations"] += 1
                return parts_fn(a)
            counts["solves"] += 1
            return clt(q_over_n, parts, g, n_, start)

        monkeypatch.setattr(M, "_clt_shape_invert", counting)
        data = simulate_dataset(model, theta, n, RngStream(1, 2**32))
        run(get_model(model), data, ChainConfig(m=1500, b=100, chains=2, seed=2018))
        assert counts["solves"] > 3000
        assert counts["evaluations"] / counts["solves"] <= 7.0

    def test_rho_newton_agrees_with_brent(self, monkeypatch):
        calls = []
        monkeypatch.setattr(M, "solve_monotone",
                            lambda *a, **k: calls.append(a) or solve_monotone(*a, **k))
        gen = np.random.default_rng(3)
        newton_solves = 0
        for i in range(3000):
            n = int(gen.integers(3, 40)) if i % 2 else int(gen.integers(3, 5001))
            eq = M._BvnRhoEquation(n)
            q = float(np.tanh(gen.normal(0.0, 1.5)))
            g = float(gen.uniform(-5.0, 5.0))
            before = len(calls)
            try:
                got = eq.invert(q, g)
            except StructuralError:
                got = None
            assert (len(calls) == before) == (g * g < n / 2)
            newton_solves += len(calls) == before
            try:
                want = solve_monotone(lambda r: eq.phi(g, r), q, eq.bracket, tol=1e-13)
            except (BracketError, EvaluationError):
                want = None
            assert (got is None) == (want is None)
            if got is not None:
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
        assert newton_solves > 1500

    def test_rho_raises_without_sign_change(self):
        # q outside (-1, 1) has no root, also where |gamma| < sqrt(n / 2).
        eq = M._BvnRhoEquation(50)
        for q in (-1.5, 1.5):
            with pytest.raises(StructuralError, match="no correlation solves the equation"):
                eq.invert(q, 0.5)

    @pytest.mark.parametrize("n,g", [(3, 1.3), (3, -4.0), (30, 3.9), (30, -5.0)])
    def test_rho_large_gamma_takes_brent(self, n, g, monkeypatch):
        # |gamma| >= sqrt(n / 2): phi may have several roots, and Brent
        # keeps choosing among them.
        assert g * g >= n / 2
        calls = []
        monkeypatch.setattr(M, "solve_monotone",
                            lambda *a, **k: calls.append(a) or solve_monotone(*a, **k))
        monkeypatch.setattr(M, "solve_newton", lambda *a, **k: pytest.fail("Newton path taken"))
        eq = M._BvnRhoEquation(n)
        try:
            eq.invert(0.3, g)
        except StructuralError:
            pass
        assert len(calls) == 1

    def test_extreme_shapes_raise_no_warnings(self):
        # Far-out statistics and states drive psi'' to overflow; a non-finite
        # derivative bisects quietly (RuntimeWarnings fail the suite).
        data = Dataset({"x": np.array([0.2, 0.5, 0.7, 0.9])})
        for model in ("gamma", "beta"):
            cond = _catalog(model, data, "alpha")
            for q in (-1e150, -10.0, 10.0):
                for other in (1e-200, 1.0, 1e200):
                    for start in (1e-300, 1.0, 1e300):
                        eq = cond.equation_for(data, {"alpha": start, "beta": other})
                        try:
                            a = eq.invert(q, 2.0)
                        except StructuralError:
                            continue
                        assert 0.0 < a < math.inf
