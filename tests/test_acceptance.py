"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them all) and enforces its stated runtime budget.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, special, stats

import oracles
from fidgibbs import (
    ChainConfig,
    Dataset,
    RngStream,
    check_model,
    get_model,
    run,
    simulate_dataset,
    summarize,
)
from fidgibbs.cli import main as cli_main
from fidgibbs.randvar import sample

KS_LEVEL = 1e-3


def _report(num, desc, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {status}: {desc} ({detail})")
    assert passed, f"criterion {num} failed: {desc} ({detail})"


def _interval_contains(pooled, truth):
    lo, hi = np.quantile(pooled, [0.025, 0.975])
    return bool(lo <= truth <= hi), (float(lo), float(hi))


def _sigma2_marginal_cdf(x, s2_grid):
    """Numeric-integration oracle for the variance marginal.

    Integrates the joint kernel over the mean on an adaptive trapezoid
    grid per variance value, then normalizes the resulting marginal
    numerically.  Independent of any sampler code path.
    """
    n = x.size
    xbar = float(np.mean(x))
    ss = float(np.sum((x - xbar) ** 2))
    s2 = s2_grid[:, None]
    width = np.sqrt(s2 / n)
    mu = xbar + width * np.linspace(-12.0, 12.0, 481)[None, :]
    log_dens = -0.5 * (n + 2) * np.log(s2) - (n * (mu - xbar) ** 2 + ss) / (2.0 * s2)
    shift = log_dens.max(axis=1, keepdims=True)
    row_int = integrate.trapezoid(np.exp(log_dens - shift), mu, axis=1)
    log_marg = np.log(row_int) + shift[:, 0]
    marg = np.exp(log_marg - log_marg.max())
    cdf = integrate.cumulative_trapezoid(marg, s2_grid, initial=0.0)
    return cdf / cdf[-1]


def test_01_normal_marginals():
    t0 = time.perf_counter()
    data = simulate_dataset("normal", {"mu": 1.0, "sigma2": 4.0}, 10, RngStream(2024, 1))
    x = data.col("x")
    sm = run(get_model("normal"), data, ChainConfig(m=25000, b=500, chains=4, seed=11))

    res_mu = stats.kstest(sm.pooled("mu"), oracles.normal_marginal_mu(x).cdf)

    draws = sm.pooled("sigma2")
    grid = np.geomspace(draws.min() * 0.5, draws.max() * 1.5, 4001)
    cdf = _sigma2_marginal_cdf(x, grid)
    res_s2 = stats.kstest(draws, lambda v: np.interp(v, grid, cdf))

    elapsed = time.perf_counter() - t0
    ok = res_mu.pvalue > KS_LEVEL and res_s2.pvalue > KS_LEVEL and elapsed < 10.0
    _report(1, "normal-model marginals match analytic/numeric oracles", ok,
            f"p_mu={res_mu.pvalue:.4f}, p_sigma2={res_s2.pvalue:.4f}, {elapsed:.1f}s")


def test_02_compatibility_verdicts(normal_data, pareto_data, quadreg_data, bf_data):
    t0 = time.perf_counter()
    worst = 0.0
    all_ok = True
    for name, data in [("normal", normal_data), ("pareto", pareto_data),
                       ("quadreg", quadreg_data), ("behrens_fisher", bf_data)]:
        reports = check_model(name, data, grid_points=64, tol=1e-8)
        for rep in reports.values():
            worst = max(worst, rep.max_spread)
            all_ok = all_ok and rep.verdict == "compatible" and rep.max_spread <= 1e-8
            all_ok = all_ok and len(rep.slices) == 3
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 1.0
    _report(2, "four closed-form joints compatible with their conditionals", ok,
            f"max spread={worst:.2e}, {elapsed:.2f}s")


def test_03_gamma_long_run_recovery():
    t0 = time.perf_counter()
    data = simulate_dataset("gamma", {"alpha": 2.0, "beta": 0.5}, 20, RngStream(54, 0))
    sm = run(get_model("gamma"), data, ChainConfig(m=100_000, b=500, chains=4, seed=33))
    report = summarize(sm)
    ok_a, ia = _interval_contains(sm.pooled("alpha"), 2.0)
    ok_b, ib = _interval_contains(sm.pooled("beta"), 0.5)
    rhats = {p.param: p.rhat for p in report.params}
    elapsed = time.perf_counter() - t0
    ok = (all(r < 1.05 for r in rhats.values()) and ok_a and ok_b and elapsed < 60.0)
    _report(3, "gamma run: converged and 95% intervals cover the truth", ok,
            f"rhat={rhats}, alpha CI={ia}, beta CI={ib}, {elapsed:.1f}s")


def test_04_beta_long_run_recovery():
    t0 = time.perf_counter()
    data = simulate_dataset("beta", {"alpha": 8.0, "beta": 3.0}, 50, RngStream(55, 0))
    sm = run(get_model("beta"), data, ChainConfig(m=100_000, b=500, chains=4, seed=44))
    report = summarize(sm)
    ok_a, ia = _interval_contains(sm.pooled("alpha"), 8.0)
    ok_b, ib = _interval_contains(sm.pooled("beta"), 3.0)
    rhats = {p.param: p.rhat for p in report.params}
    elapsed = time.perf_counter() - t0
    ok = (all(r < 1.05 for r in rhats.values()) and ok_a and ok_b and elapsed < 90.0)
    _report(4, "beta run: converged and 95% intervals cover the truth", ok,
            f"rhat={rhats}, alpha CI={ia}, beta CI={ib}, {elapsed:.1f}s")


def test_05_bivariate_normal_long_run_recovery():
    t0 = time.perf_counter()
    truth = {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": 0.8}
    data = simulate_dataset("bivariate_normal", truth, 200, RngStream(56, 0))
    sm = run(get_model("bivariate_normal"), data,
             ChainConfig(m=100_000, b=500, chains=4, seed=55))
    report = summarize(sm)
    rhats = {p.param: p.rhat for p in report.params}
    ok_rho, irho = _interval_contains(sm.pooled("rho"), 0.8)
    elapsed = time.perf_counter() - t0
    ok = all(r < 1.05 for r in rhats.values()) and ok_rho and elapsed < 120.0
    _report(5, "bivariate-normal run: all five parameters converged, rho CI covers 0.8",
            ok, f"rhat={rhats}, rho CI={irho}, {elapsed:.1f}s")


def test_06_behrens_fisher_consistency():
    r = RngStream(57, 0)
    x = 1.0 + 2.0 * r.gen.standard_normal(8)
    y = 0.5 + 1.0 * r.gen.standard_normal(12)
    data = Dataset({"x": x, "y": y})
    sm = run(get_model("behrens_fisher"), data,
             ChainConfig(m=25_500, b=500, chains=4, seed=66))
    gibbs_diff = sm.pooled("mu_x") - sm.pooled("mu_y")
    direct = oracles.behrens_fisher_direct_draws(x, y, 100_000, RngStream(67, 0).gen)
    res = stats.ks_2samp(gibbs_diff, direct)
    ok = res.pvalue > KS_LEVEL and gibbs_diff.size == 100_000
    _report(6, "mean-difference draws: direct construction vs four-parameter run",
            ok, f"p={res.pvalue:.4f}, n={gibbs_diff.size}")


def _catalog_equation_cases():
    """(label, equation, theta grid) for every catalog structural equation."""
    datasets = {
        "normal": simulate_dataset("normal", {"mu": 1.0, "sigma2": 4.0}, 10, RngStream(81, 0)),
        "pareto": simulate_dataset("pareto", {"alpha": 3.0, "beta": 2.0}, 15, RngStream(82, 0)),
        "quadreg": simulate_dataset(
            "quadreg", {"beta0": 1.0, "beta1": -0.5, "beta2": 0.25, "sigma2": 0.5},
            25, RngStream(83, 0)),
        "gamma": simulate_dataset("gamma", {"alpha": 2.0, "beta": 0.5}, 20, RngStream(84, 0)),
        "beta": simulate_dataset("beta", {"alpha": 8.0, "beta": 3.0}, 50, RngStream(85, 0)),
        "behrens_fisher": None,
        "bivariate_normal": simulate_dataset(
            "bivariate_normal",
            {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": 0.8},
            200, RngStream(86, 0)),
    }
    r = RngStream(87, 0)
    datasets["behrens_fisher"] = Dataset({
        "x": 1.0 + 2.0 * r.gen.standard_normal(8),
        "y": 0.5 + 1.0 * r.gen.standard_normal(12),
    })
    cases = []
    for name, data in datasets.items():
        model = get_model(name)
        init = model.chain_inits(data, 1)[0]
        conditionals = model.build_conditionals(data)
        for label in model.param_labels:
            eq = conditionals[label].equation(data, init)
            p = model.param(label)
            v = init[label]
            if p.kind == "scale":
                grid = np.geomspace(v / 8.0, v * 8.0, 32)
            elif p.kind == "correlation":
                grid = np.linspace(-0.95, 0.95, 32)
            else:
                spread = 4.0 * (abs(v) + 1.0)
                grid = np.linspace(v - spread, v + spread, 32)
            cases.append((f"{name}.{label}", eq, grid))
    return cases


def test_07_structural_round_trips():
    worst_grid = 0.0
    for label, eq, theta_grid in _catalog_equation_cases():
        g_lo, g_hi = eq.gamma_domain
        gammas = np.linspace(g_lo + 1e-9 * (g_hi - g_lo), g_hi - 1e-9 * (g_hi - g_lo), 32)
        for g in gammas:
            for th in theta_grid:
                q = eq.phi(float(g), float(th))
                back = eq.invert(q, float(g))
                err = abs(back - th)
                scale = max(1.0, abs(th))
                worst_grid = max(worst_grid, err / scale)
                assert err <= 1e-8 * scale, (label, g, th, err)

    # Substitution residuals of the root-solved conditionals on random draws.
    gamma_data = simulate_dataset("gamma", {"alpha": 2.0, "beta": 0.5}, 20, RngStream(84, 0))
    beta_data = simulate_dataset("beta", {"alpha": 8.0, "beta": 3.0}, 50, RngStream(85, 0))
    bvn_data = simulate_dataset(
        "bivariate_normal",
        {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": 0.8},
        200, RngStream(86, 0))
    def equation(model, data, label, state):
        return get_model(model).build_conditionals(data)[label].equation(data, state)

    def statistic(model, data, label, state):
        return get_model(model).build_conditionals(data)[label].statistic.compute(data, state)

    bvn_state = {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": 0.8}
    solved = [
        ("gamma.alpha", equation("gamma", gamma_data, "alpha", {"alpha": 1.0, "beta": 0.5}),
         float(np.sum(np.log(gamma_data.col("x"))))),
        ("beta.alpha", equation("beta", beta_data, "alpha", {"alpha": 1.0, "beta": 3.0}),
         float(np.sum(np.log(beta_data.col("x"))))),
        ("beta.beta", equation("beta", beta_data, "beta", {"alpha": 8.0, "beta": 1.0}),
         float(np.sum(np.log1p(-beta_data.col("x"))))),
        ("bvn.sigma_x2", equation("bivariate_normal", bvn_data, "sigma_x2", bvn_state),
         statistic("bivariate_normal", bvn_data, "sigma_x2", bvn_state)),
        ("bvn.rho", equation("bivariate_normal", bvn_data, "rho", bvn_state),
         statistic("bivariate_normal", bvn_data, "rho", bvn_state)),
    ]
    worst_draw = 0.0
    rng = RngStream(88, 0)
    for label, eq, q in solved:
        for _ in range(10_000):
            g = sample(eq.gamma_dist, rng)
            try:
                th = eq.invert(q, g)
            except Exception:
                continue  # excluded-gamma region; redrawn in real sampling
            resid = abs(eq.phi(g, th) - q)
            worst_draw = max(worst_draw, resid / max(1.0, abs(q)))
            assert resid <= 1e-8 * max(1.0, abs(q)), (label, g, resid)
    _report(7, "round trips: 32x32 grids and 1e4-draw substitution residuals", True,
            f"worst grid={worst_grid:.2e}, worst draw={worst_draw:.2e}")


def test_08_mle_grid_search_oracles():
    rng = np.random.default_rng(90)
    worst_sigma = worst_rho = 0.0
    for k in range(20):
        n = int(rng.integers(8, 16))
        truth = {
            "mu_x": float(rng.uniform(-2, 2)),
            "mu_y": float(rng.uniform(-2, 2)),
            "sigma_x2": float(rng.uniform(0.3, 3.0)),
            "sigma_y2": float(rng.uniform(0.3, 3.0)),
            "rho": float(rng.uniform(-0.85, 0.85)),
        }
        data = simulate_dataset("bivariate_normal", truth, n, RngStream(900 + k, 0))
        conditionals = get_model("bivariate_normal").build_conditionals(data)
        x, y = data.col("x"), data.col("y")
        mu_x, mu_y = truth["mu_x"], truth["mu_y"]
        sy2, rho = truth["sigma_y2"], truth["rho"]
        sxx = float(np.sum((x - mu_x) ** 2))
        syy = float(np.sum((y - mu_y) ** 2))
        sxy = float(np.sum((x - mu_x) * (y - mu_y)))

        # sigma_x stationarity versus a brute-force profile grid search.
        sig = conditionals["sigma_x2"].statistic.compute(data, truth)
        grid = np.arange(max(sig - 0.5, 1e-3), sig + 0.5, 1e-4)
        ll = (-n * np.log(grid)
              - 0.5 * (sxx / grid ** 2 - 2 * rho * sxy / (grid * math.sqrt(sy2)) + syy / sy2)
              / (1 - rho ** 2))
        diff = abs(float(grid[np.argmax(ll)]) - sig)
        worst_sigma = max(worst_sigma, diff)
        assert diff < 1e-3, ("sigma", k, diff)

        # rho stationarity versus a brute-force grid search.
        sx2 = truth["sigma_x2"]
        rho_hat = conditionals["rho"].statistic.compute(data, truth)
        rgrid = np.arange(-0.9999, 0.9999, 1e-4)
        quad = (sxx / sx2 - 2 * rgrid * sxy / math.sqrt(sx2 * sy2) + syy / sy2)
        ll = -0.5 * n * np.log(1 - rgrid ** 2) - 0.5 * quad / (1 - rgrid ** 2)
        diff = abs(float(rgrid[np.argmax(ll)]) - rho_hat)
        worst_rho = max(worst_rho, diff)
        assert diff < 1e-3, ("rho", k, diff)
    _report(8, "quadratic/cubic estimators match grid-search maximizers on 20 datasets",
            True, f"worst sigma diff={worst_sigma:.2e}, worst rho diff={worst_rho:.2e}")


def test_09_simulation_based_calibration():
    # Known-variance normal mean: the conditional fiducial CDF evaluated at
    # the generating value is exactly uniform, replication over 500 draws.
    gen = RngStream(91, 0).gen
    n, sigma = 10, 1.0
    u = np.empty(500)
    for i in range(500):
        mu0 = gen.normal(0.0, 3.0)
        xs = gen.normal(mu0, sigma, size=n)
        u[i] = special.ndtr(math.sqrt(n) * (mu0 - xs.mean()) / sigma)
    res = stats.kstest(u, "uniform")
    ok = res.pvalue > KS_LEVEL
    _report(9, "fiducial CDF values uniform over 500 replications", ok,
            f"p={res.pvalue:.4f}")


def test_10_determinism(tmp_path):
    args = ["run", "--model", "gamma", "--simulate", "alpha=2,beta=0.5,n=20",
            "--m", "2000", "--b", "100", "--chains", "2", "--seed", "7"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(args + ["--output-dir", str(out_a)]) == 0
    assert cli_main(args + ["--output-dir", str(out_b)]) == 0
    bytes_a = (out_a / "samples.csv").read_bytes()
    bytes_b = (out_b / "samples.csv").read_bytes()
    ok = bytes_a == bytes_b and len(bytes_a) > 0
    _report(10, "identical configs produce byte-identical samples.csv", ok,
            f"{len(bytes_a)} bytes")
