import dataclasses
import functools
import math

import numpy as np
import pytest

import oracles
from fidgibbs import (DomainError, Normal, RngStream, check_model, get_model, log_density,
                      ratio_constancy, simulate_dataset)


def _normal_setup(normal_data):
    spec = get_model("normal")
    x = normal_data.col("x")
    n = x.size
    xbar = float(np.mean(x))
    slices = spec.chain_inits(normal_data, 3)
    others = [{k: v for k, v in s.items() if k != "mu"} for s in slices]
    joint = lambda st: spec.joint_log_kernel(st, normal_data)
    cond = lambda o: functools.partial(log_density, Normal(xbar, o["sigma2"] / n))
    return joint, cond, others


CLOSED_FORM = ["normal", "pareto", "quadreg", "behrens_fisher"]
FIXTURES = {"normal": "normal_data", "pareto": "pareto_data",
            "quadreg": "quadreg_data", "behrens_fisher": "bf_data"}


def _printed_conditional(name, param, state, data):
    """Log density and 0.5% and 99.5% quantiles of the printed conditional
    of param at state."""
    x = data.col("x")
    if name == "pareto" and param == "beta":
        ends = sorted(float(np.min(x)) * u ** (1.0 / (x.size * state["alpha"]))
                      for u in (0.005, 0.995))
        return lambda v: oracles.pareto_conditional_beta_log_density(v, state["alpha"], x), ends
    if name == "pareto":
        dist = oracles.pareto_conditional_alpha(state["beta"], x)
    elif name == "quadreg":
        dist = oracles.quadreg_conditionals(state["beta0"], state["beta1"], state["beta2"],
                                            state["sigma2"], x, data.col("y"))[param]
    else:
        # normal, or one group of behrens_fisher (mu_x, sigma_x2, mu_y, sigma_y2)
        g = "" if name == "normal" else ("_x" if "_x" in param else "_y")
        col = data.col(g[1:] or "x")
        if param.startswith("mu"):
            dist = oracles.normal_conditional_mu(float(np.mean(col)), state[f"sigma{g}2"], col.size)
        else:
            dist = oracles.normal_conditional_sigma2(state[f"mu{g}"], col)
    return dist.logpdf, sorted(dist.ppf([0.005, 0.995]).tolist())


class TestCheckModel:
    @pytest.mark.parametrize("name", CLOSED_FORM)
    def test_catalog_joints_are_compatible(self, name, request):
        fixture = {"normal": "normal_data", "pareto": "pareto_data",
                   "quadreg": "quadreg_data", "behrens_fisher": "bf_data"}[name]
        data = request.getfixturevalue(fixture)
        reports = check_model(name, data)
        for param, rep in reports.items():
            assert rep.verdict == "compatible", (name, param, rep.max_spread)
            assert rep.max_spread <= 1e-8
            assert len(rep.slices) >= 3
            assert all(s.grid.size >= 64 for s in rep.slices)

    @pytest.mark.parametrize("name", CLOSED_FORM)
    def test_slices_and_grids_come_from_the_sampler(self, name, request):
        # Slices are the first three chain starts; each grid spans the
        # central 99% of the sampler's own conditional, checked here
        # against the independent closed-form quantiles.
        data = request.getfixturevalue(FIXTURES[name])
        spec = get_model(name)
        starts = spec.chain_inits(data, 3)
        for param, rep in check_model(name, data).items():
            assert [s.others for s in rep.slices] == [
                {k: v for k, v in st.items() if k != param} for st in starts]
            for s, st in zip(rep.slices, starts):
                _, (lo, hi) = _printed_conditional(name, param, st, data)
                assert s.grid[0] == pytest.approx(lo, rel=1e-12, abs=0.0), (param, st)
                assert s.grid[-1] == pytest.approx(hi, rel=1e-12, abs=0.0), (param, st)

    @pytest.mark.parametrize("name", CLOSED_FORM)
    def test_sampler_density_matches_printed_conditional(self, name, request):
        # The density check_model uses is read from the equation run draws
        # from; on the check's own grids it differs from the printed
        # closed form only by a constant.
        data = request.getfixturevalue(FIXTURES[name])
        spec = get_model(name)
        conditionals = spec.build_conditionals(data)
        for param, rep in check_model(name, data).items():
            for s, st in zip(rep.slices, spec.chain_inits(data, 3)):
                sampler = conditionals[param].log_density(data, s.others)
                printed, _ = _printed_conditional(name, param, st, data)
                diffs = [sampler(v) - printed(v) for v in s.grid.tolist()]
                assert max(diffs) - min(diffs) <= 1e-10, (param, st)

    def test_wrong_equation_is_incompatible(self, normal_data):
        # A mu equation whose sd is 1% too large: the sampler no longer
        # draws from a conditional of the joint, and the check must say so.
        spec = get_model("normal")

        def build_conditionals(data):
            conditionals = spec.build_conditionals(data)
            mu = conditionals["mu"]

            def equation_for(d, p):
                eq = mu.equation_for(d, p)
                return type(eq)(eq.coef, eq.off, 1.01 * eq.sd)

            conditionals["mu"] = dataclasses.replace(mu, equation_for=equation_for)
            return conditionals

        wide = dataclasses.replace(spec, build_conditionals=build_conditionals)
        reports = check_model(wide, normal_data)
        assert reports["mu"].verdict == "incompatible"
        assert reports["sigma2"].verdict == "compatible"

    def test_log_density_outside_theta_domain(self, pareto_data):
        beta = get_model("pareto").build_conditionals(pareto_data)["beta"]
        logpdf = beta.log_density(pareto_data, {"alpha": 3.0})
        assert logpdf(0.0) == logpdf(-1.0) == -math.inf
        assert logpdf(2.0 * float(np.max(pareto_data.col("x")))) == -math.inf

    @pytest.mark.parametrize("theta", [1e-300, 1e-320, 1e200])
    def test_log_density_at_extreme_theta(self, theta):
        # dg/dtheta of the variance pivot over- or underflows here; its log
        # does not, so the density is finite, or -inf where g overflows.
        data = simulate_dataset("normal", {"mu": 1.0, "sigma2": 4.0}, 40, RngStream(106, 0))
        sigma2 = get_model("normal").build_conditionals(data)["sigma2"]
        value = sigma2.log_density(data, {"mu": 1.0})(theta)
        assert math.isfinite(value) or value == -math.inf

    def test_equation_without_pivot_has_no_density(self, bvn_data):
        # Every catalog equation has a pivot; the StructuralEquation built
        # from one does not.
        rho = get_model("bivariate_normal").build_conditionals(bvn_data)["rho"]
        no_pivot = dataclasses.replace(rho, equation_for=rho.equation)
        state = {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": 0.2}
        q = rho.statistic.compute(bvn_data, state)
        assert math.isfinite(rho.log_density(bvn_data, state)(q))
        with pytest.raises(DomainError, match="pivot"):
            no_pivot.log_density(bvn_data, state)

    @pytest.mark.parametrize("name", ["gamma", "beta", "bivariate_normal"])
    def test_models_without_kernel_refuse(self, name, request):
        fixture = {"gamma": "gamma_data", "beta": "beta_data",
                   "bivariate_normal": "bvn_data"}[name]
        data = request.getfixturevalue(fixture)
        with pytest.raises(DomainError):
            check_model(name, data)

    def test_report_serialization(self, normal_data):
        reports = check_model("normal", normal_data)
        doc = reports["mu"].to_dict()
        assert doc["verdict"] == "compatible"
        assert doc["param"] == "mu"
        assert len(doc["slices"]) == 3


class TestRatioConstancy:
    def test_perturbed_kernel_flagged(self, normal_data):
        joint, cond, others = _normal_setup(normal_data)
        bent = lambda st: joint(st) + 0.1 * st["mu"] ** 2
        rep = ratio_constancy("mu", bent, cond, others, np.linspace(-1.0, 2.0, 64))
        assert rep.verdict == "incompatible"

    def test_sensitivity_at_ten_times_tol(self, normal_data):
        # A multiplicative bend with log amplitude 10 * tol over the grid
        # must be flagged at tolerance tol.
        joint, cond, others = _normal_setup(normal_data)
        tol = 1e-8
        grid = np.linspace(-1.0, 1.0, 64)
        bent = lambda st: joint(st) + 10.0 * tol * st["mu"]
        rep = ratio_constancy("mu", bent, cond, others, grid, tol=tol)
        assert rep.verdict == "incompatible"
        assert rep.max_spread >= 10.0 * tol

    def test_support_mismatch(self, normal_data):
        joint, cond, others = _normal_setup(normal_data)
        holed = lambda st: -math.inf if st["mu"] > 0.5 else joint(st)
        rep = ratio_constancy("mu", holed, cond, others, np.linspace(-1.0, 2.0, 64))
        assert rep.verdict == "incompatible"
        assert any(s.support_mismatch for s in rep.slices)
        assert "support" in rep.notes

    def test_slice_and_grid_minimums(self, normal_data):
        joint, cond, others = _normal_setup(normal_data)
        with pytest.raises(DomainError):
            ratio_constancy("mu", joint, cond, others[:2], np.linspace(-1, 1, 64))
        with pytest.raises(DomainError):
            ratio_constancy("mu", joint, cond, others, np.linspace(-1, 1, 10))

    def test_grid_outside_conditional_support_rejected(self, pareto_data):
        spec = get_model("pareto")
        x = pareto_data.col("x")
        slices = spec.chain_inits(pareto_data, 3)
        others = [{k: v for k, v in s.items() if k != "beta"} for s in slices]
        joint = lambda st: spec.joint_log_kernel(st, pareto_data)
        cond = lambda o: lambda v: oracles.pareto_conditional_beta_log_density(v, o["alpha"], x)
        bad_grid = np.linspace(0.5, 2.0 * float(np.max(x)), 64)
        with pytest.raises(DomainError):
            ratio_constancy("beta", joint, cond, others, bad_grid)

    def test_conditional_built_once_per_slice(self, normal_data):
        joint, cond, others = _normal_setup(normal_data)
        built = []
        counted = lambda o: built.append(o) or cond(o)
        ratio_constancy("mu", joint, counted, others, np.linspace(-1.0, 2.0, 64))
        assert built == others

    def test_compatible_spread_is_rounding_level(self, normal_data):
        joint, cond, others = _normal_setup(normal_data)
        rep = ratio_constancy("mu", joint, cond, others, np.linspace(-1.0, 2.0, 64))
        assert rep.verdict == "compatible"
        assert rep.max_spread < 1e-12
