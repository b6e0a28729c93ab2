import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest

import oracles
from fidgibbs import DomainError, RngStream, check_model, get_model, simulate_dataset
from fidgibbs.compat import MIN_GRID

CLOSED_FORM = ["normal", "pareto", "quadreg", "behrens_fisher"]
FIXTURES = {"normal": "normal_data", "pareto": "pareto_data",
            "quadreg": "quadreg_data", "behrens_fisher": "bf_data",
            "gamma": "gamma_data", "beta": "beta_data", "bivariate_normal": "bvn_data"}


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


class _Bent:
    """A conditional whose log density gains bend(theta, state); every
    other attribute is the wrapped conditional's.  built counts the
    log densities made from it."""

    def __init__(self, conditional, bend):
        self.conditional, self.bend, self.built = conditional, bend, 0

    def __getattr__(self, name):
        return getattr(self.conditional, name)

    def log_density(self, data, state):
        self.built += 1
        logpdf = self.conditional.log_density(data, state)
        return lambda theta: logpdf(theta) + self.bend(theta, state)


def _bent(name, param, bend):
    """The catalog model name with param's conditional bent by bend, and
    the list its build_conditionals appends each bent conditional to."""
    spec, made = get_model(name), []

    def build_conditionals(data):
        conditionals = spec.build_conditionals(data)
        conditionals[param] = _Bent(conditionals[param], bend)
        made.append(conditionals[param])
        return conditionals

    return dataclasses.replace(spec, build_conditionals=build_conditionals), made


class TestCheckModel:
    @pytest.mark.parametrize("name", CLOSED_FORM)
    def test_catalog_joints_are_compatible(self, name, request):
        # Each pair of conditionals, in declared order, is a pair of one
        # joint's conditionals to rounding.
        data = request.getfixturevalue(FIXTURES[name])
        reports = check_model(name, data)
        labels = get_model(name).param_labels
        assert list(reports) == [f"{a},{b}" for a, b in itertools.combinations(labels, 2)]
        for pair, rep in reports.items():
            assert rep.verdict == "compatible", (name, pair, rep.max_spread)
            assert rep.max_spread < 1e-12
            assert rep.mismatches == 0
            assert len(rep.slices) == 3
            for s in rep.slices:
                a_axis, b_axis = (s.axes[p] for p in rep.pair)
                assert len(a_axis) * len(b_axis) >= 64

    @pytest.mark.parametrize("name", CLOSED_FORM)
    def test_slices_and_grids_come_from_the_sampler(self, name, request):
        # Slices are the first three chain starts; each grid axis spans the
        # central 99% of the sampler's own conditional, checked here
        # against the independent closed-form quantiles.
        data = request.getfixturevalue(FIXTURES[name])
        starts = get_model(name).chain_inits(data, 3)
        for rep in check_model(name, data).values():
            assert [s.state for s in rep.slices] == starts
            assert "moved inward" not in rep.notes
            for s, st in zip(rep.slices, starts):
                for param in rep.pair:
                    _, (lo, hi) = _printed_conditional(name, param, st, data)
                    assert s.axes[param][0] == pytest.approx(lo, rel=1e-12, abs=0.0), (param, st)
                    assert s.axes[param][-1] == pytest.approx(hi, rel=1e-12, abs=0.0), (param, st)

    @pytest.mark.parametrize("name", CLOSED_FORM)
    def test_sampler_density_matches_printed_conditional(self, name, request):
        # The density check_model uses is read from the equation run draws
        # from; on the check's own grids it differs from the printed
        # closed form only by a constant.
        data = request.getfixturevalue(FIXTURES[name])
        conditionals = get_model(name).build_conditionals(data)
        for rep in check_model(name, data).values():
            for s in rep.slices:
                for param in rep.pair:
                    sampler = conditionals[param].log_density(data, s.state)
                    printed, _ = _printed_conditional(name, param, s.state, data)
                    diffs = [sampler(v) - printed(v) for v in s.axes[param]]
                    assert max(diffs) - min(diffs) <= 1e-10, (param, s.state)

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

        assert check_model(spec, normal_data)["mu,sigma2"].verdict == "compatible"
        wide = dataclasses.replace(spec, build_conditionals=build_conditionals)
        assert check_model(wide, normal_data)["mu,sigma2"].verdict == "incompatible"

    def test_bent_conditional_flags_only_its_pairs(self, bf_data):
        # In behrens_fisher mu_x depends on sigma_x2 alone: a bend of
        # log f(mu_x | sigma_x2) breaks that one pair and no other.
        bent, _ = _bent("behrens_fisher", "mu_x", lambda t, st: 0.1 * t * st["sigma_x2"])
        verdicts = {pair: rep.verdict for pair, rep in check_model(bent, bf_data).items()}
        assert verdicts.pop("mu_x,sigma_x2") == "incompatible"
        assert set(verdicts.values()) == {"compatible"}

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
    def test_numeric_models_are_checked(self, name, request):
        # The models without a closed form go through the same path.  Their
        # CLT equations are not the conditionals of one joint: the check
        # finds support mismatches or a mixed difference far above tol on
        # every pair but the bivariate-normal means.
        data = request.getfixturevalue(FIXTURES[name])
        reports = check_model(name, data)
        labels = get_model(name).param_labels
        assert list(reports) == [f"{a},{b}" for a, b in itertools.combinations(labels, 2)]
        for pair, rep in reports.items():
            if pair == "mu_x,mu_y":
                assert rep.verdict == "compatible" and rep.max_spread < 1e-12
            else:
                assert rep.verdict == "incompatible", pair
                assert rep.mismatches > 0 or rep.max_spread > 1e3 * rep.tol, pair

    def test_gamma_at_n5_moves_a_grid_end_inward(self):
        # At these chain starts the alpha equation has no root at the
        # primary's 99.5% quantile: that end moves to the 97.5% one, and
        # the check runs with no warning.
        data = simulate_dataset("gamma", {"alpha": 2.0, "beta": 0.5}, 5, RngStream(0, 2 ** 32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_model("gamma", data)["alpha,beta"]
        assert rep.mismatches > 0 or rep.max_spread > rep.tol
        assert rep.verdict == "incompatible"
        assert "8x8 grids, ends at the primary's 0.005 and 0.995 quantiles" in rep.notes
        assert "(moved inward: alpha at 0.005 and 0.975)" in rep.notes

    def test_report_serialization(self, normal_data):
        reports = check_model("normal", normal_data)
        doc = json.loads(json.dumps(reports["mu,sigma2"].to_dict()))
        assert doc["verdict"] == "compatible"
        assert doc["pair"] == ["mu", "sigma2"]
        assert doc["tol"] == 1e-8 and doc["mismatches"] == 0 and doc["max_mixed"] < 1e-12
        assert len(doc["slices"]) == 3
        for s in doc["slices"]:
            assert s["mismatches"] == 0 and s["max_mixed"] < 1e-12
            assert set(s["state"]) == {"mu", "sigma2"}
        assert "8x8 grids" in doc["notes"]


class TestRatioConstancy:
    """The log ratio D(a, b) = log f_i(a | b) - log f_j(b | a) of two
    conditionals: they are compatible when its mixed second differences
    are constant at 0, however much D itself varies."""

    def test_compatible_spread_is_rounding_level(self, normal_data):
        rep = check_model("normal", normal_data)["mu,sigma2"]
        conditionals = get_model("normal").build_conditionals(normal_data)
        for s in rep.slices:
            assert s.max_mixed < 1e-12 and s.mismatches == 0
            # D at the corners of the grid: it is far from constant, yet it
            # separates.
            mu_axis, s2_axis = s.axes["mu"], s.axes["sigma2"]
            d = [[conditionals["mu"].log_density(normal_data, {"sigma2": b})(a)
                  - conditionals["sigma2"].log_density(normal_data, {"mu": a})(b)
                  for b in (s2_axis[0], s2_axis[-1])] for a in (mu_axis[0], mu_axis[-1])]
            assert abs(d[0][0] - d[0][1]) > 1.0
            assert abs(d[0][0] - d[0][1] - d[1][0] + d[1][1]) < 1e-12

    def test_perturbed_kernel_flagged(self, normal_data):
        bent, _ = _bent("normal", "mu", lambda t, st: 0.1 * t * st["sigma2"])
        assert check_model(bent, normal_data)["mu,sigma2"].verdict == "incompatible"

    def test_sensitivity_at_ten_times_tol(self, normal_data):
        # A bend eps * a * b of log f(mu | sigma2) whose mixed difference
        # between opposite corners of the first grid is 10 * tol must be
        # flagged at tolerance tol; from any base cell some corner is at
        # least half the grid away on both axes.  A separable bend
        # h(a) + k(b) of size 1 is not flagged: the check tests
        # factorisation, not constancy.
        tol = 1e-8
        first = check_model("normal", normal_data)["mu,sigma2"].slices[0]
        (a0, *_, a1), (b0, *_, b1) = first.axes["mu"], first.axes["sigma2"]
        eps = 10.0 * tol / ((a1 - a0) * (b1 - b0))
        bent, _ = _bent("normal", "mu", lambda t, st: eps * t * st["sigma2"])
        rep = check_model(bent, normal_data, tol=tol)["mu,sigma2"]
        assert rep.verdict == "incompatible"
        assert rep.max_spread >= 10.0 * tol / 4.0
        separable, _ = _bent("normal", "mu", lambda t, st: math.sin(t) + math.cos(st["sigma2"]))
        rep = check_model(separable, normal_data, tol=tol)["mu,sigma2"]
        assert rep.verdict == "compatible" and rep.max_spread < 1e-12

    def test_support_mismatch(self, normal_data):
        # f(mu | sigma2) with its support cut at xbar, where f(sigma2 | mu)
        # stays positive.
        xbar = float(np.mean(normal_data.col("x")))
        holed, _ = _bent("normal", "mu", lambda t, st: -math.inf if t > xbar else 0.0)
        rep = check_model(holed, normal_data)["mu,sigma2"]
        assert rep.verdict == "incompatible"
        assert all(s.mismatches > 0 for s in rep.slices)
        assert "supports differ" in rep.notes
        # The cells where both are finite still separate.
        assert rep.max_spread < 1e-12

    def test_slice_and_grid_minimums(self, normal_data):
        with pytest.raises(DomainError):
            check_model("normal", normal_data, grid_points=MIN_GRID - 1)
        rep = check_model("normal", normal_data, grid_points=MIN_GRID)["mu,sigma2"]
        assert len(rep.slices) == 3
        assert all(len(s.axes["mu"]) * len(s.axes["sigma2"]) >= MIN_GRID for s in rep.slices)

    def test_conditional_built_once_per_grid_line(self, normal_data):
        # f(mu | sigma2) is built once per sigma2 grid point of each slice.
        counted, made = _bent("normal", "mu", lambda t, st: 0.0)
        rep = check_model(counted, normal_data)["mu,sigma2"]
        assert [c.built for c in made] == [sum(len(s.axes["sigma2"]) for s in rep.slices)]
