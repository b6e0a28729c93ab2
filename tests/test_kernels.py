"""The fused draw kernels of the catalog conditionals against the layered
path: statistic.compute, equation_for, fidgibbs.core.sample and invert.

A catalog sampler draws through its kernel; a copy of it made with
dataclasses.replace draws through the layered path.  The two must give the
same bytes, warnings and errors.
"""

import dataclasses
import math
from collections import Counter

import pytest
from conftest import layered

import fidgibbs.core
from fidgibbs import ChainConfig, Dataset, RngStream, get_model, run, simulate_dataset
from fidgibbs.errors import DegenerateDataError, DomainError, StructuralError
from fidgibbs.randvar import sample

EPS = 2.0 ** -52
# The conditionals whose draws are numeric shape solves.
SHAPES = {"gamma": ("alpha",), "beta": ("alpha", "beta")}


def layered_model(model):
    """model with every conditional drawing through the layered path."""
    def build(data):
        return {label: layered(c) for label, c in model.build_conditionals(data).items()}
    return dataclasses.replace(model, build_conditionals=build)


# case -> (model, simulated parameters, n, warnings of the golden run)
CASES = {
    "normal": ("normal", {"mu": 1.0, "sigma2": 4.0}, 12, {}),
    "pareto": ("pareto", {"alpha": 3.0, "beta": 2.0}, 15, {}),
    "quadreg": ("quadreg", {"beta0": 1.0, "beta1": -0.5, "beta2": 0.25, "sigma2": 0.5}, 25, {}),
    # The golden gamma n = 5 run: its alpha draws are redrawn.
    "gamma_n5": ("gamma", {"alpha": 2.0, "beta": 0.5}, 5,
                 {"alpha.injectivity_grid_failures": 12, "alpha.gamma_redraw": 20}),
    "beta": ("beta", {"alpha": 0.4, "beta": 0.3}, 25,
             {"alpha.injectivity_grid_failures": 2, "beta.injectivity_grid_failures": 2}),
    "behrens_fisher": ("behrens_fisher",
                       {"mu_x": 1.0, "mu_y": 0.5, "sigma_x2": 4.0, "sigma_y2": 1.0}, 8, {}),
    # The golden bivariate_normal n = 4 run: its sigma draws are redrawn.
    "bivariate_normal_n4": ("bivariate_normal",
                            {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0,
                             "rho": 0.2}, 4,
                            {"sigma_x2.gamma_redraw": 3, "sigma_y2.gamma_redraw": 2}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_draws_match_the_layered_draws(case):
    # The golden runs' data and chains: 2 chains of 2000 cycles.
    name, theta, n, warnings = CASES[case]
    model = get_model(name)
    data = simulate_dataset(model, theta, n, RngStream(2018, 2**32))
    config = ChainConfig(m=2000, b=500, chains=2, seed=2018)
    fused = run(model, data, config)
    layered = run(layered_model(model), data, config)
    assert fused.values.tobytes() == layered.values.tobytes()
    assert fused.warnings == layered.warnings == warnings


def test_catalog_samplers_take_the_kernel_and_replaced_ones_the_layers(
        normal_data, monkeypatch):
    calls = Counter()
    sample = fidgibbs.core.sample

    def counting(dist, rng):
        calls["sample"] += 1
        return sample(dist, rng)

    monkeypatch.setattr(fidgibbs.core, "sample", counting)
    sampler = get_model("normal").build_conditionals(normal_data)["mu"]
    state = {"mu": 1.0, "sigma2": 4.0}
    rng = RngStream(5, 0)
    fused = [sampler.draw(normal_data, state, rng) for _ in range(3)]
    assert calls["sample"] == 0
    # Any sampler made by dataclasses.replace draws through the layers.
    for changes in ({"statistic": dataclasses.replace(sampler.statistic)},
                    {"equation_for": lambda d, p: sampler.equation_for(d, p)},
                    {},
                    {"theta_domain": (-1e300, 1e300)}):
        replaced = dataclasses.replace(sampler, **changes)
        rng = RngStream(5, 0)
        assert [replaced.draw(normal_data, state, rng) for _ in range(3)] == fused
    assert calls["sample"] == 12


def _outcome(sampler, data, state):
    rng, warnings = RngStream(3, 1), Counter()
    try:
        value = sampler.draw(data, state, rng, warnings)
    except Exception as exc:
        value = (type(exc), str(exc))
    return value, warnings


BVN_DATA = Dataset({"x": [1e8, 1e8 + 1.5e-8, 1e8 - 1.5e-8, 1e8 + 3e-8],
                    "y": [1.0, 2.0, 0.5, 1.5]})
BVN_STATE = {"mu_x": 1e8, "mu_y": 1.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": 0.2}
PARETO_DATA = Dataset({"x": [2.0, 3.0, 5.0, 7.0, 11.0]})

# (model, data, conditional, state, exception type): states that raise
# before the primary draw, then states at which no primary value inverts.
ERROR_CASES = [
    ("normal", None, "mu", {"mu": 0.0, "sigma2": -1.0}, DomainError),
    ("pareto", PARETO_DATA, "alpha", {"alpha": 1.0, "beta": 2.5}, DomainError),
    ("pareto", PARETO_DATA, "alpha", {"alpha": 1.0, "beta": 0.0}, DomainError),
    ("pareto", PARETO_DATA, "beta", {"alpha": math.nan, "beta": 1.0}, DomainError),
    ("quadreg", None, "beta1", {"beta0": 1.0, "beta1": 0.0, "beta2": 0.0, "sigma2": 0.0},
     DomainError),
    ("gamma", None, "beta", {"alpha": 1e308, "beta": 1.0}, DomainError),
    ("gamma", None, "alpha", {"alpha": 1.0, "beta": -1.0}, ValueError),
    ("bivariate_normal", BVN_DATA, "sigma_x2", dict(BVN_STATE, mu_x=1e8 + 1e-8),
     DegenerateDataError),
    ("bivariate_normal", BVN_DATA, "rho", dict(BVN_STATE, sigma_x2=1e-320), DomainError),
    ("bivariate_normal", BVN_DATA, "mu_x", dict(BVN_STATE, sigma_y2=0.0), ZeroDivisionError),
    ("normal", None, "sigma2", {"mu": 1e200, "sigma2": 1.0}, StructuralError),
    ("pareto", PARETO_DATA, "beta", {"alpha": 1e-320, "beta": 1.0}, StructuralError),
]


@pytest.mark.parametrize("name,data,label,state,error", ERROR_CASES)
def test_kernel_errors_match_the_layered_errors(name, data, label, state, error):
    model = get_model(name)
    if data is None:
        theta = dict(zip(model.param_labels, (1.0, 0.5, 0.25, 0.5)))
        data = simulate_dataset(model, theta, 20, RngStream(7, 0))
    sampler = model.build_conditionals(data)[label]
    fused = _outcome(sampler, data, state)
    assert fused == _outcome(layered(sampler), data, state)
    (kind, message), warnings = fused
    assert issubclass(kind, error), message
    if kind is StructuralError:
        assert warnings == {f"{label}.gamma_redraw": fidgibbs.core.MAX_REDRAWS + 1}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_draws_give_back_their_primary_through_the_pivot(case):
    # The round trip that ties the fused draw to the density view without a
    # second draw path: at recorded chain states of the golden data, a
    # catalog draw from RngStream(s, c) inverts the first primary value g
    # that sample takes from an identical stream, so pivot(q, theta) gives
    # back g.  The allowance is rounding, plus for the numeric solves their
    # tolerance (1e-13 in log a for the shapes, 1e-13 in rho) carried
    # through the pivot's slope.  Redrawn draws took another g: skipped.
    name, theta, n, _ = CASES[case]
    model = get_model(name)
    data = simulate_dataset(model, theta, n, RngStream(2018, 2**32))
    chains = run(model, data, ChainConfig(m=200, b=0, chains=2, seed=2018))
    conditionals = model.build_conditionals(data)
    checked = Counter()
    for c in range(2):
        for s, row in enumerate(chains.values[c, ::4].tolist()):
            state = dict(zip(chains.labels, row))
            for label, sampler in conditionals.items():
                warnings = Counter()
                drawn = sampler.draw(data, state, RngStream(s, c), warnings)
                if warnings:
                    continue
                eq = sampler.equation_for(data, state)
                g = sample(eq.gamma_dist, RngStream(s, c))
                back, log_slope = eq.pivot(sampler.statistic.compute(data, state), drawn)
                solve_tol = (1e-13 * abs(drawn) if label in SHAPES.get(name, ()) else
                             1e-13 if label == "rho" else 8 * EPS * abs(drawn))
                allowance = 64 * EPS * (1.0 + abs(g)) + solve_tol * math.exp(log_slope)
                assert abs(back - g) <= allowance, (label, state, g, drawn, back)
                checked[label] += 1
    assert sorted(checked) == sorted(model.param_labels)
    assert min(checked.values()) >= 90


# (model, conditional, state parameter, the name its check reports): the
# kernels that check a state value before they take their primary.
STATE_CHECKS = [
    ("normal", "mu", "sigma2", "sigma2"),
    ("behrens_fisher", "mu_x", "sigma_x2", "sigma2"),
    ("behrens_fisher", "mu_y", "sigma_y2", "sigma2"),
    ("quadreg", "beta0", "sigma2", "sigma2"),
    ("quadreg", "beta1", "sigma2", "sigma2"),
    ("quadreg", "beta2", "sigma2", "sigma2"),
    ("pareto", "alpha", "beta", "beta"),
    ("pareto", "beta", "alpha", "alpha"),
    ("gamma", "beta", "alpha", "alpha"),
]


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("name,label,param,reported", STATE_CHECKS)
def test_kernel_state_checks_raise_before_the_primary(name, label, param, reported, value):
    model = get_model(name)
    theta = dict(zip(model.param_labels, (1.0, 0.5, 0.25, 0.5)))
    data = simulate_dataset(model, theta, 20, RngStream(7, 0))
    sampler = model.build_conditionals(data)[label]
    # A state inside the support but for the checked value.
    state = dict(theta, **{param: value})
    if name == "pareto":
        state = {"alpha": 1.0, "beta": 0.5 * float(data.col("x").min()), param: value}
    rng = RngStream(3, 1)
    with pytest.raises(DomainError) as got:
        sampler.draw(data, state, rng, Counter())
    assert str(got.value) == f"{reported} must be positive and finite, got {value}"
    # Nothing was drawn: no block taken and the generator untouched.
    assert not rng._blocks and rng.gen.random() == RngStream(3, 1).gen.random()
