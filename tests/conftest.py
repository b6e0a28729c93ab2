import dataclasses

import numpy as np
import pytest

from fidgibbs import Dataset, RngStream, simulate_dataset


def layered(sampler):
    """sampler drawing through the layered path: a catalog conditional's
    fused draw is set on the sampler its model builds, not on a copy."""
    return dataclasses.replace(sampler)


@pytest.fixture
def rng():
    return RngStream(12345, 0)


@pytest.fixture(scope="session")
def normal_data():
    return simulate_dataset("normal", {"mu": 1.0, "sigma2": 4.0}, 10, RngStream(101, 0))


@pytest.fixture(scope="session")
def pareto_data():
    return simulate_dataset("pareto", {"alpha": 3.0, "beta": 2.0}, 15, RngStream(102, 0))


@pytest.fixture(scope="session")
def quadreg_data():
    return simulate_dataset(
        "quadreg",
        {"beta0": 1.0, "beta1": -0.5, "beta2": 0.25, "sigma2": 0.5},
        25,
        RngStream(103, 0),
    )


@pytest.fixture(scope="session")
def gamma_data():
    return simulate_dataset("gamma", {"alpha": 2.0, "beta": 0.5}, 20, RngStream(104, 0))


@pytest.fixture(scope="session")
def beta_data():
    return simulate_dataset("beta", {"alpha": 8.0, "beta": 3.0}, 50, RngStream(105, 0))


@pytest.fixture(scope="session")
def bf_data():
    r = RngStream(106, 0)
    x = 1.0 + 2.0 * r.gen.standard_normal(8)
    y = 0.5 + 1.0 * r.gen.standard_normal(12)
    return Dataset({"x": x, "y": y})


@pytest.fixture(scope="session")
def bvn_data():
    return simulate_dataset(
        "bivariate_normal",
        {"mu_x": 0.0, "mu_y": 0.0, "sigma_x2": 1.0, "sigma_y2": 1.0, "rho": 0.8},
        200,
        RngStream(107, 0),
    )
