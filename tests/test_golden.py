"""Golden outputs: samples.csv bytes and warning counts of fixed CLI runs.

Each case runs `fidgibbs run --simulate ...` with m=2000, 2 chains and a
fixed seed, and compares the sha256 of samples.csv and the report's
warnings dict with values recorded before the sampler was refactored.  A
refactor that keeps the draws must keep these bytes; a deliberate change
of the stream layout updates the table once and says so in CHANGES.md.
The hashes were recorded with numpy 2.4.6 and scipy 1.17.1; other
versions may round the special functions differently.
"""

import hashlib
import json

import pytest

from fidgibbs.cli import main

RUN = ["--m", "2000", "--b", "500", "--chains", "2", "--seed", "2018"]

# case -> (model arguments, sha256 of samples.csv, warnings)
GOLDEN = {
    "normal": (
        ["--model", "normal", "--simulate", "mu=1,sigma2=4,n=12"],
        "29437af87b36fef1d89fcfa9dd1ab07fc2a73f16bcf58d24f246274c9476c8bf", {}),
    "pareto": (
        ["--model", "pareto", "--simulate", "alpha=3,beta=2,n=15"],
        "c85ed2c1b2cbb80a208346ed86160cc5e7e7e2ed811f4c87e7dc8a2ca6049ef0", {}),
    "quadreg": (
        ["--model", "quadreg", "--simulate", "beta0=1,beta1=-0.5,beta2=0.25,sigma2=0.5,n=25"],
        "b1d09a08cb60215b089520db4a7415fd28a6143f7dfac01fa9d9dc24d7b5e466", {}),
    # n=5 leaves part of the truncated gamma interval without a root:
    # exercises the injectivity-grid and redraw counters.
    "gamma": (
        ["--model", "gamma", "--simulate", "alpha=2,beta=0.5,n=5"],
        "c2a835e3e4b4c02ac44878c914d67684038d86b15937d6996a9c23fe05820ad3",
        {"alpha.injectivity_grid_failures": 13, "alpha.gamma_redraw": 28}),
    "beta": (
        ["--model", "beta", "--simulate", "alpha=8,beta=3,n=50"],
        "90626449a14e2a4b85858a54cc94693d41bb23f43495898655758d69ae4a83a8", {}),
    "behrens_fisher": (
        ["--model", "behrens_fisher", "--simulate", "mu_x=1,mu_y=0.5,sigma_x2=4,sigma_y2=1,n=8"],
        "c2fdc98b364b9d8a4e599df63d3b5cf660ae795bb6240516956f4e92aa8c780f", {}),
    # n=4 puts the excluded-gamma region of the sigma equations inside [-5, 5].
    "bivariate_normal": (
        ["--model", "bivariate_normal", "--simulate",
         "mu_x=0,mu_y=0,sigma_x2=1,sigma_y2=1,rho=0.2,n=4"],
        "acd18b51e287c1717f1ae25b293e707ea56b95c1b641c6504d529d68155b9e60",
        {"sigma_x2.gamma_redraw": 3, "sigma_y2.gamma_redraw": 1}),
    "beta_scan_order": (
        ["--model", "beta", "--simulate", "alpha=8,beta=3,n=50", "--scan-order", "beta,alpha"],
        "cbb4b49eebdf265d161e28836d4dc3f40b29cd18e407254265e6c8702cc5baaa", {}),
    "pareto_init": (
        ["--model", "pareto", "--simulate", "alpha=3,beta=2,n=15", "--init", "alpha=1,beta=1.5"],
        "325c05f8ae74b3a8bee5729752e407abc4963a89d25f022ef45b03c2ffff8c5b", {}),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_samples(case, tmp_path):
    args, sha256, warnings = GOLDEN[case]
    assert main(["run", *args, *RUN, "--output-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "samples.csv").read_bytes()).hexdigest() == sha256
    assert json.loads((tmp_path / "report.json").read_text())["warnings"] == warnings
