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
        "a9a11d3cd8c46f1c70afdcf7c7b4593371273db3d3788c2b4192bc1ea38e376e", {}),
    "pareto": (
        ["--model", "pareto", "--simulate", "alpha=3,beta=2,n=15"],
        "eea0bcb6decb05b9c73aaf40261ee4cb1f043598ac2cca931f1d6ce470f0fad7", {}),
    "quadreg": (
        ["--model", "quadreg", "--simulate", "beta0=1,beta1=-0.5,beta2=0.25,sigma2=0.5,n=25"],
        "02d7e3d5f4b58bfedde61679299f52d18440b4832e96c82f1436c3bd53606c36", {}),
    # n=5 leaves part of the truncated gamma interval without a root:
    # exercises the injectivity-grid and redraw counters.
    "gamma": (
        ["--model", "gamma", "--simulate", "alpha=2,beta=0.5,n=5"],
        "09d8bc58f5240a8004d1a7603f367b74a3d1daadcea0192c689d48cdb3452ae4",
        {"alpha.injectivity_grid_failures": 12, "alpha.gamma_redraw": 24}),
    "beta": (
        ["--model", "beta", "--simulate", "alpha=8,beta=3,n=50"],
        "81cfd10b4c963fbfe944344d0145232b3e6499ea61b8891d28552e12c21c644b", {}),
    "behrens_fisher": (
        ["--model", "behrens_fisher", "--simulate", "mu_x=1,mu_y=0.5,sigma_x2=4,sigma_y2=1,n=8"],
        "421663b16515362334c7affdb45a715c7d7613318d65606066951b15d941018b", {}),
    # n=4 puts the excluded-gamma region of the sigma equations inside [-5, 5].
    "bivariate_normal": (
        ["--model", "bivariate_normal", "--simulate",
         "mu_x=0,mu_y=0,sigma_x2=1,sigma_y2=1,rho=0.2,n=4"],
        "8b1bd2203dc941ca1a34e7e8d068dafb2b34c4baa7f687880a7824b31070623b",
        {"sigma_x2.gamma_redraw": 3, "sigma_y2.gamma_redraw": 2}),
    "beta_scan_order": (
        ["--model", "beta", "--simulate", "alpha=8,beta=3,n=50", "--scan-order", "beta,alpha"],
        "2722a39326b6d5dcc69dc8ebb0cf2c21b1f72b84388ab27fe03e365ba81a233e", {}),
    # Shapes below 1: the small-shape start and the solve outside the
    # certificate of the beta shapes.
    "beta_small_shapes": (
        ["--model", "beta", "--simulate", "alpha=0.4,beta=0.3,n=25"],
        "fc4d93dc063c66fd8bafaf0dd6c733d68217d47905420857ebe340f1184977a0",
        {"alpha.injectivity_grid_failures": 2, "beta.injectivity_grid_failures": 2}),
    # Statistics near |rho| = 1.
    "bivariate_normal_rho0.97": (
        ["--model", "bivariate_normal", "--simulate",
         "mu_x=0,mu_y=0,sigma_x2=1,sigma_y2=1,rho=0.97,n=30"],
        "d94c87b149a27f06451e02b3269c901c1bf223b9a2bbd44433833903d6ba80c5", {}),
    "pareto_init": (
        ["--model", "pareto", "--simulate", "alpha=3,beta=2,n=15", "--init", "alpha=1,beta=1.5"],
        "7384008984c68194d9b8819d072bb6db63ae5f79e582f839008b7460e3ccd2b0", {}),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_samples(case, tmp_path):
    args, sha256, warnings = GOLDEN[case]
    assert main(["run", *args, *RUN, "--output-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "samples.csv").read_bytes()).hexdigest() == sha256
    assert json.loads((tmp_path / "report.json").read_text())["warnings"] == warnings
