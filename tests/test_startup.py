"""Which scipy modules a fresh interpreter loads for each command.

Importing fidgibbs costs numpy plus the package and imports no scipy
module, not even the scipy package: scipy.special is found and loaded on
its first use, the closed-form models load no scipy module, and no
command loads scipy.optimize or scipy.linalg.  Each case runs in a new
interpreter, since any earlier test may have imported scipy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
WATCHED = ("scipy.special._ufuncs", "scipy.optimize", "scipy.linalg")
# The scipy package too, for the runs that must load no scipy module at all.
NO_SCIPY = ("scipy",) + WATCHED
SIMULATE = {
    "normal": "mu=0,sigma2=1,n=20",
    "pareto": "alpha=3,beta=2,n=20",
    "behrens_fisher": "mu_x=0,mu_y=1,sigma_x2=1,sigma_y2=2,n=8",
    "quadreg": "beta0=1,beta1=0.5,beta2=0.2,sigma2=1,n=20",
    "gamma": "alpha=2,beta=1,n=20",
    "bivariate_normal": "mu_x=0,mu_y=0,sigma_x2=1,sigma_y2=1,rho=0.2,n=4",
}


def _loaded_after(code: str, watched: tuple = WATCHED) -> list:
    """The watched modules in sys.modules after code runs in a new interpreter."""
    script = textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps([m for m in {watched!r} if m in sys.modules]))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _run_code(model: str, out_dir: Path) -> str:
    return f"""
        from fidgibbs import cli
        assert cli.main(["run", "--model", {model!r}, "--simulate", {SIMULATE[model]!r},
                         "--m", "300", "--b", "50", "--chains", "2",
                         "--output-dir", {str(out_dir)!r}]) == 0
    """


def test_import_loads_no_scipy_submodule():
    assert _loaded_after("import fidgibbs", NO_SCIPY) == []
    assert _loaded_after("import fidgibbs.cli", NO_SCIPY) == []


@pytest.mark.parametrize("model", ["normal", "pareto", "quadreg", "behrens_fisher"])
def test_closed_form_runs_load_no_scipy_submodule(tmp_path, model):
    # diag and estimate on the run's samples, and the writers, need none either.
    code = _run_code(model, tmp_path) + f"""
        from fidgibbs import estimate
        samples = {str(tmp_path / "samples.csv")!r}
        assert cli.main(["diag", "--samples", samples, "--b", "50",
                         "--out", {str(tmp_path / "diag.json")!r}]) == 0
        estimate(lambda s: sum(s.values()), cli.read_samples_csv(samples, 50))
    """
    assert _loaded_after(code, NO_SCIPY) == []


def test_gamma_loads_special(tmp_path):
    assert "scipy.special._ufuncs" in _loaded_after(_run_code("gamma", tmp_path))


def test_bivariate_normal_loads_only_special(tmp_path):
    # At n = 4 most correlation solves are outside |gamma| < sqrt(n / 2);
    # they take the same Newton solve, which needs no scipy.optimize.
    assert _loaded_after(_run_code("bivariate_normal", tmp_path)) == ["scipy.special._ufuncs"]


@pytest.mark.parametrize("scipy_first", [True, False])
def test_scipy_special_imports_either_side(scipy_first):
    ours = "import fidgibbs\nfrom fidgibbs import models, specfun\n"
    theirs = "import scipy.special\nfrom scipy.special import psi\n"
    code = (theirs + ours if scipy_first else ours + theirs) + textwrap.dedent("""
        import sys
        import numpy
        assert specfun.scipy_special is sys.modules["scipy.special"]
        # psi as the gamma shape equation evaluates it.
        assert psi(1.0) == scipy.special.psi(1.0) == models._shape_parts(1.0, None, numpy.empty(2))[0]
        from scipy import special, stats
        assert special is scipy.special and stats.norm.cdf(0.0) == 0.5
    """)
    assert "scipy.special._ufuncs" in _loaded_after(code)
