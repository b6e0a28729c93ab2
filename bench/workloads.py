"""Workload inputs, operations and output checks for the fidgibbs benchmark.

Every input is generated here with numpy from the workload seed; the
package only ever sees the generated data files, datasets and sample
matrices.  An operation times exactly one call into the package and then
checks that call's output outside the timed region.  Importing this module
imports fidgibbs, so the import is part of the measured set-up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

import fidgibbs
from fidgibbs import ChainConfig, Dataset, SampleMatrix, estimate, get_model, run, summarize
from fidgibbs import cli
from fidgibbs.diagnostics import RHAT_THRESHOLD
from fidgibbs.gibbs import DEFAULT_BURN_IN

CLOSED_FORM_MODELS = ("normal", "pareto", "quadreg", "behrens_fisher")

# Sample sizes for closed_form_cli, log-spaced from 8 to 5000: eight for the
# two-parameter models and four for the four-parameter ones, whose jobs are
# two to three times longer.  The mix keeps the median and the tail of job
# time inside groups of similar jobs rather than on the gap between groups.
# The order interleaves small and large n so that any prefix of a pass,
# which is what a short traced run covers, sees both.
CLI_SIZES = {
    "normal": (350, 8, 5000, 20, 900, 50, 2300, 130),
    "pareto": (350, 8, 5000, 20, 900, 50, 2300, 130),
    "quadreg": (500, 8, 5000, 60),
    "behrens_fisher": (500, 8, 5000, 60),
}
# Cycles per chain: enough for R-hat < 1.05 with margin on every dataset
# (quadreg's four correlated parameters mix more slowly).
CLI_CYCLES = {"normal": 1000, "pareto": 1000, "quadreg": 2000, "behrens_fisher": 1000}

# The sampling workloads run on a fixed panel of one dataset per
# configuration, drawn from PANEL_SEED; --seed sets the sampler seed of every
# job, which differs in every pass.  The ESS of a job depends far more on its
# dataset than on its sampler seed (gamma n=5: 350 to 2800 across datasets,
# within 5% across sampler seeds), so fresh data per seed would make
# ess_per_s measure the data rather than the program.
PANEL_SEED = 0
CLI_SALT, NUMERIC_SALT = 1, 2
# postprocess draws its matrices and compat datasets from --seed, three
# variants each; pass p uses variant p % VARIANTS.
VARIANTS = 3

# Accepted relative error of the diag ESS against the analytic AR(1) ESS.
ESS_TOLERANCE = 0.35

# AR(1) sample matrices for postprocess: (cycles per chain, lag-1 coefficients).
AR_SHAPES = ((1500, (0.0, 0.5)), (3000, (0.2, 0.45, 0.6, 0.7)), (6000, (0.3, 0.5, 0.65)))
AR_CHAINS = 4
COMPAT_N = 40


@dataclass
class OpResult:
    """One timed call and the outcome of its output checks."""

    name: str
    kind: str
    seconds: float
    error: Optional[str] = None
    model: Optional[str] = None
    cycles: int = 0          # chain x cycle rows produced or processed
    values: int = 0          # chain x cycle x parameter values
    ess: Optional[float] = None
    rhat_max: Optional[float] = None
    sha256: Optional[str] = None
    extra: dict = field(default_factory=dict)
    start: float = 0.0       # time.perf_counter() when the timed call began

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class SamplingConfig:
    """A sampling job: a model, a data generator and the cycles per chain."""

    name: str
    model: str
    cycles: int
    make: Callable[[np.random.Generator], dict]


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def panel_data(cfg: SamplingConfig, salt: int, i: int) -> dict:
    """The panel dataset of configuration i of a sampling workload."""
    return cfg.make(_rng(PANEL_SEED, salt, i))


def _job_seed(seed: int, *salt: int) -> int:
    return int(np.random.SeedSequence([seed, *salt]).generate_state(1)[0])


def _scaled_cycles(cycles: int, scale: float) -> int:
    """Cycles after --scale, never below DEFAULT_BURN_IN + 100 (b < m)."""
    return max(DEFAULT_BURN_IN + 100, int(round(cycles * scale)))


def matrix_sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def check_draws(model: str, values: np.ndarray, labels) -> Optional[str]:
    """Every draw finite and inside its ParamSpec domain."""
    spec = get_model(model)
    for j, label in enumerate(labels):
        p = spec.param(label)
        col = values[..., j]
        bad = ~(np.isfinite(col) & (col > p.lo) & (col < p.hi))
        if np.any(bad):
            return f"{int(bad.sum())} draws of {label} outside ({p.lo}, {p.hi}) or non-finite"
    return None


def check_rhat(rhats: dict) -> Optional[str]:
    for label, r in rhats.items():
        if r is None or not math.isfinite(r) or r >= RHAT_THRESHOLD:
            return f"R-hat of {label} is {r}, not below {RHAT_THRESHOLD}"
    return None


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(v) -> str:
    return format(float(v), ".17g")


def write_model_csv(path: Path, model: str, cols: dict):
    """Headered CSV in the layout `fidgibbs run --data` reads."""
    if model == "behrens_fisher":
        rows = [("1", _fmt(v)) for v in cols["x"]] + [("2", _fmt(v)) for v in cols["y"]]
        _write_csv(path, ("group", "x"), rows)
    elif "y" in cols:
        _write_csv(path, ("x", "y"), [(_fmt(a), _fmt(b)) for a, b in zip(cols["x"], cols["y"])])
    else:
        _write_csv(path, ("x",), [(_fmt(a),) for a in cols["x"]])


# ---------------------------------------------------------------------------
# Data generators
# ---------------------------------------------------------------------------

def closed_form_data(model: str, n: int, g: np.random.Generator) -> dict:
    if model == "normal":
        mu, sd = g.uniform(-5.0, 5.0), math.exp(g.uniform(-1.0, 1.0))
        return {"x": mu + sd * g.standard_normal(n)}
    if model == "pareto":
        alpha, beta = g.uniform(1.5, 5.0), g.uniform(0.5, 3.0)
        return {"x": beta * np.exp(g.exponential(1.0 / alpha, n))}
    if model == "quadreg":
        # An evenly spaced design: random designs at n = 8 can be nearly
        # collinear, and then the Gibbs scan mixes too slowly for R-hat.
        x = np.linspace(-2.0, 2.0, n)
        b0, b1, b2 = g.normal(0.0, 1.0, 3)
        sd = math.exp(g.uniform(-1.0, 0.5))
        return {"x": x, "y": b0 + b1 * x + b2 * x * x + sd * g.standard_normal(n)}
    if model == "behrens_fisher":
        ny = max(4, (2 * n) // 3)
        mx, my = g.uniform(-3.0, 3.0, 2)
        sx, sy = np.exp(g.uniform(-1.0, 1.0, 2))
        return {"x": mx + sx * g.standard_normal(n), "y": my + sy * g.standard_normal(ny)}
    raise ValueError(f"no closed-form generator for {model}")


def _bvn(rho: float, n: int):
    def make(g):
        z1, z2 = g.standard_normal(n), g.standard_normal(n)
        return {"x": z1, "y": rho * z1 + math.sqrt(1.0 - rho * rho) * z2}
    return make


# The acceptance parameterisations, then hostile cases: a gamma shape from
# five observations (its alpha draws redraw and its injectivity grid has
# failed points), two pairs of beta shapes below one, and a near-singular
# BVN.  Seven configurations put the median of job time inside one of them.
NUMERIC_CONFIGS = (
    SamplingConfig("gamma_a2_b0.5_n20", "gamma", 2500, lambda g: {"x": g.gamma(2.0, 2.0, 20)}),
    SamplingConfig("beta_a8_b3_n50", "beta", 2000, lambda g: {"x": g.beta(8.0, 3.0, 50)}),
    SamplingConfig("bvn_rho0.8_n200", "bivariate_normal", 1500, _bvn(0.8, 200)),
    SamplingConfig("gamma_a2_b0.5_n5", "gamma", 5000, lambda g: {"x": g.gamma(2.0, 2.0, 5)}),
    SamplingConfig("beta_a0.5_b0.7_n40", "beta", 800, lambda g: {"x": g.beta(0.5, 0.7, 40)}),
    SamplingConfig("beta_a0.4_b0.3_n25", "beta", 800, lambda g: {"x": g.beta(0.4, 0.3, 25)}),
    SamplingConfig("bvn_rho0.97_n30", "bivariate_normal", 6000, _bvn(0.97, 30)),
)


def closed_form_configs() -> List[SamplingConfig]:
    """closed_form_cli jobs, the models interleaved."""
    jobs = [[SamplingConfig(f"{model}_n{n}", model, CLI_CYCLES[model],
                            lambda g, model=model, n=n: closed_form_data(model, n, g))
             for n in sizes] for model, sizes in CLI_SIZES.items()]
    return [cfg for row in itertools.zip_longest(*jobs) for cfg in row if cfg is not None]


def ar1_matrix(g: np.random.Generator, cycles: int, phis) -> np.ndarray:
    """Stationary unit-variance AR(1) draws, shape (chains, cycles, len(phis))."""
    phis = np.asarray(phis, dtype=float)
    shocks = g.standard_normal((cycles, AR_CHAINS, phis.size)) * np.sqrt(1.0 - phis ** 2)
    out = np.empty((cycles, AR_CHAINS, phis.size))
    out[0] = g.standard_normal((AR_CHAINS, phis.size))
    for t in range(1, cycles):
        out[t] = phis * out[t - 1] + shocks[t]
    return np.ascontiguousarray(out.transpose(1, 0, 2))


def ar1_ess(cycles: int, phi: float) -> float:
    """Analytic ESS of the post-burn-in draws of AR_CHAINS AR(1) chains."""
    return AR_CHAINS * (cycles - DEFAULT_BURN_IN) * (1.0 - phi) / (1.0 + phi)


def sample_matrix(values: np.ndarray) -> SampleMatrix:
    labels = tuple(f"p{j}" for j in range(values.shape[2]))
    cfg = ChainConfig(m=values.shape[1], b=DEFAULT_BURN_IN, chains=values.shape[0],
                      seed=0, scan_order=labels)
    return SampleMatrix(values=values, labels=labels, config=cfg)


def estimate_h(state) -> float:
    """A nonlinear function of two parameters for `estimate`."""
    return math.exp(0.5 * state["p0"]) / (1.0 + state["p1"] * state["p1"])


def estimate_reference(values: np.ndarray) -> float:
    rows = values[:, DEFAULT_BURN_IN:, :]
    return float(np.mean(np.exp(0.5 * rows[..., 0]) / (1.0 + rows[..., 1] ** 2)))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """A pass: the ordered operations run once per pass, pass index as argument."""

    name = ""

    def __init__(self, seed: int, workdir: Path, scale: float):
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self.devnull = open(os.devnull, "w")

    def close(self):
        self.devnull.close()

    def ops(self) -> List[Callable[[int], OpResult]]:
        raise NotImplementedError

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(self.devnull):
            return cli.main(argv)


class ClosedFormCli(Workload):
    """`fidgibbs run --data` on closed-form models, through cli.main in-process."""

    name = "closed_form_cli"

    def __init__(self, seed, workdir, scale):
        super().__init__(seed, workdir, scale)
        self.configs = closed_form_configs()
        self.outdir = workdir / "run_out"
        self.files = []
        for i, cfg in enumerate(self.configs):
            self.files.append(workdir / f"{cfg.name}.csv")
            write_model_csv(self.files[i], cfg.model, panel_data(cfg, CLI_SALT, i))

    def ops(self):
        return [lambda p, i=i: self._run(i, p) for i in range(len(self.configs))]

    def _run(self, i: int, p: int) -> OpResult:
        cfg = self.configs[i]
        m = _scaled_cycles(cfg.cycles, self.scale)
        argv = ["run", "--model", cfg.model, "--data", str(self.files[i]),
                "--m", str(m), "--seed", str(_job_seed(self.seed, CLI_SALT, i, p)),
                "--output-dir", str(self.outdir)]
        t0 = time.perf_counter()
        rc = self._cli(argv)
        dt = time.perf_counter() - t0
        res = OpResult(f"cli_run:{cfg.name}", "sample", dt, start=t0, model=cfg.model)
        if rc != 0:
            res.error = f"fidgibbs run exited with {rc}"
            return res
        report = json.loads((self.outdir / "report.json").read_text())
        with open(self.outdir / "samples.csv") as fh:
            labels = next(csv.reader(fh))[2:]
        table = np.loadtxt(self.outdir / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
        chains = report["chains"]
        values = table[:, 2:].reshape(chains, m, len(labels))
        res.cycles, res.values = chains * m, values.size
        res.sha256 = matrix_sha256(values)
        params = report["params"]
        res.ess = min(q["ess"] for q in params)
        res.rhat_max = max((q["rhat"] for q in params if q["rhat"] is not None), default=None)
        res.error = (check_draws(cfg.model, values, labels)
                     or check_rhat({q["param"]: q["rhat"] for q in params}))
        return res


def sampling_job(cfg: SamplingConfig, data: Dataset, cycles: int, seed: int) -> OpResult:
    """run + summarize through the Python API."""
    spec = get_model(cfg.model)
    t0 = time.perf_counter()
    samples = run(spec, data, ChainConfig(m=cycles, seed=seed))
    report = summarize(samples)
    dt = time.perf_counter() - t0
    res = OpResult(f"run:{cfg.name}", "sample", dt, start=t0, model=cfg.model)
    res.cycles = samples.values.shape[0] * samples.values.shape[1]
    res.values = samples.values.size
    res.sha256 = matrix_sha256(samples.values)
    res.ess = min(q.ess for q in report.params)
    res.rhat_max = max(q.rhat for q in report.params)
    res.extra["warnings"] = dict(samples.warnings)
    res.error = (check_draws(cfg.model, samples.values, samples.labels)
                 or check_rhat({q.param: q.rhat for q in report.params}))
    return res


class NumericShapes(Workload):
    """run + summarize on the numerically inverted models (gamma, beta, BVN)."""

    name = "numeric_shapes"

    def __init__(self, seed, workdir, scale):
        super().__init__(seed, workdir, scale)
        self.configs = NUMERIC_CONFIGS
        self.data = [Dataset(panel_data(cfg, NUMERIC_SALT, i)) for i, cfg in enumerate(self.configs)]

    def ops(self):
        return [lambda p, i=i: self._run(i, p) for i in range(len(self.configs))]

    def _run(self, i: int, p: int) -> OpResult:
        cfg = self.configs[i]
        return sampling_job(cfg, self.data[i], _scaled_cycles(cfg.cycles, self.scale),
                            _job_seed(self.seed, NUMERIC_SALT, i, p))


class Postprocess(Workload):
    """CSV writes, `fidgibbs diag`, `estimate` and `fidgibbs check-compat`; no sampling."""

    name = "postprocess"

    def __init__(self, seed, workdir, scale):
        super().__init__(seed, workdir, scale)
        self.shapes = [(_scaled_cycles(c, scale), phis) for c, phis in AR_SHAPES]
        self.matrices = {(k, v): sample_matrix(ar1_matrix(_rng(seed, 3, k, v), c, phis))
                         for k, (c, phis) in enumerate(self.shapes) for v in range(VARIANTS)}
        self.compat_data, self.compat_files = {}, {}
        for i, model in enumerate(CLOSED_FORM_MODELS):
            for v in range(VARIANTS):
                cols = closed_form_data(model, COMPAT_N, _rng(seed, 4, i, v))
                path = workdir / f"compat_{model}_{v}.csv"
                write_model_csv(path, model, cols)
                self.compat_data[model, v] = Dataset(cols)
                self.compat_files[model, v] = path

    def ops(self):
        """write, diag and estimate per matrix, a check-compat after each triple."""
        matrix_ops = [[lambda p, k=k: self._write(k, p), lambda p, k=k: self._diag(k, p),
                       lambda p, k=k: self._estimate(k, p)] for k in range(len(self.shapes))]
        compat_ops = [[lambda p, m=m: self._compat(m, p)] for m in CLOSED_FORM_MODELS]
        return [op for pair in itertools.zip_longest(matrix_ops, compat_ops, fillvalue=[])
                for group in pair for op in group]

    def _path(self, k: int) -> Path:
        return self.workdir / f"samples_{k}.csv"

    def _write(self, k: int, p: int) -> OpResult:
        sm = self.matrices[k, p % VARIANTS]
        path = self._path(k)
        t0 = time.perf_counter()
        cli.write_samples_csv(sm, path)
        dt = time.perf_counter() - t0
        c, m, _ = sm.values.shape
        res = OpResult(f"write_samples_csv:{k}", "write", dt, start=t0, cycles=c * m,
                       values=sm.values.size)
        back = cli.read_samples_csv(path, DEFAULT_BURN_IN)
        if back.labels != sm.labels or not np.array_equal(back.values, sm.values):
            res.error = "read_samples_csv did not return the written values"
        return res

    def _diag(self, k: int, p: int) -> OpResult:
        sm = self.matrices[k, p % VARIANTS]
        out = self.workdir / f"diag_{k}.json"
        t0 = time.perf_counter()
        rc = self._cli(["diag", "--samples", str(self._path(k)), "--out", str(out)])
        dt = time.perf_counter() - t0
        c, m, _ = sm.values.shape
        res = OpResult(f"diag:{k}", "diag", dt, start=t0, cycles=c * m, values=sm.values.size)
        if rc != 0:
            res.error = f"fidgibbs diag exited with {rc}"
            return res
        params = json.loads(out.read_text())["params"]
        res.ess = min(q["ess"] for q in params)
        for q, phi in zip(params, self.shapes[k][1]):
            want = ar1_ess(m, phi)
            if not abs(q["ess"] - want) <= ESS_TOLERANCE * want:
                res.error = (f"ESS of {q['param']} is {q['ess']:.1f}, analytic {want:.1f} "
                             f"(tolerance {ESS_TOLERANCE:.0%})")
                break
        return res

    def _estimate(self, k: int, p: int) -> OpResult:
        sm = self.matrices[k, p % VARIANTS]
        t0 = time.perf_counter()
        est = estimate(estimate_h, sm)
        dt = time.perf_counter() - t0
        c, m, kk = sm.values.shape
        rows = c * (m - DEFAULT_BURN_IN)
        res = OpResult(f"estimate:{k}", "estimate", dt, start=t0, cycles=rows, values=rows * kk,
                       ess=est.ess)
        want = estimate_reference(sm.values)
        if not (math.isclose(est.value, want, rel_tol=1e-12)
                and math.isfinite(est.std_error) and est.ess >= 1.0):
            res.error = f"estimate gave {est}, reference mean {want!r}"
        return res

    def _compat(self, model: str, p: int) -> OpResult:
        out = self.workdir / f"compat_{model}.json"
        argv = ["check-compat", "--model", model,
                "--data", str(self.compat_files[model, p % VARIANTS]), "--out", str(out)]
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(self.devnull):
            rc = self._cli(argv)
        dt = time.perf_counter() - t0
        res = OpResult(f"check_compat:{model}", "compat", dt, start=t0, model=model)
        if rc != 0:
            res.error = f"fidgibbs check-compat exited with {rc}"
            return res
        verdicts = {param: rep["verdict"] for param, rep in json.loads(out.read_text()).items()}
        if set(verdicts.values()) != {"compatible"}:
            res.error = f"check-compat verdicts {verdicts}"
        return res


WORKLOAD_CLASSES = {cls.name: cls for cls in (ClosedFormCli, NumericShapes, Postprocess)}


def versions() -> dict:
    import scipy
    return {"fidgibbs": fidgibbs.__version__, "numpy": np.__version__, "scipy": scipy.__version__}
