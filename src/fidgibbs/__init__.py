"""Joint fiducial distributions for multiparameter models.

Builds full conditional fiducial distributions from invertible structural
equations, composes them with a systematic-scan Gibbs sampler, checks
the conditionals pairwise for compatibility, and reports Monte Carlo
estimates with convergence diagnostics.
"""

__version__ = "0.1.0"

from .compat import CompatReport, check_model
from .core import (
    ConditionalFiducialSampler,
    FiducialStatistic,
    InjectivityReport,
    StructuralEquation,
    check_injectivity,
)
from .diagnostics import DiagnosticsReport, EstimateResult, ParamSummary, estimate, summarize
from .errors import (
    DegenerateDataError,
    DomainError,
    EvaluationError,
    FidgibbsError,
    StructuralError,
)
from .gibbs import ChainConfig, SampleMatrix, run
from .models import Dataset, ModelSpec, MODEL_NAMES, ParamSpec, get_model, simulate_dataset
from .randvar import (
    ChiSquare,
    Exponential,
    Gamma,
    Normal,
    RngStream,
    TruncatedNormal,
    log_density,
    quantile,
    sample,
)

__all__ = [
    "__version__",
    "ChainConfig",
    "ChiSquare",
    "CompatReport",
    "ConditionalFiducialSampler",
    "Dataset",
    "DegenerateDataError",
    "DiagnosticsReport",
    "DomainError",
    "EstimateResult",
    "EvaluationError",
    "Exponential",
    "FiducialStatistic",
    "FidgibbsError",
    "Gamma",
    "InjectivityReport",
    "MODEL_NAMES",
    "ModelSpec",
    "Normal",
    "ParamSpec",
    "ParamSummary",
    "RngStream",
    "SampleMatrix",
    "StructuralEquation",
    "StructuralError",
    "TruncatedNormal",
    "check_injectivity",
    "check_model",
    "estimate",
    "get_model",
    "log_density",
    "quantile",
    "run",
    "sample",
    "simulate_dataset",
    "summarize",
]
