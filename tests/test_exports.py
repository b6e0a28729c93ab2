import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fidgibbs

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(fidgibbs.__path__))
MODULES = ["fidgibbs"] + [f"fidgibbs.{m}" for m in SUBMODULES]

# The entry points, laws, config and result types and errors that the README
# documents: they are exported whether or not the package itself uses them.
DOCUMENTED = {
    "__version__",
    "run", "summarize", "estimate", "check_model", "simulate_dataset", "get_model",
    "Normal", "TruncatedNormal", "Gamma", "ChiSquare", "Exponential",
    "sample", "log_density", "quantile", "check_injectivity",
    "ChainConfig", "SampleMatrix", "EstimateResult", "DiagnosticsReport", "CompatReport",
    "InjectivityReport", "StructuralEquation", "ParamSummary", "ParamSpec",
    "FidgibbsError", "DomainError", "DegenerateDataError", "StructuralError", "EvaluationError",
}


def _owner(stmt) -> set:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)}


def _usage():
    """The package module that defines each top-level name, and per module
    every name its source reads outside its imports and its __all__, as a
    name or as an attribute."""
    defined, reads = {}, {}
    for path in sorted(Path(fidgibbs.__path__[0]).glob("*.py")):
        read = reads[path.stem] = set()
        for stmt in ast.parse(path.read_text()).body:
            owner = _owner(stmt)
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) or "__all__" in owner:
                continue
            defined.update(dict.fromkeys(owner, path.stem))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    return defined, reads


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_used_or_documented(module):
    # A name counts as used only when a module other than the one that
    # defines it reads it: a module calling its own export does not.
    defined, reads = _usage()
    exported = getattr(importlib.import_module(module), "__all__", ())
    assert [name for name in exported if name not in DOCUMENTED and not any(
        name in read for stem, read in reads.items() if stem != defined.get(name))] == []


def test_documented_names_are_exported():
    assert DOCUMENTED <= set(fidgibbs.__all__)
