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
    "InjectivityReport",
    "FidgibbsError", "DomainError", "DegenerateDataError", "StructuralError", "EvaluationError",
}


def _owner(stmt) -> set:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)}


def _used_names() -> set:
    """Every name that the package source reads outside its own definition,
    its imports and the __all__ lists, as a name or as an attribute."""
    used = set()
    for path in sorted(Path(fidgibbs.__path__[0]).glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = _owner(stmt)
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) or "__all__" in owner:
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id not in owner:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr not in owner:
                    used.add(node.attr)
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_used_or_documented(module):
    used = _used_names()
    exported = getattr(importlib.import_module(module), "__all__", ())
    assert [name for name in exported if name not in used and name not in DOCUMENTED] == []


def test_documented_names_are_exported():
    assert DOCUMENTED <= set(fidgibbs.__all__)
