import importlib
import pkgutil

import pytest

import fidgibbs

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(fidgibbs.__path__))


@pytest.mark.parametrize("module", ["fidgibbs"] + [f"fidgibbs.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
