"""Package hygiene: every exported name exists."""

import importlib
import pkgutil

import pytest

import tiedbox

MODULES = sorted(m.name for m in pkgutil.iter_modules(tiedbox.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"tiedbox.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing
