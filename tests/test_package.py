"""Package hygiene: every exported name and every traced name exists."""

import functools
import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import tiedbox

MODULES = sorted(m.name for m in pkgutil.iter_modules(tiedbox.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"tiedbox.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


def test_traced_names_resolve():
    # the traced benchmark run rebinds these paths; a rename under src/
    # must fail here rather than silently drop a layer from the trace
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t for _, t in tracing.SPANS + tracing.COUNTERS]
    targets += [tracing.ECHELON_INSERT[1], tracing.KB_COMPLETE[1]]
    targets += [f"tiedbox.algebras:{cls}.mul_basis" for cls in tracing.ALGEBRAS]
    missing = []
    for target in targets:
        module_name, _, attrs = target.partition(":")
        try:
            functools.reduce(getattr, attrs.split("."),
                             importlib.import_module(module_name))
        except AttributeError:
            missing.append(target)
    assert not missing
