"""Package hygiene: every exported name and every traced name exists, the
traced algebra classes are unrelated, no module changes a coefficient dict
in place, no module but setpartitions.py writes the fields of a set
partition, no module computes with anything but integers, and no module or
test imports a name it does not use or assigns a local it never reads."""

import ast
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


def load_tracing():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    # the traced benchmark run rebinds these paths; a rename under src/
    # must fail here rather than silently drop a layer from the trace
    tracing = load_tracing()
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


def test_traced_algebra_classes_are_unrelated():
    # the trace wraps `mul_basis` once per class of ALGEBRAS; a class that
    # inherited from another would inherit its wrapper too, and its products
    # would also count under the other class (the pinned BTAlgebra count)
    from tiedbox import algebras

    classes = [getattr(algebras, name) for name in load_tracing().ALGEBRAS]
    related = [(a.__name__, b.__name__) for a in classes for b in classes
               if a is not b and issubclass(a, b)]
    assert not related


MUTATORS = {"pop", "popitem", "update", "setdefault", "clear"}


def coefficient_dict_edits(tree):
    """Line numbers where the dict `<expr>.c` of a LaurentPoly is changed in
    place: item assignment or deletion, an augmented assignment, or a
    mutating method call."""
    def is_c(node):
        return isinstance(node, ast.Attribute) and node.attr == "c"

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_c(node.value) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            yield node.lineno
        elif isinstance(node, ast.AugAssign) and is_c(node.target):
            yield node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS and is_c(node.func.value):
            yield node.lineno


def test_coefficient_dict_scan_finds_in_place_edits():
    code = "p.c[0] = 1\ndel p.c[1]\np.c[2] += 1\np.c |= {}\np.c.pop(0)\n" \
           "p.c.update({})\nr.c = {0: 1}\nx = p.c[0]\nd = dict(p.c)\n"
    assert sorted(coefficient_dict_edits(ast.parse(code))) == [1, 2, 3, 4, 5, 6]


def test_coefficient_dicts_are_never_changed_in_place():
    # Laurent values are shared (a product with ONE returns its operand), so
    # one in-place edit would change every holder of the value; a new value
    # is built as a dict first and then bound to `.c`
    package = pathlib.Path(tiedbox.__file__).parent
    edits = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in coefficient_dict_edits(ast.parse(path.read_text()))]
    assert not edits


PARTITION_FIELDS = {"blocks", "size", "_index"}


def partition_field_writes(tree):
    """Line numbers where a field of a SetPartition is written: assignment
    to or deletion of `<expr>.blocks`, `.size` or `._index`, or an item
    write or mutating method call on `<expr>._index`."""
    def is_field(node, names=PARTITION_FIELDS):
        return isinstance(node, ast.Attribute) and node.attr in names

    for node in ast.walk(tree):
        if is_field(node) and isinstance(node.ctx, (ast.Store, ast.Del)):
            yield node.lineno
        elif isinstance(node, ast.Subscript) and is_field(node.value, {"_index"}) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            yield node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS and is_field(node.func.value, {"_index"}):
            yield node.lineno


def test_partition_field_scan_finds_writes():
    code = "p.blocks = ()\np.size += 1\ndel p._index\np._index[1] = 0\n" \
           "p._index.update({})\nx = p.blocks\nq = p._index[1]\nd.part = p\n"
    assert sorted(partition_field_writes(ast.parse(code))) == [1, 2, 3, 4, 5]


def test_partition_fields_are_written_only_in_setpartitions():
    # the algebras cache joins, actions and straightening steps, and share
    # their results, so a set partition is built once, by setpartitions.py,
    # and never changed
    package = pathlib.Path(tiedbox.__file__).parent
    writes = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
              if path.name != "setpartitions.py"
              for line in partition_field_writes(ast.parse(path.read_text()))]
    assert not writes


INEXACT_MODULES = {"fractions", "decimal"}


def inexact_numbers(tree):
    """Line numbers of an import of `fractions` or `decimal` and of a float
    or complex literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] in INEXACT_MODULES for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in INEXACT_MODULES:
                yield node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno


def test_inexact_number_scan_finds_them():
    code = "from fractions import Fraction\nimport decimal\nx = 0.5\n" \
           "y = 1e3\nz = 2j\nimport math\nw = 10 ** 6\ns = '0.5'\n"
    assert sorted(inexact_numbers(ast.parse(code))) == [1, 2, 3, 4, 5]


def test_modules_compute_with_integers_only():
    # every coefficient is in Z[q, q^-1] and every rank is exact or a
    # seeded modular bound, so no value needs a fraction or a float
    package = pathlib.Path(tiedbox.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in inexact_numbers(ast.parse(path.read_text()))]
    assert not found


def unused_imports(tree):
    """Line numbers of the imported names that the module never reads and
    does not list in `__all__`."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [line for name, line in imported if name not in used]


def test_unused_import_scan_finds_them():
    code = "import os\nimport sys as system\nfrom a import b, c\n" \
           "from . import d\nimport x.y\nfrom e import f\n" \
           "__all__ = ['c']\nprint(os.sep, d, x.y.z, system.argv)\n"
    assert sorted(unused_imports(ast.parse(code))) == [3, 6]


def test_modules_and_tests_import_only_what_they_use():
    package = pathlib.Path(tiedbox.__file__).parent
    paths = sorted(package.glob("*.py")) + \
        sorted(pathlib.Path(__file__).parent.glob("*.py"))
    found = [f"{path.parent.name}/{path.name}:{line}" for path in paths
             for line in unused_imports(ast.parse(path.read_text()))]
    assert not found


def unread_locals(tree):
    """(line, name) of each name that a function assigns and that neither it
    nor a function nested in it reads.  Names starting with `_` are exempt,
    and so are names declared global or nonlocal."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
        found |= {(line, name) for name, line in stored.items()
                  if name not in read and not name.startswith("_")}
    return sorted(found)


def test_unread_local_scan_finds_them():
    code = ("def f(a):\n"
            "    b, c = a\n"              # c is never read
            "    for i, _ in b:\n"        # i is never read; _ is exempt
            "        d = 1\n"             # read by g below
            "    def g():\n"
            "        nonlocal d\n"
            "        e = d\n"             # e is never read
            "    h = [k for k in b]\n"    # h is never read
            "    b += 1\n"
            "    return b\n"
            "x = 1\n")                    # module level: not a local
    assert unread_locals(ast.parse(code)) == [
        (2, "c"), (3, "i"), (7, "e"), (8, "h")]


def test_modules_and_tests_read_every_local_they_assign():
    package = pathlib.Path(tiedbox.__file__).parent
    paths = sorted(package.glob("*.py")) + \
        sorted(pathlib.Path(__file__).parent.glob("*.py"))
    found = [f"{path.parent.name}/{path.name}:{line} {name}" for path in paths
             for line, name in unread_locals(ast.parse(path.read_text()))]
    assert not found
