"""Package hygiene: every exported name and every traced name exists, the
traced algebra classes are unrelated, no module changes a coefficient dict
in place, no module but setpartitions.py writes the fields of a set
partition, only `AlgebraElement.__init__` writes the fields of an algebra
element, no module computes with anything but integers, and no module or
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


LAURENT_FIELDS = {"c", "_h"}


def binds_field(node, fields):
    """Whether node binds or deletes `<expr>.f` for a name f in fields,
    including by an augmented assignment or `setattr(<expr>, "f", ...)`."""
    if isinstance(node, ast.Attribute):
        return node.attr in fields and isinstance(node.ctx, (ast.Store, ast.Del))
    return isinstance(node, ast.Call) \
        and isinstance(node.func, (ast.Name, ast.Attribute)) \
        and getattr(node.func, "id", getattr(node.func, "attr", None)) \
        in ("setattr", "__setattr__") \
        and any(isinstance(a, ast.Constant) and a.value in fields
                for a in node.args)


def scoped_matches(tree, match):
    """(enclosing function or "", line) of every node for which match
    holds; a method is named `Class.method`."""
    def visit(node, function, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, function, f"{prefix}{child.name}.")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, prefix + child.name, "")
                continue
            if match(child):
                yield function, child.lineno
            yield from visit(child, function, prefix)

    yield from visit(tree, "", "")


def laurent_field_bindings(tree):
    """(enclosing function or "", line) of every binding or deletion of
    `<expr>.c` or `<expr>._h`."""
    return scoped_matches(tree, lambda node: binds_field(node, LAURENT_FIELDS))


def test_laurent_field_scan_finds_bindings():
    code = "r.c = {0: 1}\np._h = 0\nx = p.c\nh = p._h\ndel p.c\n" \
           "p.c |= {}\nsetattr(p, 'c', {})\nobject.__setattr__(p, '_h', 0)\n" \
           "p.c[0] = 1\nd.cc = 1\n" \
           "def f(p):\n    p.c, p._h = {}, None\n"
    assert sorted(laurent_field_bindings(ast.parse(code))) == \
        [("", 1), ("", 2), ("", 5), ("", 6), ("", 7), ("", 8),
         ("f", 12), ("f", 12)]


def test_laurent_fields_are_bound_only_by_the_constructor_helper():
    # a small LaurentPoly is one object shared by every holder and every
    # memo entry, so rebinding its `.c` or `._h` anywhere would change them
    # all: `laurent._poly` builds every value, and nothing else binds these
    package = pathlib.Path(tiedbox.__file__).parent
    places = {(path.name, function) for path in sorted(package.glob("*.py"))
              for function, _ in laurent_field_bindings(
                  ast.parse(path.read_text()))}
    assert places == {("laurent.py", "_poly")}


ELEMENT_FIELDS = {"terms", "algebra"}


def element_field_writes(tree):
    """(enclosing function or "", line) of every binding or deletion of
    `<expr>.terms` or `<expr>.algebra`, and of every write into a
    `<expr>.terms` dict: item assignment or deletion, a mutating method
    call, or `add_term(<expr>.terms, ...)`."""
    def is_terms(node):
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    def writes(node):
        if binds_field(node, ELEMENT_FIELDS):
            return True
        if isinstance(node, ast.Subscript):
            return is_terms(node.value) and isinstance(node.ctx, (ast.Store, ast.Del))
        if not isinstance(node, ast.Call):
            return False
        if isinstance(node.func, ast.Attribute):
            return node.func.attr in MUTATORS and is_terms(node.func.value)
        return isinstance(node.func, ast.Name) and node.func.id == "add_term" \
            and bool(node.args) and is_terms(node.args[0])

    return scoped_matches(tree, writes)


def test_element_field_scan_finds_writes():
    code = "r.terms = {}\nr.algebra = a\nt = x.terms\nr.terms[k] = 1\n" \
           "del r.terms[k]\nr.terms.update({})\nadd_term(r.terms, k, v)\n" \
           "add_term(out, k, x.terms[k])\nsetattr(r, 'terms', {})\n" \
           "class A:\n    def __init__(self, a):\n        self.algebra = a\n" \
           "        self.terms[0] = 1\n    def f(self):\n        self.terms = {}\n"
    assert sorted(element_field_writes(ast.parse(code))) == \
        [("", 1), ("", 2), ("", 4), ("", 5), ("", 6), ("", 7), ("", 9),
         ("A.__init__", 12), ("A.__init__", 13), ("A.f", 15)]


def test_element_fields_are_bound_only_by_the_constructor():
    # elements are hashed by their terms and kept in sets and dict keys, and
    # `__init__` alone drops zero coefficients and turns ints into
    # coefficients: every element is built there, and nothing changes one
    package = pathlib.Path(tiedbox.__file__).parent
    places = {(path.name, function) for path in sorted(package.glob("*.py"))
              for function, _ in element_field_writes(ast.parse(path.read_text()))}
    assert places == {("algebras.py", "AlgebraElement.__init__")}


PARTITION_FIELDS = {"size", "_index", "_nblocks", "_hash"}


def partition_field_writes(tree):
    """Line numbers where a field of a SetPartition is written: assignment
    to or deletion of `<expr>.size`, `._index`, `._nblocks` or `._hash`, or an
    item write or mutating method call on `<expr>._index`."""
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
    code = "p._nblocks = 0\np.size += 1\ndel p._index\np._index[1] = 0\n" \
           "p._index.update({})\np._hash = 0\nx = p.blocks\nq = p._index[1]\n" \
           "d.part = p\nh = p._hash\np._nblocks += 1\n"
    assert sorted(partition_field_writes(ast.parse(code))) == [1, 2, 3, 4, 5, 6, 11]


def test_partition_fields_are_written_only_in_setpartitions():
    # the algebras cache joins, actions and straightening steps, and share
    # their results, so a set partition is built once, by setpartitions.py,
    # and never changed
    package = pathlib.Path(tiedbox.__file__).parent
    writes = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
              if path.name != "setpartitions.py"
              for line in partition_field_writes(ast.parse(path.read_text()))]
    assert not writes


LABEL_READERS = {"setpartitions.py", "diagrams.py"}


def label_reads(tree):
    """Line numbers where the labels of a set partition are read: any use
    of `<expr>._index`, `<expr>._nblocks` or `<expr>._from_labels`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                node.attr in {"_index", "_nblocks", "_from_labels"}:
            yield node.lineno


def test_label_scan_finds_reads():
    code = "x = p._index\nk = d._nblocks + 1\nDiagram._from_labels(l)\n" \
        "f = SetPartition._from_labels\nq = p.blocks\n" \
        "r = rep._tensor_index(f)\nbasis_index(a)\nn = p.size\n" \
        "for i in d._index[n:]: pass\n"
    assert sorted(label_reads(ast.parse(code))) == [1, 2, 3, 4, 9]


def test_only_setpartitions_and_diagrams_read_labels():
    # the canonical labels are one encoding, built and read by the two
    # modules that define it; the others go through their builders
    package = pathlib.Path(tiedbox.__file__).parent
    reads = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             if path.name not in LABEL_READERS
             for line in label_reads(ast.parse(path.read_text()))]
    assert not reads
    assert all(any(label_reads(ast.parse((package / name).read_text())))
               for name in LABEL_READERS)


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
