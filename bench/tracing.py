"""Per-layer tracing of tiedbox from outside the package.

`install` wraps the public functions at each layer boundary and rebinds
every name under which tiedbox looks them up: the definition, every module
global that holds the same function (names imported into other modules),
class attributes for methods, and the suite table `checks.ALL_CHECKS`.
Nothing under `src/` is edited; the wrappers exist only in the traced
interpreter.

A span times a call.  Its self time is its duration minus the time of the
spans it encloses.  Hot calls (`LaurentFrac` normalisations, set-partition
joins and actions) get plain counters, so their time stays with the
enclosing span.  Everything is kept in memory; `Tracer.metrics` turns it
into the per-layer metrics of one run.
"""

import importlib
import sys
import time
from collections import Counter, defaultdict

# Functions timed as spans: (span name, "module:attribute path").
SPANS = [
    ("laurent.poly_gcd", "tiedbox.laurent:poly_gcd"),
    ("laurent.matrix_rank", "tiedbox.laurent:matrix_rank"),
    ("laurent.matrix_rank.exact", "tiedbox.laurent:_rank_exact"),
    ("laurent.matrix_rank.modular", "tiedbox.laurent:_rank_modular"),
    ("algebras.ideal_span", "tiedbox.algebras:ideal_span"),
    ("algebras.reduce_against", "tiedbox.algebras:reduce_against"),
    ("tensorrep.mat_mul", "tiedbox.tensorrep:mat_mul"),
    ("tensorrep.rho_bt", "tiedbox.tensorrep:TensorRep.rho_bt"),
    ("diagrams.concat", "tiedbox.diagrams:concat"),
    ("diagrams.closure", "tiedbox.diagrams:closure"),
    ("presentations.presentation_check", "tiedbox.presentations:presentation_check"),
    ("presentations.normal_forms", "tiedbox.presentations:normal_forms"),
    ("cellular.transition_matrix", "tiedbox.cellular:transition_matrix"),
    ("cellular.cell_axiom_check", "tiedbox.cellular:cell_axiom_check"),
]

# Spans that also record what their calls produced (see the Tracer methods).
ECHELON_INSERT = ("laurent.echelon_insert", "tiedbox.laurent:echelon_insert")
KB_COMPLETE = ("presentations.kb_complete", "tiedbox.presentations:kb_complete")
MUL_BASIS = "algebras.mul_basis"
ALGEBRAS = ["HeckeAlgebra", "TLAlgebra", "BTAlgebra", "BHAlgebra", "BTLAlgebra"]

# Hot calls that are only counted: (counter name, "module:attribute path").
COUNTERS = [
    ("laurent.frac_new", "tiedbox.laurent:LaurentFrac.__init__"),
    ("setpartitions.join", "tiedbox.setpartitions:SetPartition.join"),
    ("setpartitions.act", "tiedbox.setpartitions:SetPartition.act"),
]

class Tracer:
    """Counts, inclusive times and self times of named spans, and counters."""

    def __init__(self):
        self.reset()

    def reset(self):
        """Forget everything recorded so far, e.g. while inputs were built."""
        self.counts = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.products = set()
        # Self time of outermost spans (the suites of a verify run, each
        # `presentation_check` of rewrite-scale): they cover the whole run,
        # so coverage leaves them out.
        self.root_self_s = 0.0
        self._stack = []

    def span(self, name, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack
            self.counts[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = stack.pop()
                self.total_s[name] += duration
                self.self_s[name] += duration - inner
                if stack:
                    stack[-1] += duration
                else:
                    self.root_self_s += duration - inner

        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def echelon_insert(self, fn):
        name = ECHELON_INSERT[0]
        timed = self.span(name, fn)

        def wrapper(basis, row):
            inserted = timed(basis, row)
            if inserted:
                self.counts[f"{name}.inserted"] += 1
            return inserted

        return wrapper

    def kb_complete(self, fn):
        name = KB_COMPLETE[0]
        timed = self.span(name, fn)

        def wrapper(*args, **kwargs):
            system = timed(*args, **kwargs)
            self.counts[f"{name}.rules"] += len(system.rules)
            if not system.complete:
                self.counts[f"{name}.incomplete"] += 1
            return system

        return wrapper

    def mul_basis(self, cls, fn):
        timed = self.span(MUL_BASIS, fn)
        per_class = f"algebras.{cls}.mul_basis"

        def wrapper(algebra, key1, key2):
            self.counts[per_class] += 1
            self.products.add((algebra, key1, key2))
            return timed(algebra, key1, key2)

        return wrapper

    def metrics(self, suites, wall_s):
        """Every per-layer value of one run; layers never reached read 0."""
        counts, own = self.counts, self.self_s
        out = {}
        for name in [n for n, _ in SPANS] + [ECHELON_INSERT[0], KB_COMPLETE[0], MUL_BASIS]:
            out[f"{name}.count"] = counts[name]
            out[f"{name}.self_s"] = own[name]
        for name, _ in COUNTERS:
            out[f"{name}.count"] = counts[name]
        for cls in ALGEBRAS:
            out[f"algebras.{cls}.mul_basis.count"] = counts[f"algebras.{cls}.mul_basis"]
        for suite in suites:
            out[f"checks.{suite}.wall_s"] = self.total_s[f"checks.{suite}"]
        name = ECHELON_INSERT[0]
        out[f"{name}.useful_ratio"] = _ratio(counts[f"{name}.inserted"], counts[name])
        out[f"{MUL_BASIS}.distinct_ratio"] = _ratio(len(self.products), counts[MUL_BASIS])
        name = KB_COMPLETE[0]
        out[f"{name}.rules"] = counts[f"{name}.rules"]
        out[f"{name}.incomplete"] = counts[f"{name}.incomplete"]
        covered = sum(own.values()) - self.root_self_s
        out["trace.coverage"] = _ratio(covered, wall_s)
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _rebind(target, make_wrapper):
    """Replace the function named by `target` by `make_wrapper(function)` at
    its definition and under every tiedbox module global that holds it."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    setattr(owner, attr, wrapper)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "tiedbox":
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


def install(tracer):
    """Wrap every traced layer boundary of tiedbox; returns the suite names."""
    # The CLI imports every module, so every imported name gets rebound.
    importlib.import_module("tiedbox.cli")
    for name, target in SPANS:
        _rebind(target, lambda fn, name=name: tracer.span(name, fn))
    for name, target in COUNTERS:
        _rebind(target, lambda fn, name=name: tracer.counter(name, fn))
    _rebind(ECHELON_INSERT[1], tracer.echelon_insert)
    _rebind(KB_COMPLETE[1], tracer.kb_complete)
    for cls in ALGEBRAS:
        _rebind(f"tiedbox.algebras:{cls}.mul_basis",
                lambda fn, cls=cls: tracer.mul_basis(cls, fn))
    checks = importlib.import_module("tiedbox.checks")
    for suite, fn in list(checks.ALL_CHECKS.items()):
        checks.ALL_CHECKS[suite] = tracer.span(f"checks.{suite}", fn)
    return list(checks.ALL_CHECKS)
