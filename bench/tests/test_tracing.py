"""The traced run's counts repeat exactly and agree with cProfile call counts
taken at the commit that introduced the benchmark.

    python3 -m pytest bench/tests

Each traced repetition runs in a fresh interpreter, as in the benchmark; the
whole module takes about a minute and a half.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

# cProfile call counts of the untraced program.  Layers a workload never
# reaches must read 0.
REFERENCE = {
    "verify-quick": {
        "laurent.matrix_rank.count": 12,
        "laurent.echelon_insert.count": 900,
        "laurent.poly_gcd.count": 73_612,
        "presentations.kb_complete.count": 9,
        "algebras.BTAlgebra.mul_basis.count": 6_470,
    },
    "verify-full": {
        "presentations.kb_complete.count": 13,
        "tensorrep.mat_mul.count": 3_054,
        "algebras.BTAlgebra.mul_basis.count": 35_414,
    },
    "rewrite-scale": {
        "presentations.kb_complete.count": 4,
        "presentations.kb_complete.incomplete": 0,
        "laurent.poly_gcd.count": 0,
        "laurent.frac_new.count": 0,
        "algebras.mul_basis.count": 0,
        "tensorrep.mat_mul.count": 0,
    },
}


def traced_counts(workload, seed):
    rep = run.spawn(workload, seed, "--trace")
    assert rep is not None, f"traced {workload} repetition failed"
    assert rep["failed"] == 0, rep["reasons"]
    return {k: v for k, v in rep["layers"].items() if isinstance(v, int)}


@pytest.mark.parametrize("workload", list(REFERENCE))
def test_traced_counts_repeat_and_match_reference(workload):
    first = traced_counts(workload, seed=0)
    second = traced_counts(workload, seed=1)
    assert first == second
    for name, want in REFERENCE[workload].items():
        assert first[name] == want, name


def test_every_per_layer_metric_is_reported():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    rep = run.spawn("rewrite-scale", 0, "--trace")
    computed = set(rep["layers"]) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= computed
