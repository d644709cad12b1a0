"""Cellular bases: counts, invertible transitions, star and product axioms."""

import pytest

from tiedbox.algebras import BHAlgebra, pi2
from tiedbox.cellular import (
    CellDatum,
    _multi_greater,
    bh_cellular,
    btl_cellular,
    cell_axiom_check,
    murphy_hecke,
    star_axiom_check,
    tl_cellular,
    transition_matrix,
)
from tiedbox.laurent import matrix_rank


@pytest.mark.parametrize("build", [murphy_hecke, bh_cellular, btl_cellular,
                                   tl_cellular])
def test_counts_match_dimension(build):
    for n in (2, 3, 4):
        datum = build(n)
        assert datum.size() == datum.algebra.dim()


@pytest.mark.parametrize("build", [murphy_hecke, bh_cellular, btl_cellular,
                                   tl_cellular])
def test_transition_full_rank(build):
    for n in (2, 3):
        datum = build(n)
        mat, _, _ = transition_matrix(datum)
        assert matrix_rank(mat, mode="exact") == datum.size()


@pytest.mark.parametrize("build", [murphy_hecke, bh_cellular, btl_cellular,
                                   tl_cellular])
def test_star_axiom(build):
    for n in (2, 3):
        assert star_axiom_check(build(n))["status"] == "pass"


def test_product_axiom_hecke():
    for n in (2, 3):
        datum = murphy_hecke(n)
        gens = [datum.algebra.gen(i) for i in range(1, n)]
        report = cell_axiom_check(datum, gens)
        assert report["status"] == "pass", report


def test_product_axiom_tied_boxed():
    for n in (2, 3):
        datum = bh_cellular(n)
        bh = datum.algebra
        gens = [bh.e(i) for i in range(1, n)] + [bh.z(i) for i in range(1, n)]
        report = cell_axiom_check(datum, gens)
        assert report["status"] == "pass", report


def test_product_axiom_tied_boxed_tl():
    for n in (2, 3):
        datum = btl_cellular(n)
        bh = BHAlgebra(n)
        gens = [pi2(bh.e(i)) for i in range(1, n)] + \
            [pi2(bh.d(i)) for i in range(1, n)]
        report = cell_axiom_check(datum, gens)
        assert report["status"] == "pass", report


def test_corrupted_basis_fails_with_witness():
    # negative control: swapping one cellular basis element for a basis
    # element of the algebra breaks either the transition or the axiom check
    datum = murphy_hecke(3)
    h = datum.algebra
    labels = list(datum.labels)
    elements = dict(datum.elements)
    # overwrite the top-label element with something from a lower layer
    triples = datum.triples()
    s, t = None, None
    lam = labels[-1]
    for (mu, a, b) in triples:
        if mu == lam:
            s, t = a, b
            break
    elements[(lam, s, t)] = h.gen(1)
    corrupted = CellDatum(h, labels, datum.tableaux, elements)
    gens = [h.gen(i) for i in (1, 2)]
    axiom = cell_axiom_check(corrupted, gens)
    mat, _, _ = transition_matrix(corrupted)
    rank_drop = matrix_rank(mat, mode="exact") < corrupted.size()
    assert axiom["status"] == "fail" or rank_drop
    if axiom["status"] == "fail":
        assert axiom.get("witness")


def test_cell_order_is_strict():
    datum = bh_cellular(3)
    for lam in datum.labels:
        assert not _multi_greater(lam, lam)
