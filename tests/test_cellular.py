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
from tiedbox.laurent import Q, matrix_rank


@pytest.mark.parametrize("build", [murphy_hecke, bh_cellular, btl_cellular,
                                   tl_cellular])
def test_counts_match_dimension(build):
    for n in (2, 3, 4):
        datum = build(n)
        assert len(datum.elements) == datum.algebra.dim()


@pytest.mark.parametrize("build", [murphy_hecke, bh_cellular, btl_cellular,
                                   tl_cellular])
def test_transition_full_rank(build):
    for n in (2, 3):
        datum = build(n)
        mat, _, _ = transition_matrix(datum)
        assert matrix_rank(mat, mode="exact") == len(datum.elements)


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
    elements = dict(datum.elements)
    # overwrite the first element of the last label with something from a
    # lower layer
    lam = list(elements)[-1][0]
    first = next(tri for tri in elements if tri[0] == lam)
    elements[first] = h.gen(1)
    corrupted = CellDatum(h, elements)
    gens = [h.gen(i) for i in (1, 2)]
    axiom = cell_axiom_check(corrupted, gens)
    mat, _, _ = transition_matrix(corrupted)
    rank_drop = matrix_rank(mat, mode="exact") < len(corrupted.elements)
    assert axiom["status"] == "fail" or rank_drop
    if axiom["status"] == "fail":
        assert axiom.get("witness")


def test_cell_order_is_strict():
    for lam, _, _ in bh_cellular(3).elements:
        assert not _multi_greater(lam, lam)


def _scaled(datum, s, t):
    """`datum` with c_st multiplied by q (the hook label of H(S_3))."""
    lam = ((2, 1),)
    elements = dict(datum.elements)
    elements[(lam, s, t)] = elements[(lam, s, t)] * Q
    return CellDatum(datum.algebra, elements)


def _hook_tableaux(datum):
    return sorted({s for lam, s, _ in datum.elements if lam == ((2, 1),)})


def test_scaled_diagonal_element_depends_on_s():
    # negative control: c_ss * q is still star-symmetric, but its products
    # with a generator no longer have the coefficients of the other rows
    datum = murphy_hecke(3)
    s = _hook_tableaux(datum)[0]
    corrupted = _scaled(datum, s, s)
    gens = [datum.algebra.gen(i) for i in (1, 2)]
    assert star_axiom_check(corrupted)["status"] == "pass"
    report = cell_axiom_check(corrupted, gens)
    assert report["status"] == "fail"
    assert report["witness"]["reason"] == "coefficients depend on s"


def test_scaled_off_diagonal_element_breaks_star():
    # negative control: c_st * q is no longer star(c_ts), and the check
    # names both (lam, s, t) and (lam, t, s)
    datum = murphy_hecke(3)
    s, t = _hook_tableaux(datum)
    report = star_axiom_check(_scaled(datum, s, t))
    lam = ((2, 1),)
    assert report["status"] == "fail"
    assert sorted(report["failures"]) == sorted([(lam, s, t), (lam, t, s)])
