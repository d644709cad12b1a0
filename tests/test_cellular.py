"""Cellular bases: counts, invertible transitions, star and product axioms."""

import pytest

from tiedbox.algebras import HeckeAlgebra, hecke_to_tl, pi2
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
    for n in (2, 3, 4):
        assert star_axiom_check(build(n))["status"] == "pass"


def test_product_axiom_hecke():
    for n in (2, 3, 4):
        report = cell_axiom_check(murphy_hecke(n))
        assert report["status"] == "pass", report


def test_product_axiom_tied_boxed():
    for n in (2, 3, 4):
        report = cell_axiom_check(bh_cellular(n))
        assert report["status"] == "pass", report


def test_product_axiom_tied_boxed_tl():
    for n in (2, 3, 4):
        report = cell_axiom_check(btl_cellular(n))
        assert report["status"] == "pass", report


@pytest.mark.parametrize("n", [2, 3, 4])
def test_product_axiom_tl(n):
    report = cell_axiom_check(tl_cellular(n))
    assert report["status"] == "pass", report


@pytest.mark.parametrize("build, full, project", [
    (tl_cellular, murphy_hecke, hecke_to_tl),
    (btl_cellular, bh_cellular, pi2),
])
def test_projected_basis_is_the_image_of_the_two_column_part(
        build, full, project):
    # reference: build the whole basis, keep the labels with every part at
    # most 2 and project each element
    for n in range(6):
        reference = {(lams, s, t): project(c)
                     for (lams, s, t), c in full(n).elements.items()
                     if all(not lam or lam[0] <= 2 for lam in lams)}
        elements = build(n).elements
        assert list(elements) == list(reference)
        assert elements == reference


def test_tl_basis_makes_no_hecke_product(monkeypatch):
    def fail(*args):
        pytest.fail("a Hecke basis product was made")

    monkeypatch.setattr(HeckeAlgebra, "mul_basis", fail)
    assert len(tl_cellular(5).elements) == 42


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
    axiom = cell_axiom_check(corrupted)
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
    elements[(lam, s, t)] = elements[(lam, s, t)].scale(Q)
    return CellDatum(datum.algebra, elements)


def _hook_tableaux(datum):
    return sorted({s for lam, s, _ in datum.elements if lam == ((2, 1),)})


def test_scaled_diagonal_element_depends_on_s():
    # negative control: c_ss * q is still star-symmetric, but its products
    # with a generator no longer have the coefficients of the other rows
    datum = murphy_hecke(3)
    s = _hook_tableaux(datum)[0]
    corrupted = _scaled(datum, s, s)
    assert star_axiom_check(corrupted)["status"] == "pass"
    report = cell_axiom_check(corrupted)
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
