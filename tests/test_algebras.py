"""Algebra products, embeddings, projections and idempotents."""

from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiedbox import ramified
from tiedbox.algebras import (
    BHAlgebra,
    BTAlgebra,
    BTLAlgebra,
    HeckeAlgebra,
    TLAlgebra,
    hecke_to_tl,
    ideal_span,
    iota1,
    pi2,
    support_partition,
)
from tiedbox.combinatorics import bell, catalan
from tiedbox.diagrams import Diagram, perm_diagram
from tiedbox.laurent import DELTA, ONE, Q, QDIFF, LaurentPoly
from tiedbox.perms import all_perms, compose, inverse
from tiedbox.setpartitions import all_partitions, linear_partitions


def at_one(x):
    """The terms of x at q = 1, where a coefficient is the sum of its
    integer coefficients; the terms that vanish there are dropped."""
    return {key: sum(c.c.values()) for key, c in x.terms.items()
            if sum(c.c.values())}


def test_dimensions():
    for n in (1, 2, 3, 4):
        assert HeckeAlgebra(n).dim() == factorial(n)
        assert TLAlgebra(n).dim() == catalan(n)
        assert BTAlgebra(n).dim() == factorial(n) * bell(n)


def test_hecke_relations():
    h = HeckeAlgebra(3)
    one = h.one()
    g1, g2 = h.gen(1), h.gen(2)
    assert g1 * g2 * g1 == g2 * g1 * g2
    assert g1 * g1 == one + g1.scale(QDIFF)


def test_hecke_specializes_to_symmetric_group():
    h = HeckeAlgebra(3)
    for w in all_perms(3):
        for v in all_perms(3):
            prod = h.basis_element(w) * h.basis_element(v)
            assert at_one(prod) == {compose(w, v): 1}


def test_steinberg_element_coefficients():
    h = HeckeAlgebra(3)
    x = h.steinberg(1, 2)
    coeffs = sorted(str(c) for c in x.terms.values())
    assert len(x.terms) == 6
    assert coeffs == sorted(
        [str(ONE), str(Q), str(Q), str(Q * Q), str(Q * Q), str(Q * Q * Q)])
    assert not hecke_to_tl(x)


def test_tl_relations():
    tl = TLAlgebra(3)
    t1, t2 = tl.hook(1), tl.hook(2)
    assert t1 * t1 == t1.scale(DELTA)
    assert t1 * t2 * t1 == t1
    assert t2 * t1 * t2 == t2


def test_hecke_to_tl_is_a_homomorphism():
    h = HeckeAlgebra(3)
    for w in all_perms(3):
        for v in all_perms(3):
            x, y = h.basis_element(w), h.basis_element(v)
            assert hecke_to_tl(x * y) == hecke_to_tl(x) * hecke_to_tl(y)


def test_tied_algebra_relations():
    bt = BTAlgebra(3)
    e1, e2 = bt.e(1), bt.e(2)
    g1, g2 = bt.g(1), bt.g(2)
    one = bt.one()
    assert e1 * e1 == e1
    assert e1 * e2 == e2 * e1
    assert g1 * g2 * g1 == g2 * g1 * g2
    assert g1 * e1 == e1 * g1
    assert e1 * g2 * g1 == g2 * g1 * e2
    assert e1 * e2 * g2 == e1 * g2 * e1 == g2 * e1 * e2
    assert g1 * g1 == one + (e1 * g1).scale(QDIFF)


def test_tied_algebra_specializes_to_ramified_monoid():
    bt = BTAlgebra(3)
    for k1 in bt.basis():
        for k2 in bt.basis():
            prod = bt.basis_element(k1) * bt.basis_element(k2)
            x = ramified.from_perm_and_ties(k1[1], k1[0])
            y = ramified.from_perm_and_ties(k2[1], k2[0])
            z = x * y
            key = (ramified.tie_partition(z), ramified.perm_of_diagram(z.left))
            assert at_one(prod) == {key: 1}


def test_tie_transport_convention():
    # the diagram of w times a tie e_Q equals e_(Q.act(w^-1)) times w: the
    # rule E_I g_w = g_w E_(I.act(w)) by which BTAlgebra moves ties
    n = 3

    def tie(q_part):
        return Diagram(n, [b + tuple(n + x for x in b) for b in q_part.blocks])

    for w in all_perms(n):
        wd = perm_diagram(w)
        for q_part in all_partitions(n):
            assert wd * tie(q_part) == tie(q_part.act(inverse(w))) * wd


def test_tied_rule_keeps_tied_boxed_keys():
    # BHAlgebra multiplies by the rule of BTAlgebra; that is exact because
    # the rule takes tied-boxed keys only to tied-boxed keys
    for n in range(5):
        keys = set(BHAlgebra(n).basis())
        bt = BTAlgebra(n)
        for a in keys:
            assert bt.star_basis(a)[0] in keys
            for b in keys:
                assert set(bt.mul_basis(a, b)) <= keys


def test_tied_boxed_hecke_relations():
    bh = BHAlgebra(3)
    e1, e2 = bh.e(1), bh.e(2)
    z1, z2 = bh.z(1), bh.z(2)
    assert z1 * z2 * z1 == z2 * z1 * z2
    assert e1 * z1 == z1
    assert e2 * z2 == z2
    assert e1 * z2 == z2 * e1
    assert e2 * z1 == z1 * e2
    assert z1 * z1 == e1 + z1.scale(QDIFF)
    assert z2 * z2 == e2 + z2.scale(QDIFF)


def test_embedding_is_injective():
    bh = BHAlgebra(3)
    images = {}
    for k in bh.basis():
        img = iota1(bh.basis_element(k))
        assert img
        images[k] = img
    assert len({str(sorted(map(str, im.terms.items()))) for im in images.values()}) \
        == len(images)


def test_projection_is_a_homomorphism():
    bh = BHAlgebra(3)
    for k1 in bh.basis():
        for k2 in bh.basis():
            x, y = bh.basis_element(k1), bh.basis_element(k2)
            assert pi2(x * y) == pi2(x) * pi2(y)


def test_projection_kills_steinberg():
    bh = BHAlgebra(3)
    assert not pi2(bh.steinberg(1, 2))


def test_support_partition():
    assert support_partition((2, 1, 3)).blocks == ((1, 2), (3,))


def test_mobius_idempotents_tied_boxed():
    bh = BHAlgebra(3)
    parts = linear_partitions(3)
    idem = {p: bh.mobius_idempotent(p) for p in parts}
    total = bh.zero()
    for p in parts:
        total = total + idem[p]
        assert idem[p] * idem[p] == idem[p]
        for q in parts:
            if p != q:
                assert not idem[p] * idem[q]
        for key in bh.basis():
            x = bh.basis_element(key)
            assert idem[p] * x == x * idem[p]
    assert total == bh.one()


def test_mobius_negative_control():
    # corrupting the Mobius sign destroys orthogonality: the naive sum
    # E_I' = sum_{J >= I} |mu(I, J)| E_J is not orthogonal to the others
    from tiedbox.setpartitions import mobius_linear

    bh = BHAlgebra(3)
    parts = linear_partitions(3)

    def corrupted(i_part):
        out = bh.zero()
        for j in parts:
            if i_part <= j:
                out = out + bh.e_of_partition(j).scale(
                    LaurentPoly({0: abs(mobius_linear(i_part, j))}))
        return out

    bad = {p: corrupted(p) for p in parts}
    assert any(
        bad[p] * bad[q] for p in parts for q in parts if p != q)


def test_ideal_span_of_zero():
    bt = BTAlgebra(2)
    rank, rows, _ = ideal_span(bt, [bt.zero()])
    assert rank == 0 and rows == []


def test_btl_one_and_star():
    btl = BTLAlgebra(3)
    one = btl.one()
    for k in btl.basis():
        x = btl.basis_element(k)
        assert one * x == x == x * one
        assert x.star().star() == x


def test_star_is_an_antihomomorphism():
    for algebra in (HeckeAlgebra(3), BTAlgebra(3), BHAlgebra(3)):
        keys = algebra.basis()
        for k1 in keys[: 12]:
            for k2 in keys[: 12]:
                x, y = algebra.basis_element(k1), algebra.basis_element(k2)
                assert (x * y).star() == y.star() * x.star()


@pytest.mark.parametrize("cls", [HeckeAlgebra, BTAlgebra, BHAlgebra])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_straightened_products_associate_at_n4(cls, data):
    algebra = cls(4)
    keys = st.sampled_from(algebra.basis())
    a, b, c = (algebra.basis_element(data.draw(keys)) for _ in range(3))
    assert (a * b) * c == a * (b * c)
