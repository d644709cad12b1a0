"""Algebra products, embeddings, projections and idempotents."""

from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiedbox import checks, ramified
from tiedbox.algebras import (
    BHAlgebra,
    BTAlgebra,
    BTLAlgebra,
    HeckeAlgebra,
    TLAlgebra,
    _Straightened,
    basis_index,
    coords,
    hecke_to_tl,
    ideal_span,
    iota1,
    pi2,
    support_partition,
)
from tiedbox.combinatorics import bell, catalan, compositions, intervals
from tiedbox.diagrams import JONES_LETTERS, Diagram, boxed_diagram, closure, \
    jones_monoid, letter_elements, over, perm_diagram
from tiedbox.laurent import DELTA, ONE, Q, QDIFF, LaurentPoly, add_term, \
    echelon_insert
from tiedbox.perms import all_perms, compose, identity, inverse
from tiedbox.setpartitions import SetPartition, all_partitions, linear_partitions


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tl_basis_is_cached_in_its_order(n):
    # `multiply --algebra tl` numbers the basis in this order
    basis = TLAlgebra(n).basis()
    assert TLAlgebra(n).basis() is basis is jones_monoid(n)
    gens = [perm_diagram(identity(n))] + letter_elements(JONES_LETTERS, n)
    assert list(basis) == sorted(closure(gens), key=lambda d: d.blocks)


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
            z = ramified.tied_element(k1) * ramified.tied_element(k2)
            assert at_one(prod) == {ramified.tied_key(z): 1}


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
            assert bt.star_key(a) in keys
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


def box_by_box_pi2(x):
    """pi2 block by block: under each linear K >= I, the hecke_to_tl images
    of the components of w on the boxes of K, multiplied out side by side."""
    n = x.algebra.n
    out = {}
    for (i_part, w), c in x.terms.items():
        for k_part in [K for K in linear_partitions(n) if i_part <= K]:
            mu = k_part.to_composition()
            images = [hecke_to_tl(HeckeAlgebra(m).basis_element(
                tuple(w[p - 1] - box.start + 1 for p in box))).terms.items()
                for m, box in zip(mu, intervals(mu))]
            for terms in product(*images):
                add_term(out, (mu, over(*(d for d, _ in terms))),
                         prod((v for _, v in terms), start=c))
    return BTLAlgebra(n).element(out)


def test_projection_is_the_box_by_box_image():
    for n in range(6):
        bh = BHAlgebra(n)
        for key in bh.basis():
            x = bh.basis_element(key)
            assert pi2(x) == box_by_box_pi2(x)


def test_btl_keys_are_the_boxed_jones_monoid():
    # a key (mu, D) is the element (D, b_mu) of BR(J_n), and one is the
    # identity boxed by every composition
    for n in range(6):
        btl = BTLAlgebra(n)
        elements = [ramified.Ramified(d, boxed_diagram(mu))
                    for mu, d in btl.basis()]
        assert len(elements) == len(ramified.br_jones(n))
        assert set(elements) == set(ramified.br_jones(n))
        ident = perm_diagram(identity(n))
        assert btl.one().terms == {(mu, ident): ONE
                                   for mu in compositions(n)}


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


def generated_rank(algebra, gens):
    """The rank of the span reached from one() by right products with
    `gens`, first in, first out; a product enters the queue when it is
    independent of the span reached so far."""
    index = basis_index(algebra)
    rows = []
    queue = [algebra.one()]
    echelon_insert(rows, coords(queue[0], index))
    for x in queue:
        for g in gens:
            y = x * g
            if echelon_insert(rows, coords(y, index)):
                queue.append(y)
    return len(rows)


@pytest.mark.parametrize("cls", [HeckeAlgebra, TLAlgebra, BHAlgebra,
                                 BTLAlgebra])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_generators_generate(cls, n):
    algebra = cls(n)
    assert generated_rank(algebra, algebra.generators()) == algebra.dim()


def test_ties_alone_do_not_generate_the_tied_boxed_hecke_algebra():
    # negative control: the e_i reach the span of the E_I, one per linear
    # partition of {1, 2, 3}
    bh = BHAlgebra(3)
    assert generated_rank(bh, [bh.e(1), bh.e(2)]) == 4 < bh.dim() == 11


def test_btl_one_and_star():
    btl = BTLAlgebra(3)
    one = btl.one()
    for k in btl.basis():
        x = btl.basis_element(k)
        assert one * x == x == x * one
        assert x.star().star() == x


def test_star_is_an_antihomomorphism():
    for algebra in (HeckeAlgebra(3), TLAlgebra(3), BTAlgebra(3),
                    BHAlgebra(3), BTLAlgebra(3)):
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


def test_product_table_survives_the_checks():
    # mul_basis keeps a product table whose dicts every caller shares: after
    # the checks that read it most, each entry is still the straightening
    # made afresh (mul_basis.__wrapped__ would read the cached one)
    checks.check_structure_constants()
    checks.check_quotients()
    straighten = _Straightened._straighten.__wrapped__
    for algebra in (BTAlgebra(3), BHAlgebra(3), HeckeAlgebra(3)):
        keys = algebra.basis()
        for a in keys:
            for b in keys:
                assert algebra.mul_basis(a, b) == \
                    straighten(algebra, *algebra._start(a, b))


@pytest.mark.parametrize("cls", [BTAlgebra, BHAlgebra])
def test_pairs_with_one_start_share_one_straightening(cls):
    algebra = cls(3)
    keys = algebra.basis()
    by_start = {}
    for a in keys:
        for b in keys:
            by_start.setdefault(algebra._start(a, b), []).append(
                algebra.mul_basis(a, b))
    assert len(by_start) < len(keys) ** 2
    for products in by_start.values():
        assert all(p is products[0] for p in products)
    # E_(1,2,3) absorbs every tie of the second factor
    full = (SetPartition.parse("1,2,3", 3), (1, 2, 3))
    a, b = ((SetPartition.parse(t, 3), (2, 1, 3)) for t in ("1,2|3", "1,2,3"))
    assert algebra._start(full, a) == algebra._start(full, b)
    assert algebra.mul_basis(full, a) is algebra.mul_basis(full, b)


def test_products_never_hand_out_a_table_entry():
    for algebra in (BHAlgebra(3), HeckeAlgebra(3)):
        keys = algebra.basis()
        for a in keys:
            for b in keys:
                x, y = algebra.basis_element(a), algebra.basis_element(b)
                assert (x * y).terms is not algebra.mul_basis(a, b)


@pytest.mark.parametrize("other", [None, "x", 1.5, ()])
def test_an_element_is_never_equal_to_a_foreign_value(other):
    x = HeckeAlgebra(2).one()
    assert not x == other and not other == x
    assert x != other and other != x


def test_an_element_equals_an_int_by_its_multiple_of_one():
    h = HeckeAlgebra(2)
    assert h.one() == 1 and h.zero() == 0 and h.one() * 3 == 3
    assert h.one() != 2 and h.gen(1) != 1


def test_sums_and_differences_need_elements_of_one_algebra():
    # an element of another algebra, even one of the same size or a
    # subalgebra's, is refused as in a product; an int is a TypeError, and
    # so is a product with a value that is no coefficient
    pairs = [(HeckeAlgebra(2), HeckeAlgebra(3)), (BHAlgebra(2), BTAlgebra(2)),
             (TLAlgebra(3), HeckeAlgebra(3))]
    for a, b in pairs:
        for x, y in ((a.one(), b.one()), (b.one(), a.one())):
            for op in (x.__add__, x.__sub__, x.__mul__):
                with pytest.raises(ValueError):
                    op(y)
    x = HeckeAlgebra(2).gen(1)
    for other in (1, ONE, None, "x"):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            x - other
        with pytest.raises(TypeError):
            other + x
    for other in (None, "x", 1.5):
        with pytest.raises(TypeError):
            x * other
    assert (x + x) - x == x and x - x == HeckeAlgebra(2).zero()
