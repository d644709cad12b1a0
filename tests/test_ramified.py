"""Ramified partitions: families, generation, normal forms, centers."""

import random
from itertools import product

import pytest

from tiedbox import perms, ramified
from tiedbox.algebras import BHAlgebra, BTAlgebra, BTLAlgebra
from tiedbox.combinatorics import bell, compositions, intervals
from tiedbox.diagrams import (Diagram, boxed_diagram, brauer_monoid, closure,
                              hook, jones_monoid, letter_elements,
                              JONES_LETTERS, over, partition_monoid,
                              perm_diagram)
from tiedbox.ramified import (
    Ramified,
    _brauer_factorization,
    boxed_element,
    br_brauer,
    br_jones,
    br_partition,
    br_jones_keys,
    br_symmetric,
    br_symmetric_keys,
    brs_from_word,
    center,
    evaluate_normal_form,
    gen_e,
    gen_e_boxes,
    gen_z,
    generators,
    normal_form_brbr,
    normal_form_brs,
    normal_form_srs,
    r_symmetric,
    r_symmetric_keys,
    ramified_identity,
    sr_symmetric,
    srs_from_word,
    tied_element,
    tied_key,
)
from tiedbox.setpartitions import all_partitions, linear_partitions


def test_family_cardinalities():
    assert [len(br_symmetric(n)) for n in (1, 2, 3, 4)] == [1, 3, 11, 47]
    assert [len(br_jones(n)) for n in (1, 2, 3, 4)] == [1, 3, 10, 35]
    assert [len(br_brauer(n)) for n in (1, 2, 3)] == [1, 4, 22]
    assert len(sr_symmetric(3)) == 24


def test_ramified_symmetric_size():
    # pairs (permutation, tie partition): n! * bell(n)
    import math

    for n in (1, 2, 3):
        assert len(r_symmetric(n)) == math.factorial(n) * bell(n)


def test_singular_part_size_formula():
    import math

    # the singular ramified elements: n! * (bell(n) - 1)
    for n in (2, 3):
        assert len(sr_symmetric(n)) == math.factorial(n) * (bell(n) - 1)


def test_refinement_invariant_enforced():
    from tiedbox.diagrams import perm_diagram

    swap = perm_diagram((2, 1))
    ident = perm_diagram((1, 2))
    with pytest.raises(ValueError):
        Ramified(swap, ident)


def test_generators_generate():
    n = 3
    gens = generators(r_symmetric, n)
    assert set(closure(gens)) == set(r_symmetric(n))
    # z_i = e_i s_i generate the boxed family as a monoid
    zgens = [ramified_identity(n)] + [gen_z(n, i) for i in (1, 2)]
    assert set(closure(zgens)) == set(br_symmetric(n))


def test_associativity_random():
    rng = random.Random(3)
    elements = br_brauer(3)
    for _ in range(150):
        a, b, c = (rng.choice(elements) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_normal_form_boxed_symmetric():
    for n in (1, 2, 3, 4):
        seen = set()
        for el in br_symmetric(n):
            nf = normal_form_brs(el)
            key = (nf["e_boxes"], nf["z_word"])
            assert key not in seen
            seen.add(key)
            assert evaluate_normal_form(nf) == el


def test_normal_form_singular():
    seen = set()
    for el in sr_symmetric(3):
        nf = normal_form_srs(el)
        key = (nf["e_pairs"], nf["z_pairs"])
        assert key not in seen
        seen.add(key)
        assert evaluate_normal_form(nf) == el


def test_normal_form_boxed_brauer():
    seen = set()
    for el in br_brauer(3):
        nf = normal_form_brbr(el)
        key = (nf["e_boxes"], nf["z_word"], nf["d_word"], nf["z_word_2"])
        assert key not in seen
        seen.add(key)
        assert evaluate_normal_form(nf) == el


def reference_brauer_factorizations(n):
    """The canonical s * t_1 t_3 ... t_(2k-1) * s' of every Brauer diagram
    on n strands, by trying every pair (s, s') of permutations for every k."""
    best = {}
    for k in range(n // 2 + 1):
        hooks = perm_diagram(perms.identity(n))
        for m in range(k):
            hooks = hooks * hook(n, 2 * m + 1)
        for s in perms.all_perms(n):
            top = perm_diagram(s) * hooks
            for s2 in perms.all_perms(n):
                d = top * perm_diagram(s2)
                key = (perms.length(s) + perms.length(s2),
                       perms.lex_least_word(s), perms.lex_least_word(s2))
                if d not in best or key < best[d][0]:
                    best[d] = (key, (s, k, s2))
    return {d: factors for d, (_, factors) in best.items()}


@pytest.mark.parametrize("n", range(5))
def test_brauer_factorization_matches_the_exhaustive_search(n):
    reference = reference_brauer_factorizations(n)
    assert set(reference) == set(brauer_monoid(n))
    for d in brauer_monoid(n):
        assert _brauer_factorization(d) == reference[d]


def test_worked_example_boxed_word():
    # a fully boxed element written with the word s2 s1 s3 s2 s3 keeps
    # exactly that word over the z generators
    x, nf = brs_from_word(4, (4,), (2, 1, 3, 2, 3))
    assert nf["e_boxes"] == (4,)
    assert nf["z_word"] == (2, 1, 3, 2, 3)
    assert evaluate_normal_form(nf) == x


def test_boxed_word_needs_a_composition_of_n():
    for word in ((), (1,)):
        with pytest.raises(ValueError):
            brs_from_word(4, (2, 1), word)


def test_worked_example_singular_word():
    # ties {1,2},{2,4} with the word s3 s1 s2 s1 folds the first tie into
    # decorated pair generators and keeps the second
    x, nf = srs_from_word(4, ((1, 2), (2, 4)), (3, 1, 2, 1))
    assert nf["e_pairs"] == ((2, 4),)
    assert nf["z_pairs"] == ((3, 1, 2), (1, 1, 2), (2, 1, 2), (1, 1, 3))
    assert evaluate_normal_form(nf) == x


@pytest.mark.parametrize("family", [
    jones_monoid, brauer_monoid, r_symmetric, sr_symmetric, br_symmetric,
    br_jones, br_brauer])
def test_each_generator_list_generates_its_family(family):
    # with the identity; sR(S_n) has none and is generated as a semigroup
    for n in range(5):
        d = perm_diagram(perms.identity(n))
        one = {jones_monoid: [d], brauer_monoid: [d],
               sr_symmetric: []}.get(family, [Ramified(d, d)])
        assert set(closure(one + generators(family, n))) == set(family(n))


def test_a_family_without_a_list_is_generated_by_its_elements():
    for family in (partition_monoid, br_partition):
        assert list(generators(family, 2)) == list(family(2))


def test_center_of_ramified_symmetric():
    for n in (3, 4):
        z = center(r_symmetric(n), generators(r_symmetric, n))
        assert z == center(r_symmetric(n), r_symmetric(n))
        ident = ramified_identity(n)
        full = ident
        for i in range(1, n):
            full = full * gen_e(n, i)
        assert set(z) == {ident, full}


def test_ties_alone_give_a_larger_center():
    # the e_i do not generate R(S_3): the full tie commutes with them
    # whatever its permutation
    ties = [gen_e(3, i) for i in (1, 2)]
    assert len(center(r_symmetric(3), ties)) > 2


def _tied_in_boxes(n, mu):
    """The product of the e_i inside each box of mu, from the identity."""
    out = ramified_identity(n)
    for box in intervals(mu):
        for i in box[:-1]:
            out = out * gen_e(n, i)
    return out


def test_center_of_boxed_symmetric():
    for n in (3, 4):
        z = set(center(br_symmetric(n), generators(br_symmetric, n)))
        assert z == set(center(br_symmetric(n), br_symmetric(n)))
        assert len(z) == 2 ** (n - 1)
        assert z == {_tied_in_boxes(n, mu) for mu in compositions(n)}


def test_gen_e_boxes_is_the_product_of_ties_in_each_box():
    for n in range(5):
        for mu in compositions(n):
            assert gen_e_boxes(mu) == _tied_in_boxes(n, mu)


def test_str_parse_roundtrip():
    for el in br_brauer(3):
        assert Ramified.parse(str(el)) == el


def test_equality_with_a_foreign_operand_is_false():
    from tiedbox.diagrams import perm_diagram
    from tiedbox.setpartitions import SetPartition

    values = [SetPartition([(1, 2)]), perm_diagram((2, 1)), gen_z(2, 1)]
    for v in values:
        assert not v == None  # noqa: E711 -- the comparison under test
        assert v != None  # noqa: E711
        assert v not in [None, 3, "1,2"]
        assert v.__eq__(None) is NotImplemented
        assert [w for w in values if w == v] == [v]


def test_boxed_family_builds_each_block_list_once(monkeypatch):
    sizes = []

    def block_family(m):
        sizes.append(m)
        return partition_monoid(m)

    monkeypatch.setattr(ramified, "partition_monoid", block_family)
    family = br_partition(3)
    assert sizes == [1, 2, 3]
    # a reference that builds one block list per part of every composition
    reference = [Ramified(over(*ds), boxed_diagram(mu))
                 for mu in compositions(3)
                 for ds in product(*map(partition_monoid, mu))]
    assert family == tuple(reference)


# ---------------------------------------------------------------------------
# the key lists of the tied families and their codecs, against the
# enumerations that the tied algebras and the monoids made of their own


def reference_bt_keys(n):
    return [(p, w) for p in all_partitions(n) for w in perms.all_perms(n)]


def reference_bh_keys(n):
    out = []
    for p in linear_partitions(n):
        for w in perms.young_subgroup(p.to_composition()):
            out.append((p, w))
    return out


def closure_order_jones(m):
    """J_m in the order of its closure, unsorted."""
    gens = [perm_diagram(perms.identity(m))]
    return closure(gens + letter_elements(JONES_LETTERS, m))


def reference_btl_keys(n):
    tl = {m: sorted(closure_order_jones(m), key=lambda d: d.blocks)
          for m in range(1, n + 1)}
    return [(mu, over(*ds)) for mu in compositions(n)
            for ds in product(*(tl[m] for m in mu))]


def reference_from_perm_and_ties(w, ties):
    labels = ties._index
    below = tuple(labels[v - 1] for v in perms.inverse(w))
    return Ramified(perm_diagram(w), Diagram._from_labels(labels + below))


def reference_r_symmetric(n):
    """w outer, the tie partitions inner."""
    return [reference_from_perm_and_ties(w, ties)
            for w in perms.all_perms(n) for ties in all_partitions(n)]


def reference_boxed_family(n, block_family):
    return [Ramified(over(*ds), boxed_diagram(mu)) for mu in compositions(n)
            for ds in product(*map(block_family, mu))]


def symmetric_diagrams(m):
    return [perm_diagram(w) for w in perms.all_perms(m)]


@pytest.mark.parametrize("keys, algebra, reference, top", [
    (r_symmetric_keys, BTAlgebra, reference_bt_keys, 4),
    (br_symmetric_keys, BHAlgebra, reference_bh_keys, 5),
    (br_jones_keys, BTLAlgebra, reference_btl_keys, 5),
])
def test_key_lists_are_the_tied_algebra_bases(keys, algebra, reference, top):
    for n in range(top + 1):
        assert type(keys(n)) is tuple
        assert keys(n) is keys(n) is algebra(n).basis()
        assert list(keys(n)) == reference(n)


def test_tied_key_inverts_tied_element():
    for keys, top in ((r_symmetric_keys, 4), (br_symmetric_keys, 5)):
        for n in range(top + 1):
            for key in keys(n):
                assert tied_key(tied_element(key)) == key


@pytest.mark.parametrize("family, reference, top", [
    (r_symmetric, reference_r_symmetric, 4),
    (br_symmetric, lambda n: reference_boxed_family(n, symmetric_diagrams), 5),
    (br_jones, lambda n: reference_boxed_family(n, closure_order_jones), 5),
])
def test_families_are_the_images_of_their_keys(family, reference, top):
    for n in range(top + 1):
        want = reference(n)
        assert len(family(n)) == len(want)
        assert set(family(n)) == set(want)


def test_families_are_built_by_the_codecs():
    for n in range(5):
        assert r_symmetric(n) == tuple(map(tied_element, r_symmetric_keys(n)))
        assert br_jones(n) == tuple(map(boxed_element, br_jones_keys(n)))
        assert [tied_key(x) for x in br_symmetric(n)] == \
            list(br_symmetric_keys(n))


def test_boxed_elements_share_their_boxed_part():
    for n in range(5):
        for family in (br_symmetric, br_jones, br_brauer):
            for x in family(n):
                assert x.right is boxed_diagram(x.right.top().to_composition())
        for (_, d), x in zip(br_jones_keys(n), br_jones(n)):
            assert x.left is d
