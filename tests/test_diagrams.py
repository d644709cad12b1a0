"""Diagram monoids: concatenation, closures, boxed elements."""

import random

from tiedbox.combinatorics import catalan, compositions, double_factorial_odd
from tiedbox.diagrams import (
    Diagram,
    concat,
    boxed_composition,
    boxed_diagram,
    brauer_monoid,
    hook,
    is_boxed,
    jones_monoid,
    over,
    partition_monoid,
    perm_diagram,
    tie,
)
from tiedbox.perms import all_perms, compose
from tiedbox.ramified import Ramified, evaluate_normal_form, \
    from_perm_and_ties, normal_form_brbr
from tiedbox.setpartitions import SetPartition


def test_partition_monoid_sizes():
    # |P_n| = bell(2n): 2, 15, 203
    assert len(partition_monoid(1)) == 2
    assert len(partition_monoid(2)) == 15
    assert len(partition_monoid(3)) == 203


def test_brauer_and_jones_sizes():
    for n in range(1, 6):
        assert len(brauer_monoid(n)) == double_factorial_odd(n)
    for n in range(1, 7):
        assert len(jones_monoid(n)) == catalan(n)


def test_jones_inside_brauer_inside_partition():
    jones = set(jones_monoid(3))
    brauer = set(brauer_monoid(3))
    assert jones <= brauer <= set(partition_monoid(3))


def test_perm_diagrams_multiply_like_permutations():
    for w in all_perms(3):
        for v in all_perms(3):
            assert perm_diagram(w) * perm_diagram(v) == \
                perm_diagram(compose(w, v))


def test_hook_relations():
    n = 4
    for i in (1, 2, 3):
        t = hook(n, i)
        d, loops = concat(t, t)
        assert d == t and loops == 1  # t_i t_i closes one loop
    t1, t2 = hook(n, 1), hook(n, 2)
    assert t1 * t2 * t1 == t1
    assert t2 * t1 * t2 == t2


def test_associativity_random_triples():
    rng = random.Random(7)
    elements = partition_monoid(3)
    for _ in range(200):
        a, b, c = (rng.choice(elements) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_flip_is_an_antihomomorphism():
    rng = random.Random(11)
    elements = brauer_monoid(4)
    for _ in range(100):
        a, b = rng.choice(elements), rng.choice(elements)
        assert (a * b).flip() == b.flip() * a.flip()


def test_boxed_diagrams():
    for n in range(1, 6):
        boxed = {boxed_diagram(mu) for mu in compositions(n)}
        assert len(boxed) == 2 ** (n - 1)
        for mu in compositions(n):
            d = boxed_diagram(mu)
            assert is_boxed(d)
            assert boxed_composition(d) == mu
            assert d * d == d  # boxed diagrams are idempotent


def test_parse_str_roundtrip():
    for d in brauer_monoid(3):
        assert Diagram.parse(str(d)) == d


def test_every_builder_returns_a_diagram():
    # the inherited join, act and restrict return plain set partitions, whose
    # `*` is join, so every diagram builder must return the class Diagram
    d, w = hook(3, 1), perm_diagram((2, 3, 1))
    x = Ramified.parse("3; 1,5|2,4|3,6 ; 1,2,4,5|3,6")
    y = from_perm_and_ties((2, 3, 1), SetPartition.parse("1,3|2", 3))
    built = [concat(d, w)[0], d * w, over(d, w), over(), w, d.flip(), d,
             tie(3, 1, 3), boxed_diagram((2, 1)), Diagram.parse(str(d)),
             x.left, x.right, y.left, y.right, *partition_monoid(2),
             *jones_monoid(3), *brauer_monoid(3)]
    assert {type(b) for b in built} == {Diagram}
    # normal_form_brbr factors the restriction of x.left to each box (2, 1)
    # as a diagram
    assert evaluate_normal_form(normal_form_brbr(x)) == x


def test_a_diagram_is_not_its_set_partition():
    # the same labels, but different monoids under `*`: the swap squares
    # to the identity, and a join to itself
    d = perm_diagram((2, 1))
    p = SetPartition(d.blocks, d.size)
    assert d._index == p._index and hash(d) == hash(p)
    assert d != p and p != d
    assert not d == p and not p == d
    assert len({d, p}) == 2 and len({p, d}) == 2
    assert d * d == perm_diagram((1, 2)) and p * p == p


def test_a_diagram_has_no_dict():
    assert not hasattr(hook(2, 1), "__dict__")
