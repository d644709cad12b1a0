"""Diagram monoids: concatenation, closures, boxed elements."""

import random

from tiedbox import diagrams
from tiedbox.combinatorics import catalan, compositions, double_factorial_odd
from tiedbox.diagrams import (
    BRAUER_LETTERS,
    BudgetExceeded,
    Diagram,
    _froidure_pin,
    closure,
    concat,
    boxed_composition,
    boxed_diagram,
    brauer_monoid,
    hook,
    is_boxed,
    jones_monoid,
    letter_elements,
    over,
    partition_monoid,
    perm_diagram,
    tie,
)
from tiedbox.perms import all_perms, compose, identity
from tiedbox.ramified import Ramified, br_symmetric, evaluate_normal_form, \
    generators, r_symmetric, ramified_identity, \
    from_perm_and_ties, normal_form_brbr
from tiedbox.setpartitions import SetPartition, all_partitions


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


def test_brauer_monoid_on_six_strands():
    assert len(brauer_monoid(6)) == double_factorial_odd(6) == 10395


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


def test_over_of_one_diagram_is_the_diagram():
    # over(d, over()) rebuilds d from its labels, beside the empty diagram
    for d in brauer_monoid(3):
        assert over(d) is d
        rebuilt = over(d, over())
        assert rebuilt is not d and rebuilt == d and type(rebuilt) is Diagram


def breadth_first_closure(gens):
    """The closure as a breadth-first search: every element found times
    every generator, one budget step per product."""
    gens = list(gens)
    seen = dict.fromkeys(gens)
    frontier = list(seen)
    steps = 0
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                steps += 1
                if steps > diagrams.BUDGET:
                    raise BudgetExceeded("closure budget exhausted")
                y = x * g
                if y not in seen:
                    seen[y] = None
                    new.append(y)
        frontier = new
    return list(seen)


def brauer_generators(n):
    """The generators of `brauer_monoid(n)`, in its order."""
    return [perm_diagram(identity(n))] + letter_elements(BRAUER_LETTERS, n)


def test_closure_is_the_breadth_first_closure(monkeypatch):
    # the same list in the same order, and over the same budget at the same
    # (element, generator) step: the steps of the whole closure are its
    # size times the number of generators, repeats included
    rng = random.Random(5)
    pools = [(brauer_monoid(3), perm_diagram(identity(3))),
             (r_symmetric(3), ramified_identity(3)),
             (all_partitions(4), SetPartition.singletons(4))]
    for pool, one in pools:
        for _ in range(40):
            gens = rng.choices(pool, k=rng.randrange(6))
            gens += rng.choice([[], [one], gens[:1]])
            rng.shuffle(gens)
            expected = breadth_first_closure(gens)
            assert closure(gens) == expected
            steps = len(expected) * len(gens)
            for budget in (max(steps - 1, 0), rng.randrange(steps + 1), steps):
                monkeypatch.setattr(diagrams, "BUDGET", budget)
                raised = []
                for enumerate_ in (breadth_first_closure, closure):
                    try:
                        assert enumerate_(gens) == expected
                        raised.append(False)
                    except BudgetExceeded:
                        raised.append(True)
                assert raised == [budget < steps] * 2
            monkeypatch.undo()


def test_closure_leaves_the_cached_product_alone():
    # a closure makes each product once; caching them would keep them all
    info = diagrams.times.cache_info()
    assert len(closure(brauer_generators(3))) == 15
    assert diagrams.times.cache_info() == info


def test_cayley_graphs_are_the_products():
    # a wrong rule for a derived product may still list every element
    # once; each graph entry is checked against its product here
    zgens = [ramified_identity(3)] + generators(br_symmetric, 3)
    for gens, family in ((brauer_generators(3), brauer_monoid(3)),
                         (zgens, br_symmetric(3))):
        elements, right, left = _froidure_pin(gens)
        assert set(elements) == set(family)
        assert len(right) == len(left) == len(elements)
        for x, row, column in zip(elements, right, left):
            assert [elements[j] for j in row] == [x * g for g in gens]
            assert [elements[j] for j in column] == [g * x for g in gens]


def test_closure_makes_one_product_per_new_element_or_relation(monkeypatch):
    # a breadth-first search takes 945 * 9 = 8,505 products for Br_5
    products = []

    def counted(multiply):
        def product(x, y):
            products.append(None)
            return multiply(x, y)
        return product

    monkeypatch.setattr(diagrams, "concat", counted(concat))
    assert len(closure(brauer_generators(5))) == 945
    assert len(products) == 1350
    # the single ties of 4 points under join: e12 * e13 == e12 * e23 is new
    # at (e12, e13), so e34 e12 * e23 is read, not multiplied
    products.clear()
    monkeypatch.setattr(SetPartition, "__mul__", counted(SetPartition.join))
    ties = [SetPartition([pair], 4) for pair in
            ((3, 4), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4))]
    assert len(closure(ties)) == 14
    assert len(products) == 41
