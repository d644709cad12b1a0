"""Compositions, partitions, tableaux and counting formulas."""

from itertools import permutations, product
from math import comb, factorial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiedbox.combinatorics import (
    bell,
    bn_alpha,
    catalan,
    composition_join,
    compositions,
    d_of_multitableau,
    dominates,
    double_factorial_odd,
    initial_kind_multitableaux,
    int_partitions,
    intervals,
    multipartitions_of_composition,
    ptl_dim,
    standard_tableaux,
)
from tiedbox.diagrams import boxed_diagram, brauer_monoid, concat, \
    jones_monoid, over
from tiedbox.perms import all_perms, glue, young_subgroup


def bell_oracle(n):
    # independent recurrence: B_{n+1} = sum_k C(n, k) B_k
    b = [1]
    for m in range(n):
        b.append(sum(comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


def catalan_oracle(n):
    # independent recurrence: C_{n+1} = sum C_i C_{n-i}
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


def conjugate(lam):
    """The transposed partition: its i-th part counts the parts of lam
    above i."""
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > i) for i in range(lam[0]))


def hook_length_count(lam):
    # standard tableaux count via the hook-length formula
    lam = tuple(lam)
    conj = conjugate(lam)
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= (row - j) + (conj[j] - i) - 1
    return factorial(sum(lam)) // prod


def test_counting_sequences():
    for n in range(8):
        assert bell(n) == bell_oracle(n)
        assert catalan(n) == catalan_oracle(n)
    assert [double_factorial_odd(n) for n in range(1, 6)] == [1, 3, 15, 105, 945]


def test_compositions_and_partitions():
    for n in range(1, 8):
        assert len(compositions(n)) == 2 ** (n - 1)
    assert len(int_partitions(6)) == 11
    assert all(sum(mu) == 5 for mu in compositions(5))
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)


def test_bn_alpha_sums_to_bell():
    for n in range(1, 8):
        assert sum(bn_alpha(n, alpha) for alpha in int_partitions(n)) == bell(n)


def test_dominance():
    assert dominates((3,), (2, 1))
    assert dominates((2, 1), (1, 1, 1))
    assert not dominates((2, 2), (3, 1))
    assert dominates((2, 2), (2, 2))


def test_standard_tableaux_hook_length():
    for n in range(1, 7):
        for lam in int_partitions(n):
            ts = standard_tableaux(lam)
            assert len(ts) == hook_length_count(lam)
            assert all(is_standard(t, n) for t in ts)
            assert len(set(map(str, ts))) == len(ts)


def is_standard(t, n):
    # entries 1..n, rows increasing left to right, columns top to bottom
    entries = sorted(x for row in t for x in row)
    rows_increase = all(list(row) == sorted(set(row)) for row in t)
    columns_increase = all(
        upper[j] < lower[j] for upper, lower in zip(t, t[1:])
        for j in range(len(lower)))
    return entries == list(range(1, n + 1)) and rows_increase \
        and columns_increase


def test_row_reading_and_d():
    # d maps the row-reading multitableau (1..n along the rows, component
    # by component) entrywise onto ts
    for n in range(6):
        for mu in compositions(n):
            for lams in multipartitions_of_composition(mu):
                row_reading, x = [], 1
                for lam in lams:
                    rows = []
                    for m in lam:
                        rows.append(tuple(range(x, x + m)))
                        x += m
                    row_reading.append(tuple(rows))
                for ts in initial_kind_multitableaux(lams):
                    w = d_of_multitableau(ts)
                    assert sorted(w) == list(range(1, n + 1))
                    assert tuple(tuple(tuple(w[b - 1] for b in row)
                                       for row in t)
                                 for t in row_reading) == ts


def test_multitableaux_counts():
    # multipartition cellular labels reproduce the dimension formula
    for n in range(1, 5):
        total = sum(
            len(initial_kind_multitableaux(lams)) ** 2
            for mu in compositions(n)
            for lams in multipartitions_of_composition(mu)
        )
        expected = sum(
            _prod(factorial(p) for p in mu) for mu in compositions(n))
        assert total == expected


def _prod(vals):
    out = 1
    for v in vals:
        out *= v
    return out


def test_ptl_dimension_small_values():
    assert ptl_dim(1) == 1
    assert ptl_dim(2) == 4
    assert ptl_dim(3) == 29


@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.sampled_from(compositions(n)),
                        st.sampled_from(compositions(n)),
                        st.sampled_from(compositions(n)))))
@example(((), (), ()))
@settings(max_examples=120, deadline=None)
def test_composition_join_is_a_semilattice(mus):
    mu, nu, rho = mus
    assert composition_join(mu, nu) == composition_join(nu, mu)
    assert composition_join(mu, mu) == mu
    assert composition_join(composition_join(mu, nu), rho) == \
        composition_join(mu, composition_join(nu, rho))


# ---------------------------------------------------------------------------
# boxes: the k-th part of a composition is the interval after the parts
# before it, and a boxed object is a tuple of per-box objects with the
# first box most significant


def test_intervals_tile_one_to_n_in_order():
    for n in range(7):
        for mu in compositions(n):
            boxes = intervals(mu)
            assert [x for box in boxes for x in box] == list(range(1, n + 1))
            assert tuple(map(len, boxes)) == mu


def test_glue_puts_each_permutation_on_its_box():
    for n in range(7):
        for mu in compositions(n):
            for ws in product(*map(all_perms, mu)):
                w = glue(ws)
                # w restricted to each box, renumbered to start at 1
                assert [tuple(w[x - 1] - box.start + 1 for x in box)
                        for box in intervals(mu)] == list(ws)


def test_over_puts_boxes_side_by_side():
    for n in range(7):
        for mu in compositions(n):
            assert over(*(boxed_diagram((m,)) for m in mu)) == \
                boxed_diagram(mu)
    # and agrees with the binary product, in either grouping
    ds = [d for m in (1, 2) for d in brauer_monoid(m)]
    for a, b, c in product(ds, repeat=3):
        assert over(a, b, c) == over(over(a, b), c) == over(a, over(b, c))
    assert over() == boxed_diagram(())


def test_stacking_horizontal_products_goes_box_by_box():
    # the lemma behind BTLAlgebra.mul_basis: two diagrams over one
    # composition concatenate box by box, with the loops of all boxes
    for family in (jones_monoid, brauer_monoid):
        for n in range(5):
            for mu in compositions(n):
                for ds in product(*map(family, mu)):
                    for es in product(*map(family, mu)):
                        pieces = [concat(d, e) for d, e in zip(ds, es)]
                        assert concat(over(*ds), over(*es)) == (
                            over(*(d for d, _ in pieces)),
                            sum(loops for _, loops in pieces))


def _young_reference(mu):
    out, start = [()], 0
    for m in mu:
        block = list(permutations(range(start + 1, start + m + 1)))
        out = [w + b for w in out for b in block]
        start += m
    return out


def _multipartitions_reference(mu):
    out = [()]
    for m in mu:
        out = [t + (lam,) for t in out for lam in int_partitions(m)]
    return out


def _initial_kind_reference(lams):
    out, shift = [()], 0
    for lam in lams:
        blocks = [tuple(tuple(x + shift for x in r) for r in t)
                  for t in standard_tableaux(lam)]
        out = [t + (b,) for t in out for b in blocks]
        shift += sum(lam)
    return out


def test_box_products_keep_the_nested_loop_order():
    for n in range(7):
        for mu in compositions(n):
            assert young_subgroup(mu) == _young_reference(mu)
            mps = multipartitions_of_composition(mu)
            assert mps == _multipartitions_reference(mu)
            for lams in mps:
                assert initial_kind_multitableaux(lams) == \
                    _initial_kind_reference(lams)
