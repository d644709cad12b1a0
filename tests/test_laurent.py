"""Exact Laurent-polynomial coefficients and linear algebra, and the modular
rank against the kernel it replaced: each entry evaluated on its own, one
inverse per elimination step."""

import copy
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiedbox import checks, laurent
from tiedbox.algebras import HeckeAlgebra, reduce_against
from tiedbox.laurent import (
    DELTA,
    ONE,
    Q,
    QDIFF,
    QINV,
    ZERO,
    LaurentFrac,
    LaurentPoly,
    add_term,
    echelon_insert,
    matrix_rank,
    poly_gcd,
)

polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=4),
)


def monomial(v, e):
    return LaurentPoly({e: v})


monomials = st.one_of(
    st.just(ONE),
    st.builds(monomial, st.integers(-9, 9).filter(bool), st.integers(-4, 4)),
)
units = st.builds(monomial, st.sampled_from([1, -1]), st.integers(-4, 4))


def reference_evaluate_mod(poly, x, p):
    """poly at x mod p, with one inverse of x and one `pow` per term."""
    acc = 0
    xinv = pow(x, -1, p)
    for e, v in poly.c.items():
        base = pow(x, e, p) if e >= 0 else pow(xinv, -e, p)
        acc = (acc + v * base) % p
    return acc


def reference_int_rank_mod(rows, p):
    """Rank mod p of integer rows, with one inverse per elimination step."""
    pivot_rows = []
    for r in rows:
        r = {j: v % p for j, v in r.items() if v % p}
        for pc, prow in pivot_rows:
            if pc in r:
                f = (r[pc] * pow(prow[pc], -1, p)) % p
                for j, v in prow.items():
                    w = (r.get(j, 0) - f * v) % p
                    if w:
                        r[j] = w
                    else:
                        r.pop(j, None)
        if r:
            pivot_rows.append((min(r), r))
    return len(pivot_rows)


def reference_rank_modular(rows, seed):
    """The mod-p rank evaluated entry by entry at the same seeded points."""
    p = (1 << 61) - 1
    rng = random.Random(seed)
    best = 0
    for _ in range(3):
        x = rng.randrange(2, p - 1)
        num = [{j: reference_evaluate_mod(v, x, p) for j, v in r.items()}
               for r in rows]
        best = max(best, reference_int_rank_mod(num, p))
    return best


def convolve(a, b):
    """Reference product of two Laurent polynomials, term by term."""
    out = {}
    for e1, v1 in a.c.items():
        for e2, v2 in b.c.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def test_constants():
    assert Q * QINV == ONE
    assert QDIFF == Q - QINV
    assert DELTA == Q + QINV
    assert ZERO + ONE == ONE
    assert not ZERO


@given(polys)
@settings(max_examples=100, deadline=None)
def test_str_parse_roundtrip(p):
    assert LaurentPoly.parse(str(p)) == p


@given(polys, polys, polys)
@settings(max_examples=150, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_divexact_inverts_multiplication(a, b):
    if not b:
        return
    assert (a * b).divexact(b) == a


@given(polys, polys)
@settings(max_examples=80, deadline=None)
def test_gcd_divides_both(a, b):
    if not a and not b:
        return
    g = poly_gcd(a, b)
    assert g
    if a:
        assert a.divexact(g) * g == a
    if b:
        assert b.divexact(g) * g == b


@given(monomials, polys)
@settings(max_examples=150, deadline=None)
def test_monomial_products_match_convolution(m, p):
    assert (m * p).c == convolve(m, p)
    assert (p * m).c == convolve(p, m)


@given(polys)
@settings(max_examples=50, deadline=None)
def test_unit_product_is_an_operand(p):
    # not a new value: the other factor, or ONE itself when p equals ONE
    for prod in (ONE * p, p * ONE):
        assert prod is p or (prod is ONE and p == ONE)


@given(polys, units)
@settings(max_examples=100, deadline=None)
def test_gcd_with_a_unit_is_one(f, u):
    assert poly_gcd(f, u) == poly_gcd(u, f) == ONE
    x = LaurentFrac(f, u)
    assert str(x.den) == "1*q^0"
    assert x * LaurentFrac(u) == LaurentFrac(f)


def both_fractions(x, y):
    """LaurentFrac(x) and LaurentFrac(y)."""
    return LaurentFrac(x), LaurentFrac(y)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv, LaurentFrac, both_fractions])
@pytest.mark.parametrize("x, y", [
    pytest.param(Q, 1.5, id="x0"),
    pytest.param(LaurentFrac(Q, DELTA), 1.5, id="x1"),
    pytest.param(Q, 2, id="poly-int"),
    pytest.param(LaurentFrac(Q, DELTA), 2, id="frac-int"),
    pytest.param(ONE, 1, id="one-int"),
    pytest.param(Q, LaurentFrac(Q, DELTA), id="poly-frac"),
    pytest.param(HeckeAlgebra(2).one(), Q, id="element-poly"),
])
def test_foreign_operand_is_a_type_error(op, x, y):
    # every operator takes two values of one class, an int included, and a
    # fraction is a quotient of two LaurentPolys: LaurentFrac(1) and
    # LaurentFrac(Q, 2) are refused; values of two classes are unequal
    with pytest.raises(TypeError):
        op(x, y)
    with pytest.raises(TypeError):
        op(y, x)
    assert x != y and y != x


fracs = st.builds(LaurentFrac, polys, polys.filter(bool))
small_ints = st.integers(-5, 5)
# fractions with and without a denominator 1: whole ones from a polynomial
# or from an integer through `LaurentPoly.const`
frac_operands = st.one_of(
    fracs, polys.map(LaurentFrac),
    small_ints.map(lambda k: LaurentFrac(LaurentPoly.const(k))))


@given(polys, polys, small_ints)
@settings(max_examples=150, deadline=None)
def test_poly_subtraction_is_adding_the_negation(a, b, k):
    d = a - b
    assert d.c == {e: v for e in set(a.c) | set(b.c)
                   if (v := a.c.get(e, 0) - b.c.get(e, 0))}
    assert d == a + (-b)
    c = LaurentPoly.const(k)
    assert a - c == a + (-c)
    assert c - a == -a + c


@given(frac_operands, frac_operands)
@settings(max_examples=200, deadline=None)
def test_frac_subtraction_is_adding_the_negation(x, y):
    d = x - y
    assert str(d) == str(x + (-y))
    assert d == x + (-y)


@given(frac_operands, frac_operands)
@example(LaurentFrac(Q + ONE), LaurentFrac(DELTA))
@example(LaurentFrac(QDIFF), LaurentFrac(Q - LaurentPoly.const(2)))
@example(LaurentFrac(LaurentPoly.const(3)), LaurentFrac(LaurentPoly.const(3)))
@settings(max_examples=200, deadline=None)
def test_frac_arithmetic_matches_cross_multiplication(x, y):
    # with and without a denominator 1 on either side; the examples have
    # denominator 1 on both
    a, b, c, d = x.num, x.den, y.num, y.den
    want = {operator.add: (a * d + c * b, b * d),
            operator.sub: (a * d - c * b, b * d),
            operator.mul: (a * c, b * d)}
    if c:
        want[operator.truediv] = (a * d, b * c)
    for op, (num, den) in want.items():
        r = op(x, y)
        assert r.num * den == num * r.den, op
        assert (r.den is ONE) == (r.den == ONE)


def assert_normal_form(x):
    """Lowest exponent 0 and a positive top coefficient in the
    denominator, which is coprime to the numerator."""
    assert min(x.den.c) == 0 and x.den.c[max(x.den.c)] > 0
    assert poly_gcd(x.num, x.den) == ONE


@given(polys, polys.filter(bool))
@settings(max_examples=150, deadline=None)
def test_frac_normal_form_with_and_without_a_denominator(a, d):
    whole = LaurentFrac(a * d, d)
    assert_normal_form(whole)
    assert whole.den == ONE and whole.num == a
    x = LaurentFrac(a, d)
    assert_normal_form(x)
    assert x.num * d == a * x.den


@given(polys, polys, polys.filter(bool))
@settings(max_examples=100, deadline=None)
def test_whole_fractions_keep_one_as_their_denominator(a, b, d):
    whole = [LaurentFrac(a), LaurentFrac(a * d, d), LaurentFrac(a) - LaurentFrac(b),
             LaurentFrac(a) * LaurentFrac(b), LaurentFrac(a) + LaurentFrac(b),
             -LaurentFrac(a)]
    for x in whole:
        assert x.den is ONE
    # a whole fraction keeps its numerator as it is
    assert LaurentFrac(a).num is (a if a else ZERO)


def test_frac_arithmetic():
    half = LaurentFrac(ONE) / LaurentFrac(DELTA)
    assert half * LaurentFrac(DELTA) == LaurentFrac(ONE)
    assert half - half == LaurentFrac(ZERO)
    assert not (half - half)


def test_rank_exact_known_matrix():
    # [[1, q], [q^-1, 1]] has rank 1; adding a generic third row gives 2
    rows = [{0: ONE, 1: Q}, {0: QINV, 1: ONE}]
    assert matrix_rank(rows, mode="exact") == 1
    rows.append({0: ONE, 1: QDIFF})
    assert matrix_rank(rows, mode="exact") == 2


@given(st.lists(st.dictionaries(st.integers(0, 5), polys, max_size=4),
                min_size=1, max_size=5),
       st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_probabilistic_rank_bounded_by_exact(rows, seed):
    exact = matrix_rank(rows, mode="exact")
    assert matrix_rank(rows, mode="probabilistic", seed=seed) <= exact


# rows whose entries repeat, as in the tensor matrices, drawn from a pool
pooled_rows = st.lists(polys, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(
        st.dictionaries(st.integers(0, 5), st.sampled_from(pool), max_size=4),
        min_size=1, max_size=6))


@given(pooled_rows, st.integers(0, 2 ** 31))
@settings(max_examples=80, deadline=None)
def test_probabilistic_rank_matches_reference(rows, seed):
    assert (matrix_rank(rows, mode="probabilistic", seed=seed)
            == reference_rank_modular(rows, seed))


@given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-20, 20), max_size=5),
                max_size=7),
       st.sampled_from([2, 3, 7]))
@settings(max_examples=150, deadline=None)
def test_rank_mod_small_prime_matches_reference(rows, p):
    # small primes make rank drops mod p common
    assert laurent._int_rank_mod(rows, p) == reference_int_rank_mod(rows, p)


def test_modular_rank_stops_at_full_row_rank(monkeypatch):
    # a rank is at most the row count, so a point that reaches it is the
    # last; a rank-deficient matrix tries all three points
    calls = 0
    rank_mod = laurent._int_rank_mod

    def counted(rows, p):
        nonlocal calls
        calls += 1
        return rank_mod(rows, p)

    monkeypatch.setattr(laurent, "_int_rank_mod", counted)
    assert matrix_rank([{0: ONE, 1: Q}, {1: DELTA}], mode="probabilistic") == 2
    assert calls == 1
    calls = 0
    rows = [{0: ONE, 1: Q}, {0: QINV, 1: ONE}]
    assert matrix_rank(rows, mode="probabilistic") == 1
    assert calls == 3


def test_rank_rejects_unknown_mode():
    with pytest.raises(ValueError):
        matrix_rank([{0: ONE}], mode="nope")


small_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2),
)


@given(st.lists(st.dictionaries(st.integers(0, 4), small_polys, max_size=3),
                min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_echelon_kernel_callers_agree(rows):
    # a row q times the first is always dependent
    rows = rows + [{j: Q * v for j, v in rows[0].items()}]
    basis = []
    inserted = sum(echelon_insert(basis, r) for r in rows)
    assert matrix_rank(rows, mode="exact") == inserted == len(basis)
    assert all(reduce_against(basis, r) for r in rows)
    # column 5 is used by no row, so its unit row is outside the span
    assert not reduce_against(basis, {5: ONE})


def test_add_term_drops_zero_sums():
    out = {"a": Q}
    add_term(out, "a", -Q)
    assert out == {}
    add_term(out, "b", QDIFF)
    add_term(out, "b", QINV)
    assert out == {"b": Q}
    add_term(out, "c", ZERO)
    assert out == {"b": Q}
    # a new key holds the coefficient itself, not a copy
    c = QDIFF * DELTA
    add_term(out, "c", c)
    assert out["c"] is c


@given(polys, polys, polys)
@settings(max_examples=100, deadline=None)
def test_frac_normal_form_cancels_common_factors(a, b, c):
    if not b or not c:
        return
    x, y = LaurentFrac(a * c, b * c), LaurentFrac(a, b)
    assert x == y
    assert str(x) == str(y)
    assert hash(x) == hash(y)


@pytest.mark.parametrize("num, den, text", [
    (Q, -QINV, "(-1*q^2) / (1*q^0)"),
    (Q + ONE, LaurentPoly({-2: 3, 1: 5}), "(1*q^3 + 1*q^2) / (5*q^3 + 3*q^0)"),
    (ONE, LaurentPoly({0: 1, 1: -1}), "(-1*q^0) / (1*q^1 + -1*q^0)"),
])
def test_frac_denominator_normal_form(num, den, text):
    # lowest exponent 0 and a positive top coefficient in the denominator
    assert str(LaurentFrac(num, den)) == text


@pytest.mark.parametrize("num, den", [
    (Q + ONE, LaurentPoly.const(2)),
    (Q * Q + ONE, Q + ONE),
])
def test_divexact_rejects_inexact_division(num, den):
    with pytest.raises(ValueError):
        num.divexact(den)


@pytest.mark.parametrize("f, g, expected", [
    (LaurentPoly({0: 2, 1: 2}), LaurentPoly({0: 4, 2: -4}), LaurentPoly({0: 2, 1: 2})),
    (ZERO, LaurentPoly({-1: -2}), LaurentPoly.const(2)),
    (ZERO, ZERO, ZERO),
    (LaurentPoly({-1: -1, 0: -1}), Q + ONE, Q + ONE),
])
def test_poly_gcd_normal_form(f, g, expected):
    assert poly_gcd(f, g) == expected


def test_gcd_count_of_the_exact_ranks(monkeypatch):
    # every fraction normalisation makes one gcd call: a fast path that
    # skips one changes these counts
    calls = 0
    gcd = laurent.poly_gcd

    def counted(f, g):
        nonlocal calls
        calls += 1
        return gcd(f, g)

    monkeypatch.setattr(laurent, "poly_gcd", counted)
    checks.check_representation()
    assert calls == 58_236
    calls = 0
    checks.check_quotients()
    assert calls == 13_266


# Interned values (see the `laurent` module docstring).  The strategies
# mix few and many terms, and small and large coefficients, since a value
# is interned whatever its size.
coefficients = st.one_of(st.integers(-9, 9),
                         st.integers(-(1 << 17), 1 << 17))
any_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 6), coefficients, max_size=7),
)
MEMOS = (laurent._sums, laurent._differences, laurent._products)


def reference_sum(a, b, sign=1):
    out = dict(a.c)
    for e, v in b.c.items():
        out[e] = out.get(e, 0) + sign * v
    return {e: v for e, v in out.items() if v}


def is_interned(p):
    return laurent._values.get(frozenset(p.c.items())) is p


@given(any_polys, any_polys)
@settings(max_examples=200, deadline=None)
def test_arithmetic_matches_the_dict_reference(a, b):
    # twice: the second time from the memo tables where both are interned
    for _ in range(2):
        assert (a + b).c == reference_sum(a, b)
        assert (a - b).c == reference_sum(a, b, -1)
        assert (a * b).c == convolve(a, b)
        assert (-a).c == {e: -v for e, v in a.c.items()}
        assert a + b == LaurentPoly(reference_sum(a, b))
        assert a * b == LaurentPoly(convolve(a, b))


@given(any_polys, any_polys)
@settings(max_examples=100, deadline=None)
def test_hash_is_the_hash_of_the_terms(a, b):
    for p in (a, b, a + b, a - b, a * b, -a, ONE, ZERO):
        assert hash(p) == hash(frozenset(p.c.items()))
        assert (p._h is not None) == is_interned(p)
    assert (a == b) == (a.c == b.c)


small_dicts = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=4)


@given(small_dicts, small_dicts)
@settings(max_examples=100, deadline=None)
def test_equal_small_values_are_one_object(da, db):
    with pytest.MonkeyPatch.context() as mp:
        # room for every value, however many earlier tests interned; the
        # values are built here, after the cap is raised
        mp.setattr(laurent, "MAX_VALUES", len(laurent._values) + 1_000)
        a, b = LaurentPoly(da), LaurentPoly(db)
        p = a * b + a
        lo, coeffs = p.to_list()
        built = [LaurentPoly(dict(p.c)), LaurentPoly.from_list(lo, coeffs),
                 LaurentPoly.parse(str(p)), (p * DELTA).divexact(DELTA),
                 p + ZERO, p - ZERO, -(-p), (p + Q) - Q,
                 copy.deepcopy(p)]
        if len(p.c) == 1 and 0 in p.c:
            built.append(LaurentPoly.const(p.c[0]))
        assert p._h is not None
        assert all(x is p for x in built)


def test_values_of_any_size_are_one_object_while_the_table_has_room(monkeypatch):
    monkeypatch.setattr(laurent, "MAX_VALUES", len(laurent._values) + 10)
    # exponents that no other test builds, so both values are new here
    for terms in ({e: e - 296 for e in range(300, 307)},   # seven terms
                  {300: 1 << 16, 301: -(1 << 20)}):        # large coefficients
        a, b = LaurentPoly(terms), LaurentPoly(dict(terms))
        assert a is b and is_interned(a) and a._h == hash(a)
        assert a * ONE is a and (a + Q) - Q is a


def test_tables_stay_within_their_caps(monkeypatch):
    # more distinct values and pairs than the caps allow: every table
    # stops at its cap, and every result is still right
    monkeypatch.setattr(laurent, "MAX_VALUES", len(laurent._values) + 400)
    monkeypatch.setattr(laurent, "MAX_MEMO", max(map(len, MEMOS)) + 50)
    # exponents that no other test builds, so all 120 values are new
    values = [LaurentPoly({e: v, e + 1: 1}) for e in range(100, 106)
              for v in range(2, 22)]
    assert all(p._h is not None for p in values)
    for a in values[::3]:
        for b in values[::7]:
            assert (a + b).c == reference_sum(a, b)
            assert (a - b).c == reference_sum(a, b, -1)
            assert (a * b).c == convolve(a, b)
    assert len(laurent._values) == laurent.MAX_VALUES
    assert max(map(len, MEMOS)) == laurent.MAX_MEMO
    # a value outside the table is still equal to an equal one
    late = [LaurentPoly({200: 5, 201: 1}) for _ in range(2)]
    assert late[0] is not late[1] and late[0] == late[1]
    assert late[0]._h is None and hash(late[0]) == hash(late[1])
    assert {late[0]: 1}[late[1]] == 1
