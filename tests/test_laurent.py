"""Exact Laurent-polynomial coefficients and linear algebra."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiedbox.algebras import reduce_against
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


monomials = st.one_of(
    st.just(ONE),
    st.builds(LaurentPoly.term, st.integers(-9, 9).filter(bool), st.integers(-4, 4)),
)
units = st.builds(LaurentPoly.term, st.sampled_from([1, -1]), st.integers(-4, 4))


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


def test_mixed_poly_and_frac_operands():
    f = LaurentFrac(Q, DELTA)
    assert Q * f == f * Q == LaurentFrac(Q) * f
    assert Q + f == f + Q == LaurentFrac(Q) + f
    assert Q - f == LaurentFrac(Q) - f
    assert f - Q == f - LaurentFrac(Q)
    assert 2 - f == LaurentFrac(2) - f
    assert f / Q == f / LaurentFrac(Q)
    assert Q == LaurentFrac(Q) and LaurentFrac(Q) == Q


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
@pytest.mark.parametrize("x", [Q, LaurentFrac(Q, DELTA)])
def test_foreign_operand_is_a_type_error(op, x):
    with pytest.raises(TypeError):
        op(x, 1.5)
    with pytest.raises(TypeError):
        op(1.5, x)


def test_frac_arithmetic():
    half = LaurentFrac(ONE) / LaurentFrac(DELTA)
    assert half * LaurentFrac(DELTA) == LaurentFrac(ONE)
    assert half - half == LaurentFrac(0)
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
