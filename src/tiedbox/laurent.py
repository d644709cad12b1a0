"""Exact Laurent polynomials in one variable q with integer coefficients.

This is the coefficient ring for all algebra computations in the package.
Its arithmetic, exact division and gcd included, is in integers only; no
floating point is used anywhere.  Rank computations are either exact
(elimination over the fraction field, in `echelon_reduce`) or probabilistic
(modular evaluation at random points, seeded).

`LaurentPoly` and `LaurentFrac` values are immutable, and equal values may
be one shared object: a product with the unit returns the other factor,
and `add_term` stores the coefficient it is given.  Nothing may change a
coefficient dict in place after construction, nor bind `.c` or `._h`
anywhere but in `_poly`.

Small values are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006).  A value with at most SMALL_TERMS terms, each
coefficient below SMALL_COEFF in absolute value, is one object: every
constructor, and every operation, returns the object already in the table
`_values`.  A new small value enters the table only while it holds fewer
than MAX_VALUES values; ZERO, ONE and the other constants are in it from
the start.  The checks build few distinct values many times over (a full
`verify-all` builds 194, 159 of them small), so:

* equality tests identity first, and two distinct hash-consed values are
  unequal; any other pair compares by value;
* `+`, `-` and `*` of two hash-consed values are memoized in `_sums`,
  `_differences` and `_products`, keyed by the pair of ids.  A table
  stores a result only if it is hash-consed itself and the table holds
  fewer than MAX_MEMO results.  Hash-consed values are never freed, so an
  id names one value for the life of the process; a value that is not
  hash-consed is never a key;
* `hash(p)` is `hash(frozenset(p.c.items()))` for every value, stored in
  `_h` for a hash-consed one (None for any other), so every set and dict
  order is the same as without the tables.

Both caps bound the memory: interning every value made the Hecke cell
axiom at n = 5 hold 712,330 values.
"""

from math import gcd
import random

__all__ = [
    "LaurentPoly", "ZERO", "ONE", "Q", "QINV", "QDIFF", "DELTA",
    "LaurentFrac", "add_term", "matrix_rank", "echelon_reduce",
    "echelon_insert",
]

SMALL_TERMS = 4
SMALL_COEFF = 1 << 16
MAX_VALUES = 2048
MAX_MEMO = 4096

_values = {}   # frozenset of the terms -> the hash-consed LaurentPoly
_sums, _differences, _products = {}, {}, {}   # (id(a), id(b)) -> a op b


def _poly(c):
    """The LaurentPoly with coefficient dict c, which has no zero entry and
    is owned by the result: the hash-consed value equal to it if there is
    one, else a new object, hash-consed if c is small and the table has
    room."""
    key = None
    if len(c) <= SMALL_TERMS:
        key = frozenset(c.items())
        r = _values.get(key)
        if r is not None:
            return r
        if len(_values) >= MAX_VALUES \
                or max(map(abs, c.values()), default=0) >= SMALL_COEFF:
            key = None
    r = object.__new__(LaurentPoly)
    r.c = c
    r._h = None
    if key is not None:
        r._h = hash(key)
        _values[key] = r
    return r


def _memo(table, op, a, b):
    """op on the coefficient dicts of a and b, as a LaurentPoly; through
    `table` when both are hash-consed."""
    if a._h is None or b._h is None:
        return _poly(op(a.c, b.c))
    key = (id(a), id(b))
    r = table.get(key)
    if r is None:
        r = _poly(op(a.c, b.c))
        if r._h is not None and len(table) < MAX_MEMO:
            table[key] = r
    return r


def _add(a, b):
    out = dict(a)
    for e, v in b.items():
        w = out.get(e, 0) + v
        if w:
            out[e] = w
        else:
            out.pop(e, None)
    return out


def _sub(a, b):
    out = dict(a)
    for e, v in b.items():
        w = out.get(e, 0) - v
        if w:
            out[e] = w
        else:
            out.pop(e, None)
    return out


def _mul(a, b):
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        # a monomial factor: terms never collide, and Z has no zero
        # divisors, so the product is the other factor shifted and scaled
        (e1, v1), = a.items()
        return {e1 + e2: v1 * v2 for e2, v2 in b.items()}
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            w = out.get(e, 0) + v1 * v2
            if w:
                out[e] = w
            else:
                del out[e]
    return out


def _operand(x):
    """An int as a LaurentPoly; None for an operand of a foreign type."""
    if isinstance(x, int):
        return LaurentPoly.const(x)
    return None


class LaurentPoly:
    """An element of Z[q, q^-1], stored as a dict exponent -> coefficient.

    Immutable: operations return new values or one of their operands (the
    product with ONE is the other factor), so values may be shared.  A
    small value is hash-consed: it is the one object of its value (see the
    module docstring)."""

    __slots__ = ("c", "_h")

    def __new__(cls, coeffs=None):
        return _poly({e: v for e, v in coeffs.items() if v} if coeffs else {})

    def __reduce__(self):
        return LaurentPoly, (self.c,)

    @staticmethod
    def const(v):
        return _poly({0: v} if v else {})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is LaurentPoly:
            return (self._h is None or other._h is None) and self.c == other.c
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        h = self._h
        return hash(frozenset(self.c.items())) if h is None else h

    def __add__(self, other):
        if other.__class__ is not LaurentPoly:
            other = _operand(other)
            if other is None:
                return NotImplemented
        if other is ZERO:
            return self
        if self is ZERO:
            return other
        return _memo(_sums, _add, self, other)

    __radd__ = __add__

    def __neg__(self):
        return _poly({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        if other.__class__ is not LaurentPoly:
            other = _operand(other)
            if other is None:
                return NotImplemented
        if other is ZERO:
            return self
        return _memo(_differences, _sub, self, other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if other.__class__ is not LaurentPoly:
            other = _operand(other)
            if other is None:
                return NotImplemented
        if other is ONE:
            return self
        if self is ONE:
            return other
        if self is ZERO or other is ZERO:
            return ZERO
        return _memo(_products, _mul, self, other)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("only nonnegative powers; use QINV for q^-1")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def to_list(self):
        """Return (low, coeffs) with coeffs[k] the coefficient of q^(low+k)."""
        if not self.c:
            return 0, []
        lo, hi = min(self.c), max(self.c)
        return lo, [self.c.get(e, 0) for e in range(lo, hi + 1)]

    @staticmethod
    def from_list(low, coeffs):
        return LaurentPoly({low + k: v for k, v in enumerate(coeffs) if v})

    def divexact(self, other):
        """Exact division in Z[q, q^-1]; raises ValueError if not divisible."""
        if not other:
            raise ZeroDivisionError
        if not self:
            return LaurentPoly()
        alo, a = self.to_list()
        blo, b = other.to_list()
        return LaurentPoly.from_list(alo - blo, _list_divexact(a, b))

    def __str__(self):
        if not self.c:
            return "0"
        return " + ".join(f"{self.c[e]}*q^{e}" for e in sorted(self.c, reverse=True))

    __repr__ = __str__

    @staticmethod
    def parse(text):
        """Parse the textual form produced by str(), e.g. '1*q^2 + -1*q^0'."""
        text = text.strip()
        if text == "0":
            return LaurentPoly()
        out = {}
        for piece in text.split("+"):
            piece = piece.strip()
            coeff, _, exp = piece.partition("*q^")
            if not exp:
                raise ValueError(f"bad Laurent term: {piece!r}")
            e = int(exp)
            out[e] = out.get(e, 0) + int(coeff)
        return LaurentPoly(out)


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
Q = LaurentPoly({1: 1})
QINV = LaurentPoly({-1: 1})
QDIFF = LaurentPoly({1: 1, -1: -1})   # q - q^-1
DELTA = LaurentPoly({1: 1, -1: 1})    # q + q^-1, the loop parameter


def add_term(out, key, c):
    """out[key] += c in a sparse dict of LaurentPoly coefficients, for a
    LaurentPoly c; a key whose sum is zero (ZERO itself) is dropped.  A new
    key holds c itself."""
    s = out.get(key)
    if s is not None:
        c = s + c
    if c is not ZERO:
        out[key] = c
    elif s is not None:
        del out[key]


def _list_divexact(a, b):
    """Exact quotient of integer coefficient lists, lowest degree first, with
    nonzero top coefficients; raises ValueError if b does not divide a."""
    r, n, lb = list(a), len(b), b[-1]
    q = [0] * (len(a) - n + 1)
    for k in range(len(q) - 1, -1, -1):
        f, m = divmod(r[k + n - 1], lb)
        if m:
            raise ValueError("not an exact division over the integers")
        q[k] = f
        for i, bv in enumerate(b):
            r[k + i] -= f * bv
    if any(r):
        raise ValueError("not an exact division")
    return q


def _list_primitive(a):
    """a without its top zeros, divided by its content and signed so that
    the top coefficient is positive."""
    while a and a[-1] == 0:
        a.pop()
    if not a:
        return a
    g = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [v // g for v in a]


def _list_gcd(a, b):
    """Primitive gcd of two integer coefficient lists, lowest degree first,
    by the primitive pseudo-remainder sequence (Knuth, TAOCP Vol. 2,
    4.6.1); [] if both are zero."""
    a, b = _list_primitive(list(a)), _list_primitive(list(b))
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r, n, lb = a, len(b), b[-1]
        while len(r) >= n:
            # r <- lc(b) r - lc(r) q^k b, which clears the top coefficient
            k, lr = len(r) - n, r[-1]
            r = [lb * v for v in r[:k]] + \
                [lb * v - lr * w for v, w in zip(r[k:-1], b)]
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _list_primitive(r)
    # a primitive constant b is 1
    return [1] if b else a


def poly_gcd(f, g):
    """Gcd in Z[q, q^-1], normalized to lowest exponent 0 and positive top
    coefficient: the primitive gcd times the gcd of the two contents.  The
    gcd with 0 is the other argument normalized; poly_gcd(0, 0) is 0."""
    if f is ONE or g is ONE:
        return ONE
    for p in (f, g):
        if len(p.c) == 1 and abs(next(iter(p.c.values()))) == 1:
            return ONE   # a unit +-q^k
    _, a = f.to_list()
    _, b = g.to_list()
    c = gcd(*a, *b)
    return LaurentPoly.from_list(0, [c * v for v in _list_gcd(a, b)])


class LaurentFrac:
    """A fraction of Laurent polynomials, reduced so equality is structural.
    A denominator 1 is ONE itself, and arithmetic skips the products by it.
    A fraction over ONE is whole: once its gcd is taken (`poly_gcd` returns
    ONE at once) it keeps its numerator as it is.  Every result is still
    built through `__init__`, and every nonzero one takes its gcd once."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        if isinstance(num, int):
            num = LaurentPoly.const(num)
        if den is not ONE:
            if isinstance(den, int):
                den = LaurentPoly.const(den)
            if den is ZERO:
                raise ZeroDivisionError
        if num is ZERO:
            self.num, self.den = ZERO, ONE
            return
        g = poly_gcd(num, den)
        if den is ONE:
            self.num, self.den = num, ONE
            return
        if g is not ONE:
            num = num.divexact(g)
            den = den.divexact(g)
        if den is not ONE:
            # normalize denominator: lowest exponent 0, positive leading coeff
            lo = min(den.c)
            sign = 1 if den.c[max(den.c)] > 0 else -1
            if lo or sign < 0:
                num, den = (LaurentPoly({e - lo: sign * v for e, v in p.c.items()})
                            for p in (num, den))
        self.num, self.den = num, den

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _frac(other)
        if other is NotImplemented:
            return other
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _frac(other)
        if other is NotImplemented:
            return other
        a, b, c, d = self.num, self.den, other.num, other.den
        return LaurentFrac((a if d is ONE else a * d) + (c if b is ONE else c * b),
                           d if b is ONE else b if d is ONE else b * d)

    __radd__ = __add__

    def __neg__(self):
        r = LaurentFrac.__new__(LaurentFrac)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        if other.__class__ is not LaurentFrac:
            other = _frac(other)
            if other is NotImplemented:
                return other
        a, b, c, d = self.num, self.den, other.num, other.den
        if b is ONE and d is ONE:
            return LaurentFrac(a - c)
        return LaurentFrac((a if d is ONE else a * d) - (c if b is ONE else c * b),
                           d if b is ONE else b if d is ONE else b * d)

    def __rsub__(self, other):
        other = _frac(other)
        if other is NotImplemented:
            return other
        return other - self

    def __mul__(self, other):
        if other.__class__ is not LaurentFrac:
            other = _frac(other)
            if other is NotImplemented:
                return other
        b, d = self.den, other.den
        return LaurentFrac(self.num * other.num,
                           d if b is ONE else b if d is ONE else b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _frac(other)
        if other is NotImplemented:
            return other
        b, d = self.den, other.den
        return LaurentFrac(self.num if d is ONE else self.num * d,
                           other.num if b is ONE else b * other.num)

    def __rtruediv__(self, other):
        other = _frac(other)
        if other is NotImplemented:
            return other
        return other / self

    def __str__(self):
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


_FRAC_ZERO = LaurentFrac(0)


def _frac(x):
    """x as a LaurentFrac; NotImplemented for an operand of a foreign type."""
    if isinstance(x, LaurentFrac):
        return x
    if isinstance(x, (int, LaurentPoly)):
        return LaurentFrac(x)
    return NotImplemented


def _rank_modular(rows, seed):
    """Lower bound for the rank: the best of evaluations at three random
    points mod a prime.  Each distinct entry object is evaluated once per
    point, from a table of the powers of the point (the rows keep every
    entry alive, so an id names one entry while this runs).  No rank
    exceeds the row count, so a point that reaches it ends the search."""
    p = (1 << 61) - 1
    rng = random.Random(seed)
    best = 0
    for _ in range(3):
        x = rng.randrange(2, p - 1)
        xinv = pow(x, -1, p)
        powers = {}
        values = {}
        num = []
        for r in rows:
            out = {}
            for j, v in r.items():
                w = values.get(id(v))
                if w is None:
                    for e in v.c:
                        if e not in powers:
                            powers[e] = pow(x, e, p) if e >= 0 else pow(xinv, -e, p)
                    w = values[id(v)] = sum(a * powers[e] for e, a in v.c.items()) % p
                out[j] = w
            num.append(out)
        best = max(best, _int_rank_mod(num, p))
        if best == len(rows):
            break
    return best


def _int_rank_mod(rows, p):
    """Rank mod p of sparse integer rows.  Each pivot row is stored scaled
    to pivot 1, so reducing by it needs no inverse."""
    pivot_rows = []
    for r in rows:
        r = {j: v % p for j, v in r.items() if v % p}
        for pc, prow in pivot_rows:
            f = r.get(pc)
            if f:
                for j, v in prow.items():
                    w = (r.get(j, 0) - f * v) % p
                    if w:
                        r[j] = w
                    else:
                        r.pop(j, None)
        if r:
            pc = min(r)
            inv = pow(r[pc], -1, p)
            pivot_rows.append((pc, {j: v * inv % p for j, v in r.items()}))
    return len(pivot_rows)


def echelon_reduce(basis, row):
    """Remainder of a sparse row after reduction against an echelon basis,
    a list of (pivot_col, row) pairs with LaurentFrac entries.  The entries
    of `row` may be ints, LaurentPolys or LaurentFracs; `row` is not changed.
    This is the one exact elimination loop of the package."""
    r = {}
    for j, v in row.items():
        if isinstance(v, (int, LaurentPoly)):
            v = LaurentFrac(v)
        if v.num is not ZERO:
            r[j] = v
    for pc, prow in basis:
        if pc in r:
            f = r[pc] / prow[pc]
            for j, v in prow.items():
                w = r.get(j, _FRAC_ZERO) - f * v
                if w.num is not ZERO:
                    r[j] = w
                else:
                    r.pop(j, None)
    return r


def _rank_exact(rows):
    """Exact rank over the fraction field of Z[q, q^-1]."""
    basis = []
    for row in rows:
        r = echelon_reduce(basis, row)
        if r:
            basis.append((min(r), r))
    return len(basis)


def matrix_rank(rows, mode="exact", seed=0):
    """Rank of a list of sparse rows (dict col -> LaurentPoly).

    mode='exact' uses exact elimination over the fraction field.
    mode='probabilistic' evaluates at seeded random points modulo a prime;
    the result is a lower bound that equals the rank with high probability.
    """
    if mode == "probabilistic":
        return _rank_modular(rows, seed)
    if mode != "exact":
        raise ValueError(f"unknown rank mode {mode!r}")
    return _rank_exact(rows)


def echelon_insert(basis, row):
    """Reduce a sparse row against an echelon basis; if nonzero, insert it
    and return True. `basis` is a list of (pivot_col, row) pairs."""
    r = echelon_reduce(basis, row)
    if r:
        basis.append((min(r), r))
    return bool(r)
