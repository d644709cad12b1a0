"""Exact Laurent polynomials in one variable q with integer coefficients.

This is the coefficient ring for all algebra computations in the package.
Its arithmetic, exact division and gcd included, is in integers only; no
floating point is used anywhere.  Rank computations are either exact
(elimination over the fraction field, in `echelon_reduce`) or probabilistic
(modular evaluation at random points, seeded).

`LaurentPoly` and `LaurentFrac` values are immutable, and equal values may
be one shared object: a product with the unit returns the other factor,
and `add_term` stores the coefficient it is given.  Nothing may change a
coefficient dict in place after construction.
"""

from math import gcd
import random

__all__ = [
    "LaurentPoly", "ZERO", "ONE", "Q", "QINV", "QDIFF", "DELTA",
    "LaurentFrac", "add_term", "matrix_rank", "echelon_reduce",
    "echelon_insert",
]


class LaurentPoly:
    """An element of Z[q, q^-1], stored as a dict exponent -> coefficient.

    Immutable: operations return new values or one of their operands (the
    product with ONE is the other factor), so values may be shared."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            self.c = {}
        else:
            self.c = {e: v for e, v in coeffs.items() if v}

    @staticmethod
    def const(v):
        return LaurentPoly({0: v}) if v else LaurentPoly()

    @staticmethod
    def term(v, e):
        return LaurentPoly({e: v}) if v else LaurentPoly()

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.c == other.c
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.c)
        for e, v in other.c.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            else:
                out.pop(e, None)
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = {e: -v for e, v in self.c.items()}
        return r

    def __sub__(self, other):
        if not isinstance(other, (int, LaurentPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.c == ONE.c:
            return self
        if self.c == ONE.c:
            return other
        if len(other.c) == 1:
            self, other = other, self
        if len(self.c) == 1:
            # a monomial factor: terms never collide, and Z has no zero
            # divisors, so the product is the other factor shifted and scaled
            (e1, v1), = self.c.items()
            r = LaurentPoly.__new__(LaurentPoly)
            r.c = {e1 + e2: v1 * v2 for e2, v2 in other.c.items()}
            return r
        out = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = out.get(e, 0) + v1 * v2
                if w:
                    out[e] = w
                else:
                    del out[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = out
        return r

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

    def evaluate_mod(self, x, p):
        """Evaluate at x modulo the prime p; x must be a unit mod p."""
        acc = 0
        xinv = pow(x, -1, p)
        for e, v in self.c.items():
            base = pow(x, e, p) if e >= 0 else pow(xinv, -e, p)
            acc = (acc + v * base) % p
        return acc

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
    """out[key] += c in a sparse dict of LaurentPoly coefficients; a key
    whose sum is zero is dropped.  A new key holds c itself."""
    s = out.get(key)
    if s is not None:
        c = s + c
    if c:
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
    for p in (f, g):
        if len(p.c) == 1 and abs(next(iter(p.c.values()))) == 1:
            return ONE   # a unit +-q^k
    _, a = f.to_list()
    _, b = g.to_list()
    c = gcd(*a, *b)
    return LaurentPoly.from_list(0, [c * v for v in _list_gcd(a, b)])


class LaurentFrac:
    """A fraction of Laurent polynomials, reduced so equality is structural."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        if isinstance(num, int):
            num = LaurentPoly.const(num)
        if isinstance(den, int):
            den = LaurentPoly.const(den)
        if not den:
            raise ZeroDivisionError
        if not num:
            self.num, self.den = ZERO, ONE
            return
        g = poly_gcd(num, den)
        if not (g == ONE):
            num = num.divexact(g)
            den = den.divexact(g)
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
        return LaurentFrac(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        r = LaurentFrac.__new__(LaurentFrac)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        other = _frac(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        other = _frac(other)
        if other is NotImplemented:
            return other
        return other - self

    def __mul__(self, other):
        other = _frac(other)
        if other is NotImplemented:
            return other
        return LaurentFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _frac(other)
        if other is NotImplemented:
            return other
        return LaurentFrac(self.num * other.den, self.den * other.num)

    def __str__(self):
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


def _frac(x):
    """x as a LaurentFrac; NotImplemented for an operand of a foreign type."""
    if isinstance(x, LaurentFrac):
        return x
    if isinstance(x, (int, LaurentPoly)):
        return LaurentFrac(x)
    return NotImplemented


def _rank_modular(rows, seed):
    """Lower bound for the rank: the best of evaluations at three random
    points mod a prime."""
    p = (1 << 61) - 1
    rng = random.Random(seed)
    best = 0
    for _ in range(3):
        x = rng.randrange(2, p - 1)
        num = []
        for r in rows:
            num.append({j: v.evaluate_mod(x, p) for j, v in r.items()})
        best = max(best, _int_rank_mod(num, p))
    return best


def _int_rank_mod(rows, p):
    pivot_rows = []
    rank = 0
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
            rank += 1
    return rank


def echelon_reduce(basis, row):
    """Remainder of a sparse row after reduction against an echelon basis,
    a list of (pivot_col, row) pairs with LaurentFrac entries.  The entries
    of `row` may be ints, LaurentPolys or LaurentFracs; `row` is not changed.
    This is the one exact elimination loop of the package."""
    r = {}
    for j, v in row.items():
        if isinstance(v, (int, LaurentPoly)):
            v = LaurentFrac(v)
        if v:
            r[j] = v
    for pc, prow in basis:
        if pc in r:
            f = r[pc] / prow[pc]
            for j, v in prow.items():
                w = r.get(j, LaurentFrac(0)) - f * v
                if w:
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
