"""Algebras over Z[q, q^-1] with distinguished bases:

* HeckeAlgebra: Iwahori-Hecke algebra of S_n, basis h_w.
* TLAlgebra: Temperley-Lieb algebra, basis the planar (Jones) diagrams,
  loop parameter q + q^-1.
* BTAlgebra: the algebra of braids and ties, basis E_I g_w over all set
  partitions I of the strand set and all permutations w.
* BHAlgebra: the tied-boxed Hecke algebra, basis E_I z_w over linear
  partitions I and block-preserving permutations w.  It is the subalgebra
  of BTAlgebra spanned by these keys (z_w = E_I g_w), and both multiply by
  the one tied rule of their common base `_Tied`.
* BTLAlgebra: the tied-boxed Temperley-Lieb algebra in its block
  decomposition: basis indexed by a composition and one Jones diagram
  per block.
"""

from functools import lru_cache
from itertools import accumulate, combinations, count
from math import factorial

from .laurent import LaurentPoly, ONE, Q, QINV, QDIFF, DELTA, add_term, \
    echelon_insert, echelon_reduce
from .setpartitions import SetPartition, all_partitions, linear_partitions, \
    mobius_linear, mobius_partition
from .diagrams import check_budget, concat, hook, jones_monoid, perm_diagram
from .combinatorics import bell, boxed_sizes, catalan, compositions
from . import perms

__all__ = [
    "AlgebraElement", "HeckeAlgebra", "TLAlgebra", "BTAlgebra", "BHAlgebra",
    "BTLAlgebra", "iota1", "pi2", "hecke_to_tl", "support_partition",
    "ideal_span", "two_sided_products", "reduce_against",
]


def _coeff(c):
    return LaurentPoly.const(c) if isinstance(c, int) else c


class AlgebraElement:
    """A finite linear combination of basis keys of a fixed algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        self.terms = {}
        if terms:
            for k, v in terms.items():
                v = _coeff(v)
                if v:
                    self.terms[k] = v

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == (self.algebra.one() * other).terms
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            add_term(out, k, v)
        r = AlgebraElement(self.algebra)
        r.terms = out
        return r

    def __neg__(self):
        r = AlgebraElement(self.algebra)
        r.terms = {k: -v for k, v in self.terms.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _coeff(c)
        r = AlgebraElement(self.algebra)
        if c:
            r.terms = {k: v * c for k, v in self.terms.items()}
        return r

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if self.algebra is not other.algebra:
            raise ValueError("elements of different algebras")
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c = c1 * c2
                for k, v in self.algebra.mul_basis(k1, k2).items():
                    add_term(out, k, v * c)
        r = AlgebraElement(self.algebra)
        r.terms = out
        return r

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def star(self):
        out = AlgebraElement(self.algebra)
        for k, v in self.terms.items():
            k2, c2 = self.algebra.star_basis(k)
            add_term(out.terms, k2, v * c2)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({v})*[{k}]" for k, v in sorted(
            self.terms.items(), key=lambda kv: repr(kv[0])))


class _Algebra:
    """One cached instance per algebra class and strand count n."""

    _instances = {}

    def __new__(cls, n):
        key = (cls, n)
        if key not in _Algebra._instances:
            obj = super().__new__(cls)
            obj.n = n
            _Algebra._instances[key] = obj
        return _Algebra._instances[key]

    def element(self, terms):
        return AlgebraElement(self, terms)

    def basis_element(self, key):
        return AlgebraElement(self, {key: ONE})

    def zero(self):
        return AlgebraElement(self)

    def one(self):
        return self.basis_element(self.one_key())

    def dim(self):
        return len(self.basis())


class _Straightened(_Algebra):
    """The Hecke, tied and tied-boxed Hecke algebras share the quadratic
    relation g_i^2 = (identity part) + (q - q^-1) g_i.  So a basis key
    times s_i is one key `up` when the length goes up, and `up` plus
    (q - q^-1) times a key `down` otherwise.  Each algebra supplies
    `_start(key1, key2) -> (key, v)`, the key that the letters of v then
    act on, and `_mul_gen(key, i) -> (up, down or None)`, cached like
    every `_mul_gen`."""

    def mul_basis(self, key1, key2):
        key, v = self._start(key1, key2)
        terms = {key: ONE}
        for i in perms.lex_least_word(v):
            out = {}
            for k, c in terms.items():
                up, down = self._mul_gen(k, i)
                add_term(out, up, c)
                if down is not None:
                    add_term(out, down, c * QDIFF)
            terms = out
        return terms


def _steinberg_body(one, x, y):
    """1 + q x + q y + q^2 x y + q^2 y x + q^3 x y x."""
    return (one + x * Q + y * Q + x * y * (Q * Q)
            + y * x * (Q * Q) + x * y * x * (Q * Q * Q))


@lru_cache(maxsize=None)
def _join(p, q):
    """p.join(q), cached: the tie partitions that the products of a check
    join repeat (254 distinct pairs in about 48,000 joins of the full
    profile), unlike the operands of a closure under join."""
    return p.join(q)


@lru_cache(maxsize=None)
def _act(p, w):
    """p.act(w), cached like `_join`."""
    return p.act(w)


@lru_cache(maxsize=None)
def _tie(n, i):
    """The set partition of {1..n} tying i and i+1 only."""
    return SetPartition([(i, i + 1)], n)


# ---------------------------------------------------------------------------


class HeckeAlgebra(_Straightened):
    """Basis h_w, w in S_n; h_i^2 = 1 + (q - q^-1) h_i."""

    def one_key(self):
        return perms.identity(self.n)

    def basis(self):
        check_budget("S_{}", self.n, map(factorial, count()))
        return perms.all_perms(self.n)

    def gen(self, i):
        return self.basis_element(perms.sgen(self.n, i))

    def _start(self, w, v):
        return w, v

    @lru_cache(maxsize=None)
    def _mul_gen(self, w, i):
        ws = perms.compose(w, perms.sgen(self.n, i))
        return ws, (None if perms.right_longer(w, i) else w)

    def star_basis(self, w):
        return perms.inverse(w), ONE

    def steinberg(self, i, j):
        """1 + q h_i + q h_j + q^2 h_i h_j + q^2 h_j h_i + q^3 h_i h_j h_i,
        for |i - j| = 1."""
        return _steinberg_body(self.one(), self.gen(i), self.gen(j))


class TLAlgebra(_Algebra):
    """Basis the Jones diagrams; concatenation, loops become q + q^-1."""

    def one_key(self):
        return perm_diagram(perms.identity(self.n))

    def basis(self):
        return sorted(jones_monoid(self.n), key=lambda d: d.part.blocks)

    def hook(self, i):
        return self.basis_element(hook(self.n, i))

    def mul_basis(self, d1, d2):
        d, loops = concat(d1, d2)
        return {d: DELTA ** loops}

    def star_basis(self, d):
        return d.flip(), ONE


# ---------------------------------------------------------------------------


def support_partition(w):
    """Finest linear partition of {1..n} whose blocks are preserved by w."""
    n = len(w)
    blocks = []
    start = 1
    top = 0
    for i in range(1, n + 1):
        top = max(top, w[i - 1])
        if top == i:
            blocks.append(tuple(range(start, i + 1)))
            start = i + 1
    return SetPartition(blocks)


class _Tied(_Straightened):
    """The tied algebras.  A key (I, w) stands for E_I g_w: a tie
    partition I of {1..n} and w in S_n.  Ties move through braid
    generators by the rule E_I g_w = g_w E_(I.act(w)), which the tests
    check against the ramified monoid.

    The tied-boxed Hecke algebra is the subalgebra spanned by the keys with
    I linear and w in S_I, and the same rule multiplies it: for w in S_I,
    J.act(w^-1) join I = J join I, and every letter of a reduced word of
    v in S_J lies inside a block of J, so the tie a straightening step adds
    lies inside a block of K and K join that tie = K."""

    def one_key(self):
        return (SetPartition.singletons(self.n),
                perms.identity(self.n))

    def e(self, i):
        return self.basis_element((_tie(self.n, i), perms.identity(self.n)))

    def e_of_partition(self, p):
        return self.basis_element((p, perms.identity(self.n)))

    def _start(self, key1, key2):
        (i_part, w), (j_part, v) = key1, key2
        return (_join(i_part, _act(j_part, perms.inverse(w))), w), v

    @lru_cache(maxsize=None)
    def _mul_gen(self, key, i):
        """E_K g_u g_i = E_K g_(u s_i), or, when u s_i is shorter,
        E_K g_(u s_i) + (q - q^-1) E_(K join e_i moved by u s_i) g_u."""
        kp, u = key
        us = perms.compose(u, perms.sgen(self.n, i))
        if perms.right_longer(u, i):
            return (kp, us), None
        return (kp, us), (kp.join(_tie(self.n, i).act(perms.inverse(us))), u)

    def star_basis(self, key):
        i_part, w = key
        return (i_part.act(w), perms.inverse(w)), ONE

    def steinberg(self, i, j):
        """e_i e_j (1 + q x_i + q x_j + q^2 x_i x_j + q^2 x_j x_i
        + q^3 x_i x_j x_i) for |i - j| = 1, where x is the braid generator
        of the algebra: g in BT, z in BH."""
        body = _steinberg_body(self.one(), self.braid(i), self.braid(j))
        return self.e(i) * self.e(j) * body


class BTAlgebra(_Tied):
    """Algebra of braids and ties; basis E_I g_w with I any set partition
    of {1..n} and w in S_n."""

    @lru_cache(maxsize=None)
    def basis(self):
        check_budget("R(S_{})", self.n,
                     (factorial(k) * bell(k) for k in count()))
        return [(p, w) for p in all_partitions(self.n)
                for w in perms.all_perms(self.n)]

    def g(self, i):
        return self.basis_element((SetPartition.singletons(self.n),
                                   perms.sgen(self.n, i)))

    braid = g

    def mobius_idempotent(self, i_part):
        """The central idempotent attached to a set partition, by Mobius
        inversion over the full partition lattice."""
        terms = {}
        for j_part in i_part.coarsenings():
            c = mobius_partition(i_part, j_part)
            if c:
                terms[(j_part, perms.identity(self.n))] = LaurentPoly.const(c)
        return self.element(terms)

    def mobius_type_idempotent(self, alpha):
        """Sum of the Mobius idempotents over all partitions of type alpha."""
        out = self.zero()
        for p in all_partitions(self.n):
            if p.type_of() == tuple(alpha):
                out = out + self.mobius_idempotent(p)
        return out


class BHAlgebra(_Tied):
    """Tied-boxed Hecke algebra; basis E_I z_w with I a linear partition of
    {1..n} and w preserving the blocks of I, where z_w = E_I g_w for the
    finest such I."""

    @lru_cache(maxsize=None)
    def basis(self):
        check_budget("BR(S_{})", self.n, boxed_sizes(factorial))
        out = []
        for p in linear_partitions(self.n):
            for w in perms.young_subgroup(p.to_composition()):
                out.append((p, w))
        return out

    def z(self, i):
        return self.basis_element((_tie(self.n, i), perms.sgen(self.n, i)))

    braid = z

    def z_of(self, w):
        """z_w as a basis element (support partition, w)."""
        return self.basis_element((support_partition(w), w))

    def mobius_idempotent(self, i_part):
        """Mobius idempotent over the lattice of linear partitions."""
        terms = {}
        ident = perms.identity(self.n)
        for j_part in linear_partitions(self.n):
            c = mobius_linear(i_part, j_part)
            if c:
                terms[(j_part, ident)] = LaurentPoly.const(c)
        return self.element(terms)

    def d(self, i):
        """d_i = q^-1 e_i + z_i."""
        return self.e(i) * QINV + self.z(i)


class BTLAlgebra(_Algebra):
    """Tied-boxed Temperley-Lieb algebra in block-decomposed form: each
    basis key is (composition mu, tuple of Jones diagrams per block), and
    keys with different compositions multiply to zero (they sit under
    orthogonal central idempotents)."""

    def one_key(self):
        raise ValueError("the identity is not a single basis key here")

    def one(self):
        out = {}
        for mu in compositions(self.n):
            key = (mu, tuple(perm_diagram(perms.identity(m)) for m in mu))
            out[key] = ONE
        return self.element(out)

    @lru_cache(maxsize=None)
    def basis(self):
        check_budget("BR(J_{})", self.n, boxed_sizes(catalan))
        out = []
        for mu in compositions(self.n):
            tuples = [()]
            for m in mu:
                tuples = [t + (d,) for t in tuples
                          for d in TLAlgebra(m).basis()]
            out.extend((mu, t) for t in tuples)
        return out

    def mul_basis(self, key1, key2):
        (mu, ds), (nu, es) = key1, key2
        if mu != nu:
            return {}
        coeff = ONE
        new = []
        for d, e in zip(ds, es):
            f, loops = concat(d, e)
            new.append(f)
            if loops:
                coeff = coeff * DELTA ** loops
        return {(mu, tuple(new)): coeff}

    def star_basis(self, key):
        mu, ds = key
        return (mu, tuple(d.flip() for d in ds)), ONE


# ---------------------------------------------------------------------------
# maps between the algebras


def iota1(x):
    """Embedding of the tied-boxed Hecke algebra into braids and ties:
    E_I z_w -> E_I g_w."""
    return BTAlgebra(x.algebra.n).element(x.terms)


@lru_cache(maxsize=None)
def _hecke_to_tl_basis(n, w):
    tl = TLAlgebra(n)
    out = tl.one()
    for i in perms.lex_least_word(w):
        out = out * (tl.hook(i) - tl.one() * QINV)
    return out


def hecke_to_tl(x):
    """Projection of the Hecke algebra onto Temperley-Lieb in the diagram
    basis: h_i maps to (hook diagram) - q^-1."""
    n = x.algebra.n
    out = {}
    for w, c in x.terms.items():
        for d, v in _hecke_to_tl_basis(n, w).terms.items():
            add_term(out, d, v * c)
    return TLAlgebra(n).element(out)


def _linear_coarsenings(p):
    """Linear partitions K >= p, for linear p (drop subsets of the cuts);
    the empty partition has itself only."""
    mu = p.to_composition()
    if not mu:
        return [p]
    cuts = list(accumulate(mu[:-1]))
    out = []
    for k in range(len(cuts) + 1):
        for keep in combinations(cuts, k):
            ends = (0, *keep, sum(mu))
            out.append(SetPartition.from_composition(
                tuple(b - a for a, b in zip(ends, ends[1:]))))
    return out


def pi2(x):
    """Projection of the tied-boxed Hecke algebra onto the tied-boxed
    Temperley-Lieb algebra in its block decomposition."""
    n = x.algebra.n
    out = {}
    for (i_part, w), c in x.terms.items():
        for k_part in _linear_coarsenings(i_part):
            mu = k_part.to_composition()
            pieces = [(c, ())]
            for m, w_loc in zip(mu, perms.block_components(w, mu)):
                local = _hecke_to_tl_basis(m, w_loc)
                pieces = [(cc * cl, t + (d,))
                          for cc, t in pieces
                          for d, cl in local.terms.items()]
            for cc, t in pieces:
                add_term(out, (mu, t), cc)
    return BTLAlgebra(n).element(out)


# ---------------------------------------------------------------------------
# spans of two-sided ideals


def basis_index(algebra):
    return {k: i for i, k in enumerate(algebra.basis())}


def coords(x, index):
    return {index[k]: v for k, v in x.terms.items()}


def two_sided_products(algebra, x):
    """The products a x b over all basis keys a and then b, in basis
    order; a x is formed once per a."""
    basis = algebra.basis()
    for a in basis:
        ax = algebra.basis_element(a) * x
        for b in basis:
            yield ax * algebra.basis_element(b)


def ideal_span(algebra, gens):
    """Echelonized row space of the two-sided ideal generated by `gens`.
    Returns (rank, echelon_rows, index)."""
    index = basis_index(algebra)
    rows = []
    for x in gens:
        for axb in two_sided_products(algebra, x):
            if axb:
                echelon_insert(rows, coords(axb, index))
    return len(rows), rows, index


def reduce_against(rows, row):
    """True if a coordinate row lies in the row space of an echelon basis."""
    return not echelon_reduce(rows, row)
