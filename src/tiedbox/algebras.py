"""Algebras over Z[q, q^-1] with distinguished bases:

* HeckeAlgebra: Iwahori-Hecke algebra of S_n, basis h_w.
* TLAlgebra: Temperley-Lieb algebra, basis `diagrams.jones_monoid`, the
  planar (Jones) diagrams, loop parameter q + q^-1.
* BTAlgebra: the algebra of braids and ties, basis E_I g_w over the keys
  (I, w) of R(S_n), `ramified.r_symmetric_keys`.
* BHAlgebra: the tied-boxed Hecke algebra, basis E_I z_w over the keys of
  BR(S_n), I linear and w block-preserving.  It is the subalgebra
  of BTAlgebra spanned by these keys (z_w = E_I g_w), and both multiply by
  the one tied rule of their common base `_Tied`.
* BTLAlgebra: the tied-boxed Temperley-Lieb algebra, basis the keys
  (mu, D) of BR(J_n), a Jones diagram D boxed by a composition mu; it
  multiplies and stars like TLAlgebra.
"""

from functools import lru_cache
from itertools import accumulate, count
from math import factorial

from .laurent import LaurentPoly, ONE, Q, QINV, QDIFF, DELTA, add_term, \
    echelon_insert, echelon_reduce
from .setpartitions import SetPartition, all_partitions, linear_partitions, \
    mobius_linear, mobius_partition
from .diagrams import check_budget, hook, jones_monoid, perm_diagram, times
from .combinatorics import compositions
from .ramified import br_jones_keys, br_symmetric_keys, r_symmetric_keys
from . import perms

__all__ = [
    "AlgebraElement", "HeckeAlgebra", "TLAlgebra", "BTAlgebra", "BHAlgebra",
    "BTLAlgebra", "iota1", "pi2", "hecke_to_tl", "support_partition",
    "ideal_span", "two_sided_products", "reduce_against",
]


class AlgebraElement:
    """A finite linear combination of basis keys of a fixed algebra.  Every
    element is built by `__init__`, which drops zero coefficients and
    refuses any coefficient that is not a LaurentPoly, and is never
    changed; sums and products need two elements of one algebra, and a
    scalar, a LaurentPoly, multiplies through `scale`."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        self.terms = {}
        if terms:
            for k, v in terms.items():
                if v.__class__ is not LaurentPoly:
                    raise TypeError("an algebra element has LaurentPoly coefficients")
                if v:
                    self.terms[k] = v

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.algebra is not other.algebra:
            raise ValueError("elements of different algebras")
        out = dict(self.terms)
        for k, v in other.terms.items():
            add_term(out, k, v)
        return AlgebraElement(self.algebra, out)

    def __neg__(self):
        return AlgebraElement(self.algebra, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        return AlgebraElement(self.algebra, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.algebra is not other.algebra:
            raise ValueError("elements of different algebras")
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c = c1 * c2
                for k, v in self.algebra.mul_basis(k1, k2).items():
                    add_term(out, k, v if c is ONE else v * c)
        return AlgebraElement(self.algebra, out)

    def star(self):
        """The antiautomorphism; `star_key` is a bijection on the keys."""
        star_key = self.algebra.star_key
        return AlgebraElement(self.algebra, {star_key(k): v
                                             for k, v in self.terms.items()})

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
    act on, and `_mul_gen(key, i) -> (up, down or None)`, cached: without
    the two caches `tiedbox cellular --family bh --n 6` took 0.90-1.22 s
    and 35.1 MiB against 0.66-0.77 s and 29.7 MiB (whole process, three
    runs each on 2 shared vCPUs); verify-full showed no resolved difference.

    `mul_basis` is cached too, so the algebras keep a product table: the
    checks read the same products many times (38,945 calls for 12,053
    distinct pairs in the full profile, 7,863 for 670 in the quick one).  A
    product depends only on its start, so `_straighten` is cached per
    start, and the 12,053 pairs share 1,225 straightenings.  The returned
    dict is shared by every pair with that start and must not be changed;
    its one caller, `AlgebraElement.__mul__`, only iterates it."""

    @lru_cache(maxsize=None)
    def mul_basis(self, key1, key2):
        return self._straighten(*self._start(key1, key2))

    @lru_cache(maxsize=None)
    def _straighten(self, key, v):
        """`key` times the letters of a reduced word of v, in turn."""
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
    return (one + x.scale(Q) + y.scale(Q) + (x * y).scale(Q * Q)
            + (y * x).scale(Q * Q) + (x * y * x).scale(Q * Q * Q))


@lru_cache(maxsize=None)
def _join(p, q):
    """p.join(q), cached: the tie partitions that the products of a check
    join repeat (254 distinct pairs in 11,922 joins of the full profile,
    behind the product table), unlike the operands of a closure under
    join."""
    return p.join(q)


@lru_cache(maxsize=None)
def _act(p, w):
    """p.act(w), cached like `_join`."""
    return p.act(w)


@lru_cache(maxsize=None)
def _loop_factor(loops):
    """(q + q^-1) ** loops, the factor of a diagram product."""
    return DELTA ** loops


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

    def generators(self):
        """h_1 .. h_(n-1): h_w is the product of the h_i along a reduced
        word of w, since h_w h_i = h_(w s_i) when the length goes up."""
        return [self.gen(i) for i in range(1, self.n)]

    def _start(self, w, v):
        return w, v

    @lru_cache(maxsize=None)
    def _mul_gen(self, w, i):
        ws = perms.compose(w, perms.sgen(self.n, i))
        return ws, (None if perms.right_longer(w, i) else w)

    def star_key(self, w):
        return perms.inverse(w)

    def steinberg(self, i, j):
        """1 + q h_i + q h_j + q^2 h_i h_j + q^2 h_j h_i + q^3 h_i h_j h_i,
        for |i - j| = 1."""
        return _steinberg_body(self.one(), self.gen(i), self.gen(j))


class TLAlgebra(_Algebra):
    """Basis the Jones diagrams; concatenation, loops become q + q^-1."""

    def one_key(self):
        return perm_diagram(perms.identity(self.n))

    def basis(self):
        return jones_monoid(self.n)

    def hook(self, i):
        return self.basis_element(hook(self.n, i))

    def generators(self):
        """The hooks t_1 .. t_(n-1): every Jones diagram is a product of
        hooks (Jones' normal form), and a product of diagrams is a
        diagram times a power of q + q^-1."""
        return [self.hook(i) for i in range(1, self.n)]

    def mul_basis(self, d1, d2):
        d, loops = times(d1, d2)
        return {d: _loop_factor(loops)}

    def star_key(self, d):
        return d.flip()


# ---------------------------------------------------------------------------


def support_partition(w):
    """Finest linear partition of {1..n} whose blocks are preserved by w: a
    block ends at each i where the running maximum of w is i."""
    mu, start = [], 0
    for i, top in enumerate(accumulate(w, max), 1):
        if top == i:
            mu.append(i - start)
            start = i
    return SetPartition.from_composition(mu)


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

    def star_key(self, key):
        i_part, w = key
        return i_part.act(w), perms.inverse(w)

    def mobius_idempotent(self, i_part):
        """Sum over the tie partitions J of mu(I, J) E_J, by Mobius
        inversion over the lattice of the algebra's tie partitions (mu is
        0 unless I <= J)."""
        ident = perms.identity(self.n)
        return self.element({(j_part, ident):
                             LaurentPoly.const(self._mobius(i_part, j_part))
                             for j_part in self._ties(self.n)})

    def steinberg(self, i, j):
        """e_i e_j (1 + q x_i + q x_j + q^2 x_i x_j + q^2 x_j x_i
        + q^3 x_i x_j x_i) for |i - j| = 1, where x is the braid generator
        of the algebra: g in BT, z in BH."""
        body = _steinberg_body(self.one(), self.braid(i), self.braid(j))
        return self.e(i) * self.e(j) * body


class BTAlgebra(_Tied):
    """Algebra of braids and ties; basis E_I g_w with I any set partition
    of {1..n} and w in S_n."""

    _ties = staticmethod(all_partitions)
    _mobius = staticmethod(mobius_partition)

    def basis(self):
        return r_symmetric_keys(self.n)

    def g(self, i):
        return self.basis_element((SetPartition.singletons(self.n),
                                   perms.sgen(self.n, i)))

    braid = g

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

    _ties = staticmethod(linear_partitions)
    _mobius = staticmethod(mobius_linear)

    def basis(self):
        return br_symmetric_keys(self.n)

    def z(self, i):
        return self.basis_element((_tie(self.n, i), perms.sgen(self.n, i)))

    def generators(self):
        """e_1 .. e_(n-1), then z_1 .. z_(n-1): E_I is the product of the
        e_i with i, i + 1 in one block of I, and E_I z_w is E_I times the
        z_i along a reduced word of w in S_I (each tie e_i lies in I)."""
        return ([self.e(i) for i in range(1, self.n)]
                + [self.z(i) for i in range(1, self.n)])

    braid = z

    def z_of(self, w):
        """z_w as a basis element (support partition, w)."""
        return self.basis_element((support_partition(w), w))

    def d(self, i):
        """d_i = q^-1 e_i + z_i."""
        return self.e(i).scale(QINV) + self.z(i)


class BTLAlgebra(_Algebra):
    """Tied-boxed Temperley-Lieb algebra: a key (mu, D) is the element of
    BR(J_n) with D = over(*ds), one Jones diagram per box of mu, boxed by
    b_mu.  Keys over one composition multiply and star like TL(n)
    diagrams, as D stacks box by box; keys over two compositions multiply
    to zero (they sit under orthogonal central idempotents)."""

    def generators(self):
        """pi2 of e_1 .. e_(n-1), then of d_1 .. d_(n-1): `pi2` maps the
        tied-boxed Hecke algebra onto this one, and z_i = d_i - q^-1 e_i,
        so the images of its generators lie in the algebra these generate."""
        bh = BHAlgebra(self.n)
        return [pi2(x) for x in [bh.e(i) for i in range(1, self.n)]
                + [bh.d(i) for i in range(1, self.n)]]

    def one(self):
        ident = TLAlgebra(self.n).one_key()
        return self.element({(mu, ident): ONE for mu in compositions(self.n)})

    def basis(self):
        return br_jones_keys(self.n)

    def mul_basis(self, key1, key2):
        (mu, d1), (nu, d2) = key1, key2
        if mu != nu:
            return {}
        d, loops = times(d1, d2)
        return {(mu, d): _loop_factor(loops)}

    def star_key(self, key):
        mu, d = key
        return mu, d.flip()


# ---------------------------------------------------------------------------
# maps between the algebras


def iota1(x):
    """Embedding of the tied-boxed Hecke algebra into braids and ties:
    E_I z_w -> E_I g_w."""
    return BTAlgebra(x.algebra.n).element(x.terms)


@lru_cache(maxsize=None)
def _hecke_to_tl_basis(n, w):
    """The TL(n) image of h_w: that of w s_i times t_i - q^-1, for i the
    last letter of the least reduced word of w."""
    tl = TLAlgebra(n)
    word = perms.lex_least_word(w)
    if not word:
        return tl.one()
    i = word[-1]
    prefix = _hecke_to_tl_basis(n, perms.compose(w, perms.sgen(n, i)))
    return prefix * (tl.hook(i) - tl.one().scale(QINV))


def hecke_to_tl(x):
    """Projection of the Hecke algebra onto Temperley-Lieb in the diagram
    basis: h_i maps to (hook diagram) - q^-1."""
    n = x.algebra.n
    out = {}
    for w, c in x.terms.items():
        for d, v in _hecke_to_tl_basis(n, w).terms.items():
            add_term(out, d, v * c)
    return TLAlgebra(n).element(out)


def pi2(x):
    """Projection of the tied-boxed Hecke algebra onto the tied-boxed
    Temperley-Lieb algebra: E_I z_w maps to the TL(n) image of h_w under
    each linear K >= I.  As w is in S_I, that image lies in the algebra
    TL(I) of the boxes of I, so its diagrams are boxed by each K."""
    n = x.algebra.n
    lattice = linear_partitions(n)
    out = {}
    for (i_part, w), c in x.terms.items():
        image = _hecke_to_tl_basis(n, w).terms
        for k_part in [K for K in lattice if i_part <= K]:
            mu = k_part.to_composition()
            for d, v in image.items():
                add_term(out, (mu, d), v * c)
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
