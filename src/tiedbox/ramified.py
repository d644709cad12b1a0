"""Ramified partitions: pairs (I, J) of diagrams on n strands with I finer
than J, multiplied componentwise.  The boxed families BR(M) require J to be
a coarsening of the identity whose top restriction is linear."""

from functools import lru_cache
from itertools import count
from math import factorial

from .combinatorics import bell, boxed_sizes, catalan, compositions, \
    double_factorial_odd
from .setpartitions import SetPartition, all_partitions
from .diagrams import (Diagram, check_budget, perm_diagram, hook, tie,
                       boxed_diagram, boxed_composition, over,
                       symmetric_diagrams, jones_monoid, brauer_monoid,
                       partition_monoid)
from . import perms

__all__ = [
    "Ramified", "gen_s", "gen_e", "gen_e_pair", "gen_z", "gen_d", "gen_z_pair",
    "r_symmetric", "sr_symmetric",
    "br_symmetric", "br_jones", "br_brauer", "br_partition",
    "center",
    "normal_form_brs", "normal_form_srs", "normal_form_brbr",
    "brs_from_word", "srs_from_word", "evaluate_normal_form",
]


class Ramified:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        if left.n != right.n:
            raise ValueError("component strand counts differ")
        if not left.part <= right.part:
            raise ValueError("left component must refine the right one")
        self.left = left
        self.right = right

    @property
    def n(self):
        return self.left.n

    def __mul__(self, other):
        return Ramified(self.left * other.left, self.right * other.right)

    def __eq__(self, other):
        if not isinstance(other, Ramified):
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self):
        return hash((self.left, self.right))

    def __str__(self):
        return f"{self.left.n}; {self.left.part} ; {self.right.part}"

    def __repr__(self):
        return f"Ramified({self})"

    @staticmethod
    def parse(text):
        pieces = [piece.strip() for piece in text.split(";")]
        if len(pieces) != 3:
            raise ValueError(f"bad element {text!r}: expected `n; blocks ; blocks`")
        head, mid, tail = pieces
        n = int(head)
        return Ramified(Diagram(n, SetPartition.parse(mid, 2 * n)),
                        Diagram(n, SetPartition.parse(tail, 2 * n)))


def ramified_identity(n):
    d = perm_diagram(perms.identity(n))
    return Ramified(d, d)


def gen_s(n, i):
    d = perm_diagram(perms.sgen(n, i))
    return Ramified(d, d)


def gen_e(n, i):
    """e_i: identity with strands i, i+1 tied."""
    return gen_e_pair(n, i, i + 1)


def gen_e_pair(n, i, j):
    """e_{i,j}: identity with strands i and j tied."""
    return Ramified(perm_diagram(perms.identity(n)), tie(n, i, j))


def gen_z(n, i):
    """z_i = e_i s_i: tied transposition."""
    return gen_e(n, i) * gen_s(n, i)


def gen_d(n, i):
    """d_i = e_i t_i: tied hook."""
    return Ramified(hook(n, i), tie(n, i, i + 1))


def gen_z_pair(n, r, i, j):
    """z^r_{i,j} = e_{i,j} s_r."""
    return gen_e_pair(n, i, j) * gen_s(n, r)


def from_perm_and_ties(w, ties):
    """The element of R(S_n) with permutation w and tie partition `ties`
    (a SetPartition of the strand set {1..n})."""
    n = len(w)
    blocks = []
    for b in ties.blocks:
        blocks.append(tuple(b) + tuple(n + w[x - 1] for x in b))
    return Ramified(perm_diagram(w), Diagram(n, blocks))


@lru_cache(maxsize=None)
def r_symmetric(n):
    """R(S_n): all (w, arbitrary tie partition); size n! * bell(n), see
    `diagrams.check_budget`."""
    check_budget("R(S_{})", n, (factorial(k) * bell(k) for k in count()))
    out = []
    for w in perms.all_perms(n):
        for ties in all_partitions(n):
            out.append(from_perm_and_ties(w, ties))
    return tuple(out)


@lru_cache(maxsize=None)
def sr_symmetric(n):
    """The singular part sR(S_n): tie partition strictly coarser than
    the trivial one; size n! * (bell(n) - 1)."""
    return tuple(x for x in r_symmetric(n)
                 if x.left.part != x.right.part)


def _boxed_family(name, n, block_family, block_size):
    """All (I, b_mu) with I a horizontal product of block elements; see
    `diagrams.check_budget`."""
    check_budget(f"BR({name}_{{}})", n, boxed_sizes(block_size))
    out = []
    for mu in compositions(n):
        lefts = [Diagram(0, SetPartition([], 0))]
        for m in mu:
            lefts = [over(d, x) for d in lefts for x in block_family(m)]
        b = boxed_diagram(mu)
        out.extend(Ramified(left, b) for left in lefts)
    return out


@lru_cache(maxsize=None)
def br_symmetric(n):
    return tuple(_boxed_family("S", n, symmetric_diagrams, factorial))


@lru_cache(maxsize=None)
def br_jones(n):
    return tuple(_boxed_family("J", n, lambda m: list(jones_monoid(m)), catalan))


@lru_cache(maxsize=None)
def br_brauer(n):
    return tuple(_boxed_family("Br", n, lambda m: list(brauer_monoid(m)),
                               double_factorial_odd))


@lru_cache(maxsize=None)
def br_partition(n):
    return tuple(_boxed_family("P", n, partition_monoid,
                               lambda m: bell(2 * m)))


def center(elements):
    """Brute-force center of a finite monoid given as a list of elements."""
    elements = list(elements)
    return [x for x in elements
            if all(x * y == y * x for y in elements)]


# ---------------------------------------------------------------------------
# normal forms


def perm_of_diagram(d):
    """Extract one-line notation from a permutation diagram."""
    n = d.n
    w = [0] * n
    for b in d.part.blocks:
        if len(b) != 2 or b[0] > n or b[1] <= n:
            raise ValueError("not a permutation diagram")
        w[b[0] - 1] = b[1] - n
    return tuple(w)


def tie_partition(x):
    """The partition of the strand set induced by the right component."""
    return x.right.top()


def chain_pairs(ties):
    """The chain normal form of a set partition of {1..n}: for each block
    {a1 < a2 < ...} the pairs (a1,a2), (a2,a3), ..., blocks by minimum."""
    out = []
    for b in ties.blocks:
        out.extend(zip(b, b[1:]))
    return out


def evaluate_normal_form(nf):
    """Multiply out a normal form record back into a ramified element."""
    n = nf["n"]
    x = ramified_identity(n)
    for (i, j) in nf.get("e_pairs", ()):
        x = x * gen_e_pair(n, i, j)
    if "e_boxes" in nf:
        x = x * Ramified(perm_diagram(perms.identity(n)),
                         boxed_diagram(nf["e_boxes"]))
    for letter in nf.get("z_word", ()):
        x = x * gen_z(n, letter)
    for letter in nf.get("z_pairs", ()):
        r, i, j = letter
        x = x * gen_z_pair(n, r, i, j)
    for i in nf.get("d_word", ()):
        x = x * gen_d(n, i)
    for letter in nf.get("z_word_2", ()):
        x = x * gen_z(n, letter)
    return x


def normal_form_brs(x, word=None):
    """Normal form e * z-word in BR(S_n): e is the boxed part b_mu and the
    word is a reduced word of the permutation (lexicographically least by
    default)."""
    w = perm_of_diagram(x.left)
    mu = boxed_composition(x.right)
    if word is None:
        word = perms.lex_least_word(w)
    else:
        if perms.perm_from_word(len(w), word) != w:
            raise ValueError("word does not match the element")
    return {"n": x.n, "e_boxes": mu, "z_word": tuple(word)}


def brs_from_word(n, mu, word):
    """Build the element e_mu * s-word of BR(S_n) and its normal form using
    exactly the given reduced word."""
    x = Ramified(perm_diagram(perms.identity(n)), boxed_diagram(mu))
    for i in word:
        x = x * gen_z(n, i)
    return x, normal_form_brs(x, word=word)


def normal_form_srs(x, word=None):
    """Normal form of a singular element of R(S_n): the tie chain with its
    first pair folded into decorated generators z^r_{i,j}."""
    n = x.n
    w = perm_of_diagram(x.left)
    ties = tie_partition(x)
    pairs = chain_pairs(ties)
    if not pairs:
        raise ValueError("element is not singular")
    if word is None:
        word = perms.lex_least_word(w)
    else:
        if perms.perm_from_word(n, word) != w:
            raise ValueError("word does not match the element")
    if not word:
        return {"n": n, "e_pairs": tuple(pairs), "z_pairs": ()}
    p1, q1 = pairs[0]
    decorated = []
    for k, r in enumerate(word):
        u = perms.perm_from_word(n, word[:k])
        a, b = u[p1 - 1], u[q1 - 1]
        if a > b:
            a, b = b, a
        decorated.append((r, a, b))
    return {"n": n, "e_pairs": tuple(pairs[1:]),
            "z_pairs": tuple(decorated)}


def srs_from_word(n, pairs, word):
    """Build e_{pairs} * s-word and its normal form using the given word."""
    x = ramified_identity(n)
    for (i, j) in pairs:
        x = x * gen_e_pair(n, i, j)
    for r in word:
        x = x * gen_s(n, r)
    return x, normal_form_srs(x, word=word)


def _brauer_factorization(d):
    """Factor a Brauer diagram as s * t_1 t_3 ... t_(2k-1) * s', choosing the
    canonical (shortest, then lexicographically least) pair of permutations.
    The pairs range over S_n x S_n, within `diagrams.check_budget`, but are
    found by lookup: permutation diagrams are units, so s * hooks * s' = d
    exactly when s * hooks = d * s'^-1, and the s' are filed under
    d * s'^-1 once."""
    if any(len(b) != 2 for b in d.part.blocks):
        raise ValueError("not a Brauer diagram")
    n = d.n
    k = (n - len([b for b in d.part.blocks
                  if b[0] <= n < b[1] and len(b) == 2])) // 2
    check_budget("S_{0} x S_{0}", n, (factorial(m) ** 2 for m in count()))
    hooks = perm_diagram(perms.identity(n))
    for m in range(k):
        hooks = hooks * hook(n, 2 * m + 1)
    by_top = {}
    for s2 in perms.all_perms(n):
        by_top.setdefault(d * perm_diagram(perms.inverse(s2)), []).append(s2)
    best = None
    for s in perms.all_perms(n):
        for s2 in by_top.get(perm_diagram(s) * hooks, ()):
            key = (perms.length(s) + perms.length(s2),
                   perms.lex_least_word(s), perms.lex_least_word(s2))
            if best is None or key < best[0]:
                best = (key, s, s2)
    if best is None:
        raise ValueError("not a Brauer diagram")
    return best[1], k, best[2]


def normal_form_brbr(x):
    """Normal form e * z-word * d-word * z-word in BR(Br_n).

    The Brauer component is factored box by box as s * (hooks at the leading
    odd local positions) * s', so that every generator in the words keeps its
    tie inside the boxed part e.
    """
    mu = boxed_composition(x.right)
    n = x.n
    s_parts, s2_parts, d_word = [], [], []
    offset = 0
    factors = []
    # split the Brauer component at exactly the box boundaries
    cuts = [0]
    for m in mu[:-1]:
        cuts.append(cuts[-1] + m)
    for a, m in zip(cuts, mu):
        pts = list(range(a + 1, a + m + 1)) + \
            list(range(n + a + 1, n + a + m + 1))
        factors.append(Diagram(m, x.left.part.restrict(pts)))
    for m, f in zip(mu, factors):
        s, k, s2 = _brauer_factorization(f)
        s_parts.append(s)
        s2_parts.append(s2)
        d_word.extend(offset + 2 * j + 1 for j in range(k))
        offset += m
    def glue(parts):
        out = []
        shift = 0
        for p in parts:
            out.extend(v + shift for v in p)
            shift += len(p)
        return tuple(out)
    return {"n": n, "e_boxes": mu,
            "z_word": perms.lex_least_word(glue(s_parts)),
            "d_word": tuple(d_word),
            "z_word_2": perms.lex_least_word(glue(s2_parts))}
