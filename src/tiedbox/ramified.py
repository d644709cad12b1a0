"""Ramified partitions: pairs (I, J) of diagrams on n strands with I finer
than J, multiplied componentwise.  The boxed families BR(M) require J to be
a coarsening of the identity whose top restriction is linear.  Each family
has one generating set, read by the presentation presets and `center`."""

from functools import lru_cache, partial
from itertools import count, product
from math import factorial

from .combinatorics import bell, boxed_sizes, catalan, compositions, \
    double_factorial_odd, intervals
from .setpartitions import SetPartition, _parse_blocks, all_partitions
from .diagrams import (BRAUER_LETTERS, JONES_LETTERS, Diagram, check_budget,
                       perm_diagram, hook, tie, transposition, boxed_diagram,
                       boxed_composition, over, letter_elements,
                       symmetric_diagrams, jones_monoid, brauer_monoid,
                       partition_monoid, times)
from . import perms

__all__ = [
    "Ramified", "gen_s", "gen_e", "gen_e_boxes", "gen_e_pair", "gen_z", "gen_d", "gen_z_pair",
    "r_symmetric", "sr_symmetric",
    "br_symmetric", "br_jones", "br_brauer", "br_partition",
    "R_SYMMETRIC_LETTERS", "BR_SYMMETRIC_LETTERS", "BR_JONES_LETTERS",
    "BR_BRAUER_LETTERS", "sr_generators", "GENERATORS", "generators",
    "center",
    "normal_form_brs", "normal_form_srs", "normal_form_brbr",
    "brs_from_word", "srs_from_word", "evaluate_normal_form",
]


class Ramified:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        if not left <= right:
            raise ValueError("left component must refine the right one")
        self.left = left
        self.right = right

    @property
    def n(self):
        return self.left.n

    def __mul__(self, other):
        """Componentwise product, loops discarded, through the cached
        `diagrams.times`: few distinct pairs of diagrams are multiplied many
        times, by `center`, by the relation checks and closures of
        `presentation_check`, whose elements share their components, and by
        the normal-form evaluations."""
        return Ramified(times(self.left, other.left)[0],
                        times(self.right, other.right)[0])

    def __eq__(self, other):
        if not isinstance(other, Ramified):
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self):
        return hash((self.left, self.right))

    def __str__(self):
        return f"{self.left} ; {SetPartition.__str__(self.right)}"

    def __repr__(self):
        return f"Ramified({self})"

    @staticmethod
    def parse(text):
        pieces = [piece.strip() for piece in text.split(";")]
        if len(pieces) != 3:
            raise ValueError(f"bad element {text!r}: expected `n; blocks ; blocks`")
        head, mid, tail = pieces
        n = int(head)
        return Ramified(Diagram(n, _parse_blocks(mid)),
                        Diagram(n, _parse_blocks(tail)))


def ramified_identity(n):
    d = perm_diagram(perms.identity(n))
    return Ramified(d, d)


def gen_s(n, i):
    d = transposition(n, i)
    return Ramified(d, d)


def gen_e(n, i):
    """e_i: identity with strands i, i+1 tied."""
    return gen_e_pair(n, i, i + 1)


def gen_e_boxes(mu):
    """e_mu: identity with strands tied within each box of the
    composition mu."""
    return Ramified(perm_diagram(perms.identity(sum(mu))), boxed_diagram(mu))


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
    (a SetPartition of the strand set {1..n}): bottom point j has the tie
    label of top point w^-1(j)."""
    labels = ties._index
    below = tuple(labels[v - 1] for v in perms.inverse(w))
    return Ramified(perm_diagram(w), Diagram._from_labels(labels + below))


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
                 if x.left != x.right)


def _boxed_family(name, n, block_family, block_size):
    """All (I, b_mu) with I a horizontal product of block elements; see
    `diagrams.check_budget`.  The block elements of each size m = 1..n are
    built once, not once per part of every composition."""
    check_budget(f"BR({name}_{{}})", n, boxed_sizes(block_size))
    blocks = {m: block_family(m) for m in range(1, n + 1)}
    out = []
    for mu in compositions(n):
        b = boxed_diagram(mu)
        out.extend(Ramified(over(*ds), b)
                   for ds in product(*(blocks[m] for m in mu)))
    return out


@lru_cache(maxsize=None)
def br_symmetric(n):
    return tuple(_boxed_family("S", n, symmetric_diagrams, factorial))


@lru_cache(maxsize=None)
def br_jones(n):
    return tuple(_boxed_family("J", n, jones_monoid, catalan))


@lru_cache(maxsize=None)
def br_brauer(n):
    return tuple(_boxed_family("Br", n, brauer_monoid, double_factorial_odd))


def br_partition(n):
    """BR(P_n).  Not cached, unlike the other families: only the
    cardinality check (once per n) and the CLI read it, and at n = 4 its
    5,373 elements would stay alive for the rest of the run."""
    return tuple(_boxed_family("P", n, partition_monoid,
                               lambda m: bell(2 * m)))


def sr_generators(n):
    """The ties e_{i,j}, i < j, then the z^r_{i,j} = e_{i,j} s_r, r by r:
    they generate sR(S_n) as a semigroup (its presentation, `preset_srsn`)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return [gen_e_pair(n, i, j) for i, j in pairs] + \
        [gen_z_pair(n, r, i, j) for r in range(1, n) for i, j in pairs]


R_SYMMETRIC_LETTERS = (("e", gen_e), ("s", gen_s))
"""Ties e_i and s_i generate R(S_n) (its presentation, `preset_rsn`)."""
BR_SYMMETRIC_LETTERS = (("e", gen_e), ("z", gen_z))
"""With the identity, ties e_i and z_i generate BR(S_n): e_mu * z-words."""
BR_JONES_LETTERS = (("e", gen_e), ("d", gen_d))
"""With the identity, e_i and d_i generate BR(J_n) (the paper's theorem)."""
BR_BRAUER_LETTERS = (("e", gen_e), ("z", gen_z), ("d", gen_d))
"""With the identity, e_i, z_i, d_i generate BR(Br_n) (the paper's theorem)."""

GENERATORS = {sr_symmetric: sr_generators} | {
    family: partial(letter_elements, letters) for family, letters in (
        (jones_monoid, JONES_LETTERS), (brauer_monoid, BRAUER_LETTERS),
        (r_symmetric, R_SYMMETRIC_LETTERS), (br_jones, BR_JONES_LETTERS),
        (br_symmetric, BR_SYMMETRIC_LETTERS), (br_brauer, BR_BRAUER_LETTERS))}


def generators(family, n):
    """The list that generates family(n) with the identity (sR(S_n) without
    it); P_n and BR(P_n) have none, so it is all their elements."""
    return GENERATORS.get(family, family)(n)


def center(elements, generators):
    """The x of a finite monoid or semigroup that commute with each of
    `generators`, a list that generates it with the identity: x then
    commutes with every product of them."""
    return [x for x in elements if all(x * g == g * x for g in generators)]


# ---------------------------------------------------------------------------
# normal forms


def perm_of_diagram(d):
    """Extract one-line notation from a permutation diagram: its top labels
    are 0..n-1, and bottom point j has the label of top point w^-1(j)."""
    n = d.n
    index = d._index
    below = [i + 1 for i in index[n:]]
    if index[:n] != tuple(range(n)) or sorted(below) != list(range(1, n + 1)):
        raise ValueError("not a permutation diagram")
    return perms.inverse(below)


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
        x = x * gen_e_boxes(nf["e_boxes"])
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
    if sum(mu) != n:
        raise ValueError(f"{mu} is not a composition of {n}")
    x = gen_e_boxes(mu)
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
    The pairs range over S_n x S_n but are found by lookup: permutation
    diagrams are units, so s * hooks * s' = d exactly when s * hooks =
    d * s'^-1, and the s' are filed under d * s'^-1 once.  S_n is
    enumerated twice, and the 2 * n! products of n strands built on the way
    are kept within `diagrams.check_budget`."""
    blocks = d.blocks
    if any(len(b) != 2 for b in blocks):
        raise ValueError("not a Brauer diagram")
    n = d.n
    k = (n - len([b for b in blocks if b[0] <= n < b[1]])) // 2
    check_budget("2 x S_{0} x {0} strands", n,
                 (2 * m * factorial(m) for m in count()))
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
    # split the Brauer component at exactly the box boundaries
    for box in intervals(mu):
        points = [*box, *(n + p for p in box)]
        f = Diagram._from_labels(x.left.restrict(points)._index)
        s, k, s2 = _brauer_factorization(f)
        s_parts.append(s)
        s2_parts.append(s2)
        d_word.extend(box[2 * j] for j in range(k))
    return {"n": n, "e_boxes": mu,
            "z_word": perms.lex_least_word(perms.glue(s_parts)),
            "d_word": tuple(d_word),
            "z_word_2": perms.lex_least_word(perms.glue(s2_parts))}
