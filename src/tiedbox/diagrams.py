"""Partition diagrams on n strands: set partitions of {1..n, n+1..2n},
where i is the i-th top point and n+i the i-th bottom point.

`Diagram` is a `SetPartition` of {1..2n}: it adds n, `*` as concatenation
with loops discarded, `top`, `flip` and its text form `n; blocks`, and it
compares and hashes by the inherited label tuple, never equal to a plain
set partition.  `concat`, `over`, `perm_diagram` and `flip` read the
canonical label tuples of their operands (`_index`) and their block counts
(`_nblocks`), and build from labels through the one label builder, the
inherited `Diagram._from_labels`; `Diagram(n, blocks)` checks parsed input
and the hand-written generators.
The inherited `join`, `act` and `restrict` return plain set partitions.
Concatenation runs through a shared middle row: a list-based union-find
over the blocks of the two factors, joined at the middle points, labels
every outer point and counts the closed middle components (loops).
`times` is `concat` cached, for the ramified monoids and the diagram
algebras, which multiply few distinct pairs many times; `*` is uncached.
`closure` enumerates a generated monoid with one product per new element
or relation (Froidure-Pin), reading every other product off the Cayley
graphs.
"""

from functools import lru_cache
from itertools import count

from .setpartitions import SetPartition, _find, _parse_blocks, growth_strings
from .combinatorics import bell, intervals
from . import perms

__all__ = [
    "BUDGET", "BudgetExceeded", "Diagram", "concat", "times", "perm_diagram",
    "hook", "tie", "closure", "boxed_diagram", "is_boxed", "boxed_composition",
    "over", "symmetric_diagrams", "transposition", "letter_elements",
    "JONES_LETTERS", "BRAUER_LETTERS", "jones_monoid", "brauer_monoid",
    "partition_monoid",
]


class Diagram(SetPartition):
    """A diagram on n strands: a set partition of {1..2n} whose product `*`
    is concatenation with loops discarded."""

    __slots__ = ()

    def __init__(self, n, blocks):
        SetPartition.__init__(self, blocks, 2 * n)

    @property
    def n(self):
        return self.size // 2

    def __mul__(self, other):
        return concat(self, other)[0]

    def top(self):
        """Restriction to the top points, as a partition of {1..n}."""
        return self.restrict(range(1, self.n + 1))

    def flip(self):
        """Swap top and bottom (the diagram antiautomorphism)."""
        index, n = self._index, self.n
        return Diagram._from_labels(index[n:] + index[:n])

    def __str__(self):
        return f"{self.n}; {SetPartition.__str__(self)}"

    def __repr__(self):
        return f"Diagram({self})"

    @staticmethod
    def parse(text):
        head, _, rest = text.partition(";")
        return Diagram(int(head), _parse_blocks(rest))


def concat(d1, d2):
    """Concatenate (d1 on top of d2).  Returns (diagram, loops)."""
    if d1.size != d2.size:
        raise ValueError("different strand counts")
    n = d1.size // 2
    index1, index2 = d1._index, d2._index
    # one node per block: those of d1 first, then those of d2; middle
    # point m is bottom point n+m of d1 and top point m of d2
    k = d1._nblocks
    parent = list(range(k + d2._nblocks))
    components = len(parent)
    for a, b in zip(index1[n:], index2[:n]):
        a = _find(parent, a)
        b = _find(parent, k + b)
        if a != b:
            parent[b] = a
            components -= 1
    labels = [_find(parent, i) for i in index1[:n]]
    labels += [_find(parent, k + i) for i in index2[n:]]
    d = Diagram._from_labels(labels)
    return d, components - d._nblocks


@lru_cache(maxsize=None)
def times(d1, d2):
    """`concat(d1, d2)`, cached without bound.  Diagrams are immutable
    values, so a cached product is as good as a new one.  `*` stays
    uncached: a closure makes each product once, and a cache would hold
    every element of it."""
    return concat(d1, d2)


def perm_diagram(w):
    """Diagram of a permutation: i joined to n + w(i), so bottom point j
    is labelled like top point w^-1(j)."""
    return Diagram._from_labels(perms.identity(len(w)) + perms.inverse(w))


def transposition(n, i):
    """The permutation diagram of s_i = (i, i+1)."""
    return perm_diagram(perms.sgen(n, i))


def hook(n, i):
    """The Brauer/Jones hook t_i: blocks {i, i+1} and {i', (i+1)'}."""
    blocks = [(k, n + k) for k in range(1, n + 1) if k not in (i, i + 1)]
    return Diagram(n, blocks + [(i, i + 1), (n + i, n + i + 1)])


def tie(n, i, j):
    """The identity with strands i and j tied."""
    blocks = [(k, n + k) for k in range(1, n + 1) if k not in (i, j)]
    return Diagram(n, blocks + [(i, j, n + i, n + j)])


class BudgetExceeded(RuntimeError):
    """A search stopped at its step or size budget before it finished."""


# Number of (element, generator) steps a closure may take; also the largest
# family that a direct enumeration builds (see `check_budget`).
BUDGET = 10 ** 6


def check_budget(label, n, sizes):
    """Raise BudgetExceeded, before a family on n strands is enumerated, if
    it has more than BUDGET elements.  `sizes` yields the (nondecreasing)
    sizes of the family on 0, 1, 2, ... strands, and `label.format(k)` names
    it on k strands; the check stops at the first size above BUDGET, so it
    is cheap for any n."""
    for k, size in zip(range(n + 1), sizes):
        if size > BUDGET:
            at = "" if k == n else f" >= |{label.format(k)}|"
            raise BudgetExceeded(f"|{label.format(n)}|{at} = {size} "
                                 f"is above the budget {BUDGET}")


def closure(gens):
    """Multiplicative closure of a list of elements under `*` (for
    diagrams, concatenation with loops discarded): the generators without
    repeats, then the other elements breadth first, enumerated by Froidure
    and Pin's algorithm (1997) in `_froidure_pin`.  Raises BudgetExceeded
    after BUDGET (element, generator) steps.
    """
    return _froidure_pin(gens)[0]


def _froidure_pin(gens):
    """The closure of `gens` under `*` and its right and left Cayley
    graphs, after Froidure and Pin ("Algorithms for computing finite
    semigroups", 1997).  Returns (elements, right, left), with
    elements[right[i][b]] == elements[i] * gens[b] and
    elements[left[i][b]] == gens[b] * elements[i].

    Order.  Letter b stands for gens[b].  The least word of an element is
    its first word in the shortlex order (shorter first, then
    lexicographic by letter), and a prefix of a least word is a least
    word.  The elements are listed in the shortlex order of their least
    words: the generators without repeats (a repeated generator keeps its
    first letter), then, length by length, each new product i * b in the
    order of the pairs (i, b), by i and then by b.  The least word of a
    new product is that of the first pair that makes it, so this order is
    shortlex, and it is the order of a breadth-first search that
    multiplies every element found by every generator.

    Bookkeeping.  Each element keeps its first and last letter and, as
    element indices, its prefix and suffix: its least word without the
    last or the first letter (None for a generator).  So i * b was new at
    the pair (i, b), and the least word of i followed by b is a least
    word, exactly when i * b has prefix i and last letter b.

    The one rule.  Let i have first letter a and suffix s.  If s * b = r
    was not new, the word of i followed by b is not least, and
    i * b = a.r = (a.prefix(r)).last(r) = right[q][last(r)], where
    q = left[prefix(r)][a], or q = gen(a) when r is a generator.  The
    least word of r is below s.b, so a.prefix(r) is shorter than the word
    of i, or as long and below it, or equal to it with last(r) before b:
    q is an element before i, whose row is done, or i itself, with its
    product by last(r) made.  So a derived product is an element already
    found, and a product is made only for the other pairs.  The left rows
    of the elements of one length are read off the right graph once that
    length is done: left[j][a] = right[left[prefix(j)][a]][last(j)], and
    left[prefix(j)][a] is no longer than j.

    Raises BudgetExceeded after BUDGET steps, one per (element, generator)
    pair, made or read: the steps of the breadth-first search, so both
    stop at the same pair.
    """
    gens = list(gens)
    elements, index, gen, first = [], {}, [], []
    for b, g in enumerate(gens):
        if g not in index:
            index[g] = len(elements)
            elements.append(g)
            first.append(b)
        gen.append(index[g])
    last = first[:]
    prefix = [None] * len(elements)
    suffix = prefix[:]
    right, left = [], []
    letters = range(len(gens))
    steps = start = 0
    while start < len(elements):
        end = len(elements)
        for i in range(start, end):
            a, s = first[i], suffix[i]
            row = [None] * len(gens)
            right.append(row)
            for b in letters:
                steps += 1
                if steps > BUDGET:
                    raise BudgetExceeded("closure budget exhausted")
                if s is not None:
                    r = right[s][b]
                    p = prefix[r]
                    if p != s or last[r] != b:  # s * b was not new
                        q = gen[a] if p is None else left[p][a]
                        row[b] = right[q][last[r]]
                        continue
                y = elements[i] * gens[b]
                j = index.get(y)
                if j is None:
                    j = index[y] = len(elements)
                    elements.append(y)
                    first.append(a)
                    last.append(b)
                    prefix.append(i)
                    suffix.append(gen[b] if s is None else right[s][b])
                row[b] = j
        for j in range(start, end):
            p, c = prefix[j], last[j]
            qs = gen if p is None else left[p]
            left.append([right[q][c] for q in qs])
        start = end
    return elements, right, left


def boxed_diagram(mu):
    """b_mu: the coarsening of the identity given by a composition."""
    n = sum(mu)
    return Diagram(n, [(*box, *(n + x for x in box)) for box in intervals(mu)])


def is_boxed(d):
    """Boxed: coarsens the identity and the top restriction is linear."""
    n = d.n
    ident = perm_diagram(perms.identity(n))
    return ident <= d and d.top().is_linear()


def boxed_composition(d):
    """The composition mu with d == b_mu, for a boxed diagram."""
    if not is_boxed(d):
        raise ValueError("not a boxed diagram")
    return d.top().to_composition()


def over(*ds):
    """Horizontal product of diagrams, side by side from left to right: the
    k-th acts on the k-th box of the composition of their strand counts.
    One diagram is its own horizontal product: the labels are its own, and
    a diagram is an immutable value, so it is returned as it is."""
    if len(ds) == 1:
        return ds[0]
    top, bottom, shift = [], [], 0
    for d in ds:
        index, m = d._index, d.n
        # the labels of d, shifted past the blocks of the diagrams before it
        top += [shift + i for i in index[:m]]
        bottom += [shift + i for i in index[m:]]
        shift += d._nblocks
    return Diagram._from_labels(top + bottom)


def symmetric_diagrams(n):
    return [perm_diagram(w) for w in perms.all_perms(n)]


def letter_elements(families, n):
    """The letters of `families` on n strands, family by family: a family
    (letter, make) has the elements make(n, i), i = 1..n-1, named letter1
    .. letter(n-1) by the presentation presets."""
    return [make(n, i) for _, make in families for i in range(1, n)]


JONES_LETTERS = (("t", hook),)
"""Hooks t_i: with the identity they generate J_n, their closure."""
BRAUER_LETTERS = (("s", transposition), ("t", hook))
"""s_i and t_i: with the identity they generate Br_n, their closure."""


@lru_cache(maxsize=None)
def jones_monoid(n):
    """The Jones (Temperley-Lieb) monoid: closure of identity and hooks."""
    gens = [perm_diagram(perms.identity(n))]
    return tuple(closure(gens + letter_elements(JONES_LETTERS, n)))


@lru_cache(maxsize=None)
def brauer_monoid(n):
    """The Brauer monoid: closure of identity, transpositions and hooks."""
    gens = [perm_diagram(perms.identity(n))]
    return tuple(closure(gens + letter_elements(BRAUER_LETTERS, n)))


def partition_monoid(n):
    """All bell(2n) diagrams on n strands, uncached; see `check_budget`."""
    check_budget("P_{}", n, (bell(2 * k) for k in count()))
    return list(map(Diagram._from_labels, growth_strings(2 * n)))
