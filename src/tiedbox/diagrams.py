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
"""

from functools import lru_cache
from itertools import count

from .setpartitions import SetPartition, _find, _parse_blocks, growth_strings
from .combinatorics import bell, intervals
from . import perms

__all__ = [
    "BUDGET", "BudgetExceeded", "Diagram", "concat", "perm_diagram", "hook",
    "tie", "closure", "boxed_diagram", "is_boxed", "boxed_composition",
    "over", "symmetric_diagrams", "jones_monoid",
    "brauer_monoid", "partition_monoid",
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


def perm_diagram(w):
    """Diagram of a permutation: i joined to n + w(i), so bottom point j
    is labelled like top point w^-1(j)."""
    return Diagram._from_labels(perms.identity(len(w)) + perms.inverse(w))


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


# Number of products a closure may take; also the largest family that a
# direct enumeration builds (see `check_budget`).
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
    """Multiplicative closure of a set of elements under `*`, breadth first
    (for diagrams, concatenation with loops discarded).  Raises
    BudgetExceeded after BUDGET products.
    """
    gens = list(gens)
    seen = dict.fromkeys(gens)  # insertion-ordered: the order found
    frontier = list(seen)
    steps = 0
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                steps += 1
                if steps > BUDGET:
                    raise BudgetExceeded("closure budget exhausted")
                y = x * g
                if y not in seen:
                    seen[y] = None
                    new.append(y)
        frontier = new
    return list(seen)


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
    k-th acts on the k-th box of the composition of their strand counts."""
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


@lru_cache(maxsize=None)
def jones_monoid(n):
    """The Jones (Temperley-Lieb) monoid: closure of identity and hooks."""
    gens = [perm_diagram(perms.identity(n))]
    gens += [hook(n, i) for i in range(1, n)]
    return tuple(closure(gens))


@lru_cache(maxsize=None)
def brauer_monoid(n):
    gens = [perm_diagram(perms.identity(n))]
    gens += [perm_diagram(perms.sgen(n, i)) for i in range(1, n)]
    gens += [hook(n, i) for i in range(1, n)]
    return tuple(closure(gens))


def partition_monoid(n):
    """All bell(2n) diagrams on n strands, uncached; see `check_budget`."""
    check_budget("P_{}", n, (bell(2 * k) for k in count()))
    return list(map(Diagram._from_labels, growth_strings(2 * n)))
