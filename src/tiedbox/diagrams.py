"""Partition diagrams on n strands: set partitions of {1..n, n+1..2n},
where i is the i-th top point and n+i the i-th bottom point.

Concatenation runs through a shared middle row: a list-based union-find
over the blocks of the two factors, joined at the middle points, labels
every outer point and counts the closed middle components (loops).  It
reads the factors' canonical label tuples (`SetPartition._index`) and
builds the product from the outer labels with `SetPartition._from_labels`.
A diagram compares and hashes by its partition's label tuple and the hash
stored with it.
"""

from functools import lru_cache
from itertools import count

from .setpartitions import SetPartition, _find, all_partitions
from .combinatorics import bell, intervals
from . import perms

__all__ = [
    "BUDGET", "BudgetExceeded", "Diagram", "concat", "perm_diagram", "hook",
    "tie", "closure", "boxed_diagram", "is_boxed", "boxed_composition",
    "over", "symmetric_diagrams", "jones_monoid",
    "brauer_monoid", "partition_monoid",
]


class Diagram:
    __slots__ = ("part",)

    def __init__(self, n, part):
        if isinstance(part, (list, tuple)):
            part = SetPartition(part, 2 * n)
        if part.size != 2 * n:
            raise ValueError("diagram must partition {1..2n}")
        self.part = part

    @property
    def n(self):
        return self.part.size // 2

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.part._index == other.part._index

    def __hash__(self):
        return self.part._hash

    def __le__(self, other):
        return self.part <= other.part

    def __mul__(self, other):
        return concat(self, other)[0]

    def top(self):
        """Restriction to the top points, as a partition of {1..n}."""
        return self.part.restrict(range(1, self.n + 1))

    def flip(self):
        """Swap top and bottom (the diagram antiautomorphism)."""
        n = self.n
        return Diagram(n, self.part.act(tuple(range(n + 1, 2 * n + 1)) +
                                        tuple(range(1, n + 1))))

    def __str__(self):
        return f"{self.n}; {self.part}"

    def __repr__(self):
        return f"Diagram({self})"

    @staticmethod
    def parse(text):
        head, _, rest = text.partition(";")
        n = int(head)
        return Diagram(n, SetPartition.parse(rest, 2 * n))


def concat(d1, d2):
    """Concatenate (d1 on top of d2).  Returns (diagram, loops)."""
    p1, p2 = d1.part, d2.part
    if p1.size != p2.size:
        raise ValueError("different strand counts")
    n = p1.size // 2
    index1, index2 = p1._index, p2._index
    # one node per block: those of d1 first, then those of d2; middle
    # point m is bottom point n+m of d1 and top point m of d2
    k = len(p1.blocks)
    parent = list(range(k + len(p2.blocks)))
    components = len(parent)
    for a, b in zip(index1[n:], index2[:n]):
        a = _find(parent, a)
        b = _find(parent, k + b)
        if a != b:
            parent[b] = a
            components -= 1
    labels = [_find(parent, i) for i in index1[:n]]
    labels += [_find(parent, k + i) for i in index2[n:]]
    d = object.__new__(Diagram)
    d.part = SetPartition._from_labels(labels)
    return d, components - len(d.part.blocks)


def perm_diagram(w):
    """Diagram of a permutation: i joined to n + w(i)."""
    n = len(w)
    return Diagram(n, [(i, n + w[i - 1]) for i in range(1, n + 1)])


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
    seen = list(dict.fromkeys(gens))
    frontier = list(seen)
    seen_set = set(seen)
    steps = 0
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                steps += 1
                if steps > BUDGET:
                    raise BudgetExceeded("closure budget exhausted")
                y = x * g
                if y not in seen_set:
                    seen_set.add(y)
                    new.append(y)
        seen.extend(new)
        frontier = new
    return seen


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
    sizes = [d.n for d in ds]
    n = sum(sizes)
    blocks = []
    for d, box in zip(ds, intervals(sizes)):
        at = [*box, *(n + x for x in box)]  # point x of d goes to at[x - 1]
        blocks += [tuple([at[x - 1] for x in b]) for b in d.part.blocks]
    return Diagram(n, blocks)


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
    """All bell(2n) diagrams on n strands; see `check_budget`."""
    check_budget("P_{}", n, (bell(2 * k) for k in count()))
    return [Diagram(n, p) for p in all_partitions(2 * n)]
