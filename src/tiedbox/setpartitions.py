"""Set partitions of {1..n}: the ties on n strands, and (for n = 2m) the
diagrams on m strands.

The refinement order is written I <= J ("I is finer than J").  Linear
partitions (all blocks are intervals) are identified with compositions.
Under join, the set partitions of {1..n} form a monoid (E_I E_J = E_(I join
J)), and `*` is join.

Values are immutable and may be shared (the algebras cache products whose
keys hold set partitions), so nothing changes `blocks`, `size` or `_index`
after construction.
"""

from functools import lru_cache
from math import factorial

from .combinatorics import compositions, intervals

__all__ = ["SetPartition", "all_partitions", "linear_partitions",
           "mobius_linear", "mobius_partition"]


def _find(parent, i):
    """Root of i in a list-based union-find, halving the path on the way."""
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]
    return i


class SetPartition:
    """An immutable set partition of {1..size}; blocks are kept sorted by
    minimum."""

    __slots__ = ("blocks", "size", "_index")

    def __init__(self, blocks, size=None):
        """`size` defaults to the largest point; points of 1..size in no
        block become singletons."""
        bl = [tuple(sorted(b)) for b in blocks]
        elems = {x for b in bl for x in b}
        if len(elems) != sum(map(len, bl)):
            raise ValueError("blocks overlap")
        if size is None:
            size = max(elems, default=0)
        if size < 0:
            raise ValueError(f"negative size {size}")
        if not elems <= set(range(1, size + 1)):
            raise ValueError(f"blocks not inside 1..{size}")
        bl += [(x,) for x in range(1, size + 1) if x not in elems]
        bl.sort(key=lambda b: b[0])
        self.blocks = tuple(bl)
        self.size = size
        self._index = {x: i for i, b in enumerate(bl) for x in b}

    @classmethod
    def _from_labels(cls, labels):
        """The partition of {1..len(labels)} whose blocks are the points
        with equal labels (`labels[k]` is the label of point k + 1).  Points
        are grouped by first occurrence, so the blocks come out sorted and
        ordered by their least point; nothing is re-validated."""
        blocks, index, slot = [], {}, {}
        for x, label in enumerate(labels, 1):
            i = slot.get(label)
            if i is None:
                slot[label] = i = len(blocks)
                blocks.append([x])
            else:
                blocks[i].append(x)
            index[x] = i
        self = object.__new__(cls)
        self.blocks = tuple(map(tuple, blocks))
        self.size = len(labels)
        self._index = index
        return self

    @staticmethod
    def singletons(size):
        return SetPartition((), size)

    def __eq__(self, other):
        # blocks that cover 1..size determine size
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __le__(self, other):
        """Refinement: every block of self lies inside a block of other."""
        if self.size != other.size:
            raise ValueError("different ground sets")
        return all(len({other._index[x] for x in b}) == 1 for b in self.blocks)

    def join(self, other):
        """Least common coarsening."""
        if self.size != other.size:
            raise ValueError("different ground sets")
        # merge the blocks of self that one block of other meets
        parent = list(range(len(self.blocks)))
        index = self._index
        for b in other.blocks:
            root = _find(parent, index[b[0]])
            for x in b[1:]:
                r = _find(parent, index[x])
                if r != root:
                    parent[r] = root
        return SetPartition._from_labels(
            [_find(parent, index[x]) for x in range(1, self.size + 1)])

    def __mul__(self, other):
        return self.join(other)

    def restrict(self, points):
        """The partition induced on `points`, with points[k] renamed k + 1."""
        index = self._index
        return SetPartition._from_labels([index[x] for x in points])

    def type_of(self):
        """Block sizes as a partition (weakly decreasing)."""
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def is_linear(self):
        """True if every block is an interval of consecutive integers."""
        return all(b[-1] - b[0] == len(b) - 1 for b in self.blocks)

    def to_composition(self):
        """Block sizes in order of block minima, for a linear partition."""
        if not self.is_linear():
            raise ValueError("not a linear partition")
        return tuple(len(b) for b in self.blocks)

    @staticmethod
    def from_composition(mu):
        return SetPartition(intervals(mu))

    def act(self, w):
        """Right action of a permutation of 1..size in one-line notation:
        replace x by w(x).  Raises ValueError unless w permutes 1..size."""
        n = self.size
        if sorted(w) != list(range(1, n + 1)):
            raise ValueError(f"{tuple(w)} is not a permutation of 1..{n}")
        labels = [0] * n
        for i, b in enumerate(self.blocks):
            for x in b:
                labels[w[x - 1] - 1] = i
        return SetPartition._from_labels(labels)

    def coarsenings(self):
        """All partitions J with J >= self."""
        blocks = self.blocks
        return [SetPartition([sum((blocks[i - 1] for i in g), ())
                              for g in grouping.blocks], self.size)
                for grouping in all_partitions(len(blocks))]

    def __str__(self):
        return "|".join(",".join(str(x) for x in b) for b in self.blocks)

    def __repr__(self):
        return f"SetPartition({self})"

    @staticmethod
    def parse(text, size):
        blocks = [tuple(int(x) for x in piece.split(","))
                  for piece in text.strip().split("|") if piece.strip()]
        return SetPartition(blocks, size)


@lru_cache(maxsize=None)
def all_partitions(n):
    """All set partitions of {1..n}, as a tuple, by the standard
    restricted-growth recursion in a fixed deterministic order."""
    out = []

    def rec(x, blocks):
        if x > n:
            out.append(SetPartition(blocks, n))
            return
        for b in blocks:
            b.append(x)
            rec(x + 1, blocks)
            b.pop()
        blocks.append([x])
        rec(x + 1, blocks)
        blocks.pop()

    rec(1, [])
    return tuple(out)


def linear_partitions(n):
    """Linear partitions of {1..n}, one per composition of n."""
    return [SetPartition.from_composition(mu) for mu in compositions(n)]


def mobius_linear(i_part, j_part):
    """Mobius function of the lattice of linear partitions (boolean lattice
    of cut positions): (-1)^(#blocks difference) on comparable pairs."""
    if not i_part <= j_part:
        return 0
    return (-1) ** (len(i_part.blocks) - len(j_part.blocks))


def mobius_partition(i_part, j_part):
    """Mobius function of the full partition lattice: the product over
    blocks B of J of (-1)^(k_B - 1) * (k_B - 1)!, where k_B is the number
    of blocks of I inside B."""
    if not i_part <= j_part:
        return 0
    out = 1
    for b in j_part.blocks:
        k = len({i_part._index[x] for x in b})
        out *= (-1) ** (k - 1) * factorial(k - 1)
    return out
