"""Set partitions of {1..n}: the ties on n strands, and (for n = 2m) the
diagrams on m strands.

The refinement order is written I <= J ("I is finer than J").  Linear
partitions (all blocks are intervals) are identified with compositions.
Under join, the set partitions of {1..n} form a monoid (E_I E_J = E_(I join
J)), and `*` is join.

A partition stores one form, the canonical label tuple `_index`, whose
entry x - 1 is the number of the block of point x, blocks numbered 0, 1,
... by their least point; beside it, only its length `size`, the block
count `_nblocks` and the hash `_hash`, computed once.  Equality compares
label tuples, the methods read the labels (as blocks are numbered by first
occurrence, a partition is linear exactly when its labels never decrease),
and `blocks` is derived from them on each read.  One canonicaliser,
`_set_labels`, renumbers a label per point by first occurrence.  The
program's own builders emit labels through the one label builder, the
classmethod `_from_labels`, which validates nothing and builds a value of
the class it is called on (`Diagram._from_labels` builds a diagram); the
blocks constructor checks input from outside the program and hand-written
generators, then labels each point by its block.  Only values of one class
are equal: a diagram (`diagrams.Diagram`, a subclass) is never equal to the
tie partition with the same labels, as `*` multiplies the two differently.

Values are immutable and may be shared (the algebras cache products whose
keys hold set partitions), so nothing changes `size`, `_index`, `_nblocks`
or `_hash` after construction.
"""

from collections import Counter
from functools import lru_cache
from math import factorial

from .combinatorics import compositions

__all__ = ["SetPartition", "all_partitions", "growth_strings",
           "linear_partitions", "mobius_linear", "mobius_partition"]


def _find(parent, i):
    """Root of i in a list-based union-find, halving the path on the way."""
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]
    return i


class SetPartition:
    """An immutable set partition of {1..size}, stored as its canonical
    labels."""

    __slots__ = ("size", "_index", "_nblocks", "_hash")

    def __init__(self, blocks, size=None):
        """Checks its input; `size` defaults to the largest point, and points
        of 1..size in no block become singletons."""
        blocks = [tuple(b) for b in blocks]
        if not all(blocks):
            raise ValueError("empty block")
        elems = {x for b in blocks for x in b}
        if len(elems) != sum(map(len, blocks)):
            raise ValueError("blocks overlap")
        if size is None:
            size = max(elems, default=0)
        if size < 0:
            raise ValueError(f"negative size {size}")
        if not elems <= set(range(1, size + 1)):
            raise ValueError(f"blocks not inside 1..{size}")
        # label each point by the first point of its block, or by itself
        labels = list(range(1, size + 1))
        for b in blocks:
            for x in b:
                labels[x - 1] = b[0]
        self._set_labels(labels)

    @classmethod
    def _from_labels(cls, labels):
        """The partition of {1..len(labels)} whose blocks are the points
        with equal labels (`labels[k]` is the label of point k + 1); nothing
        is re-validated."""
        self = object.__new__(cls)
        self._set_labels(labels)
        return self

    def _set_labels(self, labels):
        """The canonicaliser: renumbering the labels by first occurrence
        makes them canonical."""
        slot = {}
        self._index = index = tuple([slot.setdefault(label, len(slot))
                                     for label in labels])
        self.size = len(index)
        self._nblocks = len(slot)
        self._hash = hash(index)

    @property
    def blocks(self):
        """The blocks, each sorted, ordered by least point; derived from the
        labels on each read."""
        blocks = [[] for _ in range(self._nblocks)]
        for x, i in enumerate(self._index, 1):
            blocks[i].append(x)
        return tuple(map(tuple, blocks))

    @staticmethod
    def singletons(size):
        return SetPartition((), size)

    def __eq__(self, other):
        # the canonical labels determine the partition, and their length is
        # the size; a diagram and a tie partition are different monoids
        # under `*`, so values of different classes are never equal
        if type(other) is not type(self):
            return NotImplemented
        return self._index == other._index

    def __hash__(self):
        return self._hash

    def __le__(self, other):
        """Refinement: every block of self lies inside a block of other, that
        is, the label of a point under self determines its label under other."""
        if self.size != other.size:
            raise ValueError("different ground sets")
        return len(set(zip(self._index, other._index))) == self._nblocks

    def join(self, other):
        """Least common coarsening."""
        if self.size != other.size:
            raise ValueError("different ground sets")
        # merge the blocks of self that one block of other meets, each
        # with the block of the first point of other's block (`first`)
        parent = list(range(self._nblocks))
        first = [None] * other._nblocks
        index = self._index
        for i, j in zip(index, other._index):
            root = first[j]
            if root is None:
                first[j] = i
            else:
                root, r = _find(parent, root), _find(parent, i)
                if r != root:
                    parent[r] = root
        return SetPartition._from_labels([_find(parent, i) for i in index])

    def __mul__(self, other):
        return self.join(other)

    def restrict(self, points):
        """The partition induced on `points`, with points[k] renamed k + 1."""
        index = self._index
        return SetPartition._from_labels([index[x - 1] for x in points])

    def type_of(self):
        """Block sizes as a partition (weakly decreasing)."""
        return tuple(sorted(Counter(self._index).values(), reverse=True))

    def is_linear(self):
        """True if every block is an interval of consecutive integers, that
        is, if the labels (numbered by first occurrence) never decrease."""
        index = self._index
        return all(a <= b for a, b in zip(index, index[1:]))

    def to_composition(self):
        """Block sizes in order of block minima, for a linear partition."""
        if not self.is_linear():
            raise ValueError("not a linear partition")
        # a Counter keeps its labels in order of first occurrence
        return tuple(Counter(self._index).values())

    @staticmethod
    def from_composition(mu):
        """The linear partition whose blocks have the sizes mu, in order."""
        return SetPartition._from_labels(
            [k for k, m in enumerate(mu) for _ in range(m)])

    def act(self, w):
        """Right action of a permutation of 1..size in one-line notation:
        replace x by w(x).  Raises ValueError unless w permutes 1..size."""
        n = self.size
        if sorted(w) != list(range(1, n + 1)):
            raise ValueError(f"{tuple(w)} is not a permutation of 1..{n}")
        labels = [0] * n
        for x, i in zip(w, self._index):
            labels[x - 1] = i
        return SetPartition._from_labels(labels)

    def __str__(self):
        return "|".join(",".join(str(x) for x in b) for b in self.blocks)

    def __repr__(self):
        return f"SetPartition({self})"

    @staticmethod
    def parse(text, size):
        return SetPartition(_parse_blocks(text), size)


def _parse_blocks(text):
    """The blocks of the text form `1,3|2`, unchecked."""
    return [tuple(int(x) for x in piece.split(","))
            for piece in text.strip().split("|") if piece.strip()]


def growth_strings(n):
    """The canonical labels of the set partitions of {1..n}: the
    restricted-growth strings, in lexicographic order (Knuth, TAOCP 4A,
    7.2.1.5)."""
    strings = [()]
    for _ in range(n):
        strings = [s + (i,) for s in strings
                   for i in range(max(s, default=-1) + 2)]
    return strings


@lru_cache(maxsize=None)
def all_partitions(n):
    """All set partitions of {1..n}, as a tuple, in the order of their
    restricted-growth label strings (`growth_strings`)."""
    return tuple(map(SetPartition._from_labels, growth_strings(n)))


@lru_cache(maxsize=None)
def linear_partitions(n):
    """Linear partitions of {1..n}, as a tuple, one per composition of n."""
    return tuple(map(SetPartition.from_composition, compositions(n)))


def mobius_linear(i_part, j_part):
    """Mobius function of the lattice of linear partitions (boolean lattice
    of cut positions): (-1)^(#blocks difference) on comparable pairs."""
    if not i_part <= j_part:
        return 0
    return (-1) ** (i_part._nblocks - j_part._nblocks)


def mobius_partition(i_part, j_part):
    """Mobius function of the full partition lattice: the product over
    blocks B of J of (-1)^(k_B - 1) * (k_B - 1)!, where k_B is the number
    of blocks of I inside B."""
    if not i_part <= j_part:
        return 0
    # as I <= J, each block of I lies in one block of J: count them by it
    inside = Counter(j for _, j in set(zip(i_part._index, j_part._index)))
    out = 1
    for k in inside.values():
        out *= (-1) ** (k - 1) * factorial(k - 1)
    return out
