"""Set partitions of finite ground sets of integers.

The refinement order is written I <= J ("I is finer than J").  Linear
partitions (all blocks are intervals) are identified with compositions.

Values are immutable and may be shared (the algebras cache products whose
keys hold set partitions), so nothing changes `blocks`, `ground` or
`_index` after construction.
"""

from functools import lru_cache
from math import factorial

__all__ = ["SetPartition", "all_partitions", "linear_partitions",
           "mobius_linear", "mobius_partition"]


def _find(parent, i):
    """Root of i in a list-based union-find, halving the path on the way."""
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]
    return i


class SetPartition:
    """An immutable set partition; blocks are kept sorted by minimum."""

    __slots__ = ("blocks", "ground", "_index")

    def __init__(self, blocks, ground=None):
        bl = tuple(tuple(sorted(b)) for b in blocks)
        bl = tuple(sorted(bl, key=lambda b: b[0]))
        elems = [x for b in bl for x in b]
        if len(set(elems)) != len(elems):
            raise ValueError("blocks overlap")
        if ground is None:
            ground = elems
        ground = tuple(sorted(ground))
        extra = set(ground) - set(elems)
        if set(elems) - set(ground):
            raise ValueError("blocks not inside the ground set")
        if extra:
            bl = tuple(sorted(bl + tuple((x,) for x in sorted(extra)),
                              key=lambda b: b[0]))
        self.blocks = bl
        self.ground = ground
        self._index = {x: i for i, b in enumerate(bl) for x in b}

    @classmethod
    def _from_labels(cls, ground, labels):
        """The partition of the sorted tuple `ground` whose blocks are the
        points with equal labels (`labels[k]` is the label of `ground[k]`).
        Points are grouped by first occurrence, so the blocks come out
        sorted and ordered by their least point; nothing is re-validated."""
        blocks, index, slot = [], {}, {}
        for x, label in zip(ground, labels):
            i = slot.get(label)
            if i is None:
                slot[label] = i = len(blocks)
                blocks.append([x])
            else:
                blocks[i].append(x)
            index[x] = i
        self = object.__new__(cls)
        self.blocks = tuple(map(tuple, blocks))
        self.ground = ground
        self._index = index
        return self

    @staticmethod
    def singletons(ground):
        return SetPartition([(x,) for x in ground])

    def __eq__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.blocks == other.blocks and self.ground == other.ground

    def __hash__(self):
        return hash((self.blocks, self.ground))

    def __le__(self, other):
        """Refinement: every block of self lies inside a block of other."""
        if self.ground != other.ground:
            raise ValueError("different ground sets")
        return all(len({other._index[x] for x in b}) == 1 for b in self.blocks)

    def join(self, other):
        """Least common coarsening."""
        if self.ground != other.ground:
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
            self.ground, [_find(parent, index[x]) for x in self.ground])

    def restrict(self, subset):
        subset = set(subset)
        return SetPartition([tuple(x for x in b if x in subset)
                             for b in self.blocks if set(b) & subset],
                            tuple(sorted(subset)))

    def type_of(self):
        """Block sizes as a partition (weakly decreasing)."""
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def block_sizes(self):
        """Block sizes in order of block minima."""
        return tuple(len(b) for b in self.blocks)

    def is_linear(self):
        """True if every block is an interval of consecutive integers."""
        return all(b[-1] - b[0] == len(b) - 1 for b in self.blocks) and \
            all(self.ground[i + 1] - self.ground[i] == 1
                for i in range(len(self.ground) - 1))

    def to_composition(self):
        if not self.is_linear():
            raise ValueError("not a linear partition")
        return self.block_sizes()

    @staticmethod
    def from_composition(mu):
        blocks = []
        x = 1
        for m in mu:
            blocks.append(tuple(range(x, x + m)))
            x += m
        return SetPartition(blocks)

    def relabel(self, mapping):
        """Apply an injective relabeling to all elements.  `mapping` is a
        dict or a callable."""
        f = mapping.__getitem__ if isinstance(mapping, dict) else mapping
        return SetPartition([tuple(f(x) for x in b) for b in self.blocks])

    def act(self, w):
        """Right action of a permutation in one-line notation on a partition
        of {1..n}: replace x by w(x).  Raises ValueError unless the ground
        is 1..n and w is a permutation of it."""
        ground = self.ground
        n = len(ground)
        if ground != tuple(range(1, n + 1)):
            raise ValueError(f"act needs the ground 1..n, not {ground}")
        if sorted(w) != list(ground):
            raise ValueError(f"{tuple(w)} is not a permutation of 1..{n}")
        labels = [0] * n
        for i, b in enumerate(self.blocks):
            for x in b:
                labels[w[x - 1] - 1] = i
        return SetPartition._from_labels(ground, labels)

    def coarsenings(self):
        """All partitions J with J >= self."""
        out = []
        for grouping in all_partitions(tuple(range(len(self.blocks)))):
            blocks = [tuple(sorted(x for i in g for x in self.blocks[i]))
                      for g in grouping.blocks]
            out.append(SetPartition(blocks, self.ground))
        return out

    def __str__(self):
        return "|".join(",".join(str(x) for x in b) for b in self.blocks)

    def __repr__(self):
        return f"SetPartition({self})"

    @staticmethod
    def parse(text, ground=None):
        blocks = [tuple(int(x) for x in piece.split(","))
                  for piece in text.strip().split("|") if piece.strip()]
        return SetPartition(blocks, ground)


@lru_cache(maxsize=None)
def _partitions_of_range(n):
    """Set partitions of (1..n) by the standard restricted-growth recursion,
    in a fixed deterministic order."""
    out = []

    def rec(x, blocks):
        if x > n:
            out.append(SetPartition([tuple(b) for b in blocks]))
            return
        for b in blocks:
            b.append(x)
            rec(x + 1, blocks)
            b.pop()
        blocks.append([x])
        rec(x + 1, blocks)
        blocks.pop()

    if n == 0:
        return (SetPartition([], ()),)
    rec(1, [])
    return tuple(out)


def all_partitions(ground):
    """All set partitions of a ground set, as a list."""
    ground = tuple(sorted(ground))
    n = len(ground)
    base = _partitions_of_range(n)
    if ground == tuple(range(1, n + 1)):
        return list(base)
    relabel = {i + 1: x for i, x in enumerate(ground)}
    return [p.relabel(relabel) for p in base]


def linear_partitions(n):
    """Linear partitions of {1..n}, one per composition of n."""
    from .combinatorics import compositions
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
