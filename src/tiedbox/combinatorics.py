"""Compositions, integer partitions, tableaux and the counting functions
used throughout the package.  Everything is exact integer arithmetic."""

from functools import lru_cache
from math import comb, factorial

__all__ = [
    "compositions", "int_partitions", "is_partition", "conjugate",
    "bell", "catalan", "double_factorial_odd", "boxed_sizes", "bn_alpha",
    "dominates", "strictly_dominates",
    "Tableau", "standard_tableaux", "row_reading_tableau", "d_of_tableau",
    "multipartitions_of_composition", "initial_kind_multitableaux",
    "composition_join", "two_column_partitions",
]


def compositions(n):
    """All compositions of n, in lexicographic order."""
    if n == 0:
        return [()]
    out = []
    def rec(rest, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for k in range(1, rest + 1):
            rec(rest - k, prefix + [k])
    rec(n, [])
    return sorted(out)


def int_partitions(n, max_part=None):
    """All partitions of n (weakly decreasing), lexicographically sorted."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for k in range(min(n, max_part), 0, -1):
        for rest in int_partitions(n - k, k):
            out.append((k,) + rest)
    return sorted(out)


def is_partition(lam):
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1)) and \
        all(x > 0 for x in lam)


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > i) for i in range(lam[0]))


@lru_cache(maxsize=None)
def bell(n):
    """Number of set partitions of an n-element set (Bell triangle)."""
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
    return row[-1]


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def double_factorial_odd(n):
    """(2n-1)!!, the number of perfect matchings of a 2n-element set."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def boxed_sizes(block_size):
    """The sizes of a boxed family on 0, 1, 2, ... strands: the sum over the
    compositions mu of k of the products of `block_size(m)` over the parts
    m of mu, by the last part m.  Endless; the sizes are nondecreasing."""
    sizes = [1]
    while True:
        yield sizes[-1]
        k = len(sizes)
        sizes.append(sum(block_size(m) * sizes[k - m] for m in range(1, k + 1)))


def bn_alpha(n, alpha):
    """Number of set partitions of an n-set whose block sizes are the
    partition alpha."""
    if sum(alpha) != n:
        raise ValueError("alpha must be a partition of n")
    mult = {}
    for k in alpha:
        mult[k] = mult.get(k, 0) + 1
    out = factorial(n)
    for k, m in mult.items():
        out //= factorial(k) ** m * factorial(m)
    return out


def ptl_dim(n):
    """Dimension of the planar analogue of the tied algebra on n strands:
    sum over block-size partitions alpha of n of
    bn_alpha(n, alpha)^2 * prod_k catalan(k)^{m_k} * m_k!."""
    total = 0
    for alpha in int_partitions(n):
        mult = {}
        for k in alpha:
            mult[k] = mult.get(k, 0) + 1
        term = bn_alpha(n, alpha) ** 2
        for k, m in mult.items():
            term *= catalan(k) ** m * factorial(m)
        total += term
    return total


def dominates(lam, mu):
    """Dominance order on partitions of the same number."""
    if sum(lam) != sum(mu):
        return False
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def strictly_dominates(lam, mu):
    return lam != mu and dominates(lam, mu)


def two_column_partitions(n):
    """Partitions of n with at most two columns (every part at most 2)."""
    return [lam for lam in int_partitions(n) if not lam or lam[0] <= 2]


class Tableau:
    """A filling of the Young diagram of a partition, rows of entries.

    Nodes are addressed as 1-based (row, col).
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)

    @property
    def shape(self):
        return tuple(len(r) for r in self.rows)

    def entries(self):
        return [x for r in self.rows for x in r]

    def is_standard(self):
        sh = self.shape
        if not is_partition(sh) and sh != ():
            return False
        ent = sorted(self.entries())
        if ent != list(range(1, len(ent) + 1)):
            return False
        for r in self.rows:
            if any(r[i] >= r[i + 1] for i in range(len(r) - 1)):
                return False
        for i in range(1, len(self.rows)):
            for j in range(len(self.rows[i])):
                if self.rows[i - 1][j] >= self.rows[i][j]:
                    return False
        return True

    def act(self, w):
        """Right action: replace each entry x by w(x)."""
        return Tableau(tuple(tuple(w[x - 1] for x in r) for r in self.rows))

    def shift(self, k):
        return Tableau(tuple(tuple(x + k for x in r) for r in self.rows))

    def __eq__(self, other):
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Tableau(%s)" % (self.rows,)


def row_reading_tableau(lam):
    """The row tableau of shape lam: entries 1..n filled along rows."""
    rows = []
    x = 1
    for m in lam:
        rows.append(tuple(range(x, x + m)))
        x += m
    return Tableau(rows)


def standard_tableaux(lam):
    """All standard tableaux of shape lam, sorted by row reading word."""
    n = sum(lam)
    if n == 0:
        return [Tableau(())]
    out = []
    rows = [[] for _ in lam]

    def rec(x):
        if x > n:
            out.append(Tableau(tuple(tuple(r) for r in rows)))
            return
        for i, m in enumerate(lam):
            if len(rows[i]) < m and (i == 0 or len(rows[i - 1]) > len(rows[i])):
                rows[i].append(x)
                rec(x + 1)
                rows[i].pop()

    rec(1)
    return sorted(out, key=lambda t: t.entries())


def d_of_tableau(t):
    """The permutation d with (row tableau of the shape) * d = t."""
    base = row_reading_tableau(t.shape)
    n = sum(t.shape)
    w = [0] * n
    for br, tr in zip(base.rows, t.rows):
        for b, x in zip(br, tr):
            w[b - 1] = x
    return tuple(w)


def multipartitions_of_composition(mu):
    """All tuples of partitions (lam_1, ..., lam_k) with |lam_i| = mu_i."""
    out = [()]
    for m in mu:
        out = [t + (lam,) for t in out for lam in int_partitions(m)]
    return out


def initial_kind_multitableaux(lams):
    """Standard multitableaux of multishape lams with entries of the i-th
    component filling the i-th consecutive interval (initial kind)."""
    out = [()]
    shift = 0
    for lam in lams:
        blocks = [t.shift(shift) for t in standard_tableaux(lam)]
        out = [t + (b,) for t in out for b in blocks]
        shift += sum(lam)
    return out


def d_of_multitableau(ts):
    """Block permutation d with (row multitableau) * d = ts, as one-line."""
    n = sum(sum(t.shape) for t in ts)
    w = [0] * n
    shift = 0
    for t in ts:
        sh = t.shape
        base = row_reading_tableau(sh).shift(shift)
        for br, tr in zip(base.rows, t.rows):
            for b, x in zip(br, tr):
                w[b - 1] = x
        shift += sum(sh)
    return tuple(w)


def composition_join(mu, nu):
    """Join in the lattice of compositions of n ordered by refinement of
    the induced interval partitions (intersection of cut sets)."""
    if sum(mu) != sum(nu):
        raise ValueError("compositions of different numbers")
    n = sum(mu)
    cuts_mu = set()
    acc = 0
    for m in mu[:-1]:
        acc += m
        cuts_mu.add(acc)
    cuts = set()
    acc = 0
    for m in nu[:-1]:
        acc += m
        if acc in cuts_mu:
            cuts.add(acc)
    out = []
    prev = 0
    for c in sorted(cuts) + [n]:
        out.append(c - prev)
        prev = c
    return tuple(out)
