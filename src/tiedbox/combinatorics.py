"""Compositions, integer partitions, tableaux and the counting functions
used throughout the package.  Everything is exact integer arithmetic.

A tableau is a tuple of rows, each a tuple of entries; a multitableau is a
tuple of tableaux."""

from functools import lru_cache
from math import comb, factorial

__all__ = [
    "compositions", "int_partitions", "conjugate",
    "bell", "catalan", "double_factorial_odd", "boxed_sizes", "bn_alpha",
    "dominates", "standard_tableaux", "multipartitions_of_composition",
    "initial_kind_multitableaux", "d_of_multitableau", "composition_join",
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


def standard_tableaux(lam):
    """All standard tableaux of shape lam, sorted by row reading word."""
    n = sum(lam)
    out = []
    rows = [[] for _ in lam]

    def rec(x):
        if x > n:
            out.append(tuple(map(tuple, rows)))
            return
        for i, m in enumerate(lam):
            if len(rows[i]) < m and (i == 0 or len(rows[i - 1]) > len(rows[i])):
                rows[i].append(x)
                rec(x + 1)
                rows[i].pop()

    rec(1)
    return sorted(out, key=lambda t: [x for r in t for x in r])


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
        blocks = [tuple(tuple(x + shift for x in r) for r in t)
                  for t in standard_tableaux(lam)]
        out = [t + (b,) for t in out for b in blocks]
        shift += sum(lam)
    return out


def d_of_multitableau(ts):
    """The permutation d, in one-line notation, that maps the row-reading
    multitableau of the same multishape (1..n along the rows, component by
    component) onto ts: its reading word."""
    return tuple(x for t in ts for r in t for x in r)


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
