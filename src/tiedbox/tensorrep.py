"""Tensor-space representation used as an independent multiplication oracle.

V has basis v_i^a with strand index i and color a, both in {1..n}.  The
algebra acts on V^(tensor n); operators compose left to right, so
rho(xy) = rho(x) . rho(y) with row-vector matrix products.

Matrices are sparse: dict row -> dict col -> LaurentPoly.  `mat_mul`,
`mat_add` and `TensorRep.rho` return fresh row dicts, never a row of an
operand, so a caller may change them without touching the cached generator
matrices; the LaurentPoly entries themselves are immutable and shared.
"""

from functools import lru_cache

from .laurent import ONE, Q, QDIFF, add_term
from .setpartitions import SetPartition
from . import perms

__all__ = ["TensorRep", "mat_mul", "mat_add", "mat_scale", "flatten_matrix"]


def _add_row(out, i, row, c):
    """out[i] += c * row in a sparse matrix, for a nonzero c; a row that
    sums to zero is dropped.  A new row is a copy, never `row` itself."""
    orow = out.get(i)
    if orow is None:
        out[i] = dict(row) if c == ONE else {j: c * w for j, w in row.items()}
        return
    for j, w in row.items():
        add_term(orow, j, c * w)
    if not orow:
        del out[i]


def mat_mul(a, b):
    out = {}
    for i, arow in a.items():
        for k, v in arow.items():
            brow = b.get(k)
            if brow:
                _add_row(out, i, brow, v)
    return out


def mat_add(a, b):
    out = {i: dict(r) for i, r in a.items()}
    for i, row in b.items():
        _add_row(out, i, row, ONE)
    return out


def mat_scale(a, c):
    """c * a for a nonzero c: Z[q, q^-1] has no zero divisors, so no entry
    becomes zero."""
    return {i: {j: v * c for j, v in row.items()} for i, row in a.items()}


def flatten_matrix(m, dim):
    """Sparse row vector over columns (i * dim + j)."""
    return {i * dim + j: v for i, row in m.items() for j, v in row.items()}


class TensorRep:
    """The representation of the braids-and-ties algebra on V^(tensor n),
    restricted along iota1 to the tied-boxed Hecke algebra (z_i acts as
    E_i G_i)."""

    def __init__(self, n):
        self.n = n
        self.vdim = n * n
        self.dim = self.vdim ** n

    def _index(self, factors):
        idx = 0
        for (i, a) in factors:
            idx = idx * self.vdim + (i - 1) * self.n + (a - 1)
        return idx

    def _factors(self, idx):
        out = []
        for _ in range(self.n):
            idx, rem = divmod(idx, self.vdim)
            i, a = divmod(rem, self.n)
            out.append((i + 1, a + 1))
        return tuple(reversed(out))

    def E(self, i):
        return self.rho_ties(SetPartition([(i, i + 1)], self.n))

    @lru_cache(maxsize=None)
    def G(self, i):
        """Braid-type operator on tensor positions i, i+1."""
        out = {}
        for idx in range(self.dim):
            f = self._factors(idx)
            (a_i, a_col) = f[i - 1]
            (b_i, b_col) = f[i]
            swapped = list(f)
            swapped[i - 1], swapped[i] = f[i], f[i - 1]
            jdx = self._index(swapped)
            if a_col != b_col:
                out[idx] = {jdx: ONE}
            elif a_i == b_i:
                out[idx] = {idx: Q}
            elif a_i > b_i:
                out[idx] = {jdx: ONE}
            else:
                out[idx] = {idx: QDIFF, jdx: ONE}
        return out

    def G_inv(self, i):
        """G_i - (q - q^-1) E_i, the inverse of G_i."""
        return mat_add(self.G(i), mat_scale(self.E(i), -QDIFF))

    def Z(self, i):
        return mat_mul(self.E(i), self.G(i))

    def identity(self):
        return {i: {i: ONE} for i in range(self.dim)}

    @lru_cache(maxsize=None)
    def rho_perm(self, w):
        m = self.identity()
        for i in perms.lex_least_word(w):
            m = mat_mul(m, self.G(i))
        return m

    @lru_cache(maxsize=None)
    def rho_ties(self, i_part):
        """Diagonal projector keeping tensors whose colors are constant on
        each block of the tie partition."""
        out = {}
        for idx in range(self.dim):
            f = self._factors(idx)
            ok = all(len({f[x - 1][1] for x in b}) == 1
                     for b in i_part.blocks)
            if ok:
                out[idx] = {idx: ONE}
        return out

    def rho_bt(self, key):
        """Matrix of a braids-and-ties basis element E_I g_w."""
        i_part, w = key
        return mat_mul(self.rho_ties(i_part), self.rho_perm(w))

    def rho(self, x):
        """Matrix of an element of BTAlgebra or (via iota1) BHAlgebra."""
        out = {}
        for key, c in x.terms.items():
            for i, row in self.rho_bt(key).items():
                _add_row(out, i, row, c)
        return out
