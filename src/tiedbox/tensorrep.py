"""Tensor-space representation used as an independent multiplication oracle.

V has basis v_i^a with strand index i and color a, both in {1..n}.  The
algebra acts on V^(tensor n); operators compose left to right, so
rho(xy) = rho(x) . rho(y) with row-vector matrix products.

Matrices are sparse: dict row -> dict col -> LaurentPoly.  `mat_mul`,
`mat_add` and `TensorRep.rho` return fresh row dicts, never a row of an
operand, so a caller may change them without touching the cached generator
matrices; the LaurentPoly entries themselves are immutable and shared.

A `TensorRep` may span only some of the basis tensors (`tensors`); its
matrices then have rows for those tensors only, at their V^(tensor n)
indices.  `one_block_per_type(n)` gives a list for which this restriction
is exact for any identity between products of the operators:

- A block is the span of the tensors whose factors (strand, color) form one
  multiset.  G_i sends a tensor to a combination of itself and the tensor
  with factors i, i+1 swapped, and a tie projector E_I keeps or kills it,
  so G_i, G_i^-1 = G_i - (q - q^-1) E_i and every E_I map each block into
  itself.  Every matrix rho(x) is block-diagonal, and so is
  D = rho(a) rho(b) - rho(a b) for any two elements a, b.
- On a block, G_i and E_I look only at whether two colors are equal and at
  how two strands compare (<, =, >).  Renaming the strands keeping their
  order and the colors by any bijection maps a block bijectively onto
  another block, and carries every G_i and E_I on the first to the same
  operator on the second (conjugation by a permutation of basis tensors).
  Blocks related so are of one type.
- So D is zero on V^(tensor n) exactly when it is zero on one block of each
  type: a product table has the same number of mismatches, right or wrong,
  on the span of these blocks as on the whole space.  At n = 3 that is 76
  of the 729 basis tensors, in 16 blocks; at n = 4, 1,335 of 65,536 in 76.

The same holds for any D in the operators G_i and E_I, such as a relation
between them (the relation records of `checks.check_representation`, on
these blocks), and for D = rho(x): it is zero exactly when it is zero on
these blocks, so the images of a basis have the same rank there as on all
of V^(tensor n).

Read backwards, the argument lifts: a matrix M in the operators G_i and E_I
is known on all of V^(tensor n) from its rows on one block per type.  One
pass over the blocks (`_renamings`) renames each block onto the least
block of its type; the kept blocks are those it leaves fixed.  If the
renaming of t's block sends t to r(t), then M[t, s] = M[r(t), r(s)], so
`lift` gives row t the row of r(t), its columns renamed back.  The
faithful-rank rows of `checks.check_representation` are lifted so: equal,
entry for entry and in order, to `flatten_matrix` of the operators on the
whole space, which no check builds.
"""

from functools import lru_cache, wraps
from itertools import combinations_with_replacement, permutations, product

from .laurent import ONE, Q, QDIFF, add_term
from .setpartitions import SetPartition
from . import perms

__all__ = ["TensorRep", "one_block_per_type", "lift", "mat_mul", "mat_add",
           "mat_scale", "flatten_matrix"]


def _add_row(out, i, row, c):
    """out[i] += c * row in a sparse matrix, for a nonzero c; a row that
    sums to zero is dropped.  A new row is a copy, never `row` itself."""
    orow = out.get(i)
    if orow is None:
        out[i] = dict(row) if c is ONE else {j: c * w for j, w in row.items()}
        return
    for j, w in row.items():
        add_term(orow, j, w if c is ONE else c * w)
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


def _memo(method):
    """Cache a one-argument method in a dict on the instance, so the cached
    matrices are freed with their `TensorRep` (a `functools.lru_cache` on
    the class would keep every instance alive for the life of the process)."""
    name = method.__name__

    @wraps(method)
    def cached(self, arg):
        key = (name, arg)
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = method(self, arg)
        return out

    return cached


class TensorRep:
    """The representation of the braids-and-ties algebra on V^(tensor n),
    restricted along iota1 to the tied-boxed Hecke algebra (z_i acts as
    E_i G_i), on the span of the basis tensors `tensors` (default: all of
    range(dim)), which must be a union of blocks."""

    def __init__(self, n, tensors=None):
        self.n = n
        self.vdim = n * n
        self.dim = self.vdim ** n
        self.tensors = range(self.dim) if tensors is None else tensors
        self._memo = {}

    def _tensor_index(self, factors):
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

    @_memo
    def G(self, i):
        """Braid-type operator on tensor positions i, i+1."""
        out = {}
        for idx in self.tensors:
            f = self._factors(idx)
            (a_i, a_col) = f[i - 1]
            (b_i, b_col) = f[i]
            swapped = list(f)
            swapped[i - 1], swapped[i] = f[i], f[i - 1]
            jdx = self._tensor_index(swapped)
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
        return {i: {i: ONE} for i in self.tensors}

    @_memo
    def rho_perm(self, w):
        m = self.identity()
        for i in perms.lex_least_word(w):
            m = mat_mul(m, self.G(i))
        return m

    @_memo
    def rho_ties(self, i_part):
        """Diagonal projector keeping tensors whose colors are constant on
        each block of the tie partition."""
        out = {}
        blocks = i_part.blocks
        for idx in self.tensors:
            f = self._factors(idx)
            ok = all(len({f[x - 1][1] for x in b}) == 1 for b in blocks)
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


def _renaming(block, n):
    """The least multiset of (strand, color) factors into which `block` is
    renamed by numbering its strands 1..k in order and permuting colors,
    and that renaming as a map of factors.  Of the color permutations that
    reach the least multiset it takes the first in lexicographic order, so
    a block that is the least of its type is renamed by the identity."""
    strands = {i: k for k, i in enumerate(sorted({i for i, _ in block}), 1)}
    least, colors = min((tuple(sorted((strands[i], p[a - 1]) for i, a in block)), p)
                        for p in permutations(range(1, n + 1)))
    return least, {(i, a): (strands[i], colors[a - 1]) for i, a in block}


def _least_renaming(block, n):
    """The least multiset into which `block` is renamed."""
    return _renaming(block, n)[0]


@lru_cache(maxsize=None)
def _renamings(n):
    """One pass over the blocks of V^(tensor n).  Entry t is (r(t), back):
    r(t) is the image of basis tensor t under the renaming of its block
    onto the least block of its type, and `back` (one dict per block) sends
    each tensor of that least block to the tensor of t's block renamed
    onto it."""
    index = TensorRep(n)._tensor_index
    out = [None] * (n * n) ** n
    for block in combinations_with_replacement(product(range(1, n + 1), repeat=2), n):
        rename = _renaming(block, n)[1]
        back = {}
        for tensor in set(permutations(block)):
            t, image = index(tensor), index([rename[f] for f in tensor])
            out[t] = image, back
            back[image] = t
    return tuple(out)


def one_block_per_type(n):
    """The basis tensors of V^(tensor n), in index order, of the blocks
    that the renaming onto the least block of their type leaves fixed: a
    new list each call, from one pass over the blocks per n."""
    return [t for t, (image, _) in enumerate(_renamings(n)) if image == t]


def lift(m, n):
    """The flattened row (as `flatten_matrix` gives it) of the operator on
    V^(tensor n) whose rows on `one_block_per_type(n)` are m, for m a
    matrix in the operators G_i and E_I: row t is the row of r(t), its
    columns renamed back into the block of t."""
    renamings = _renamings(n)
    dim = len(renamings)
    return {t * dim + back[s]: v
            for t, (image, back) in enumerate(renamings)
            for s, v in m.get(image, {}).items()}
