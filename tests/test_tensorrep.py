"""Tensor-space matrix oracle for the tied algebras."""

import gc
import itertools
import random
import weakref

import pytest

from tiedbox import checks, tensorrep
from tiedbox.algebras import BHAlgebra, BTAlgebra
from tiedbox.checks import check_representation
from tiedbox.laurent import Q, QDIFF, matrix_rank
from tiedbox.perms import identity
from tiedbox.setpartitions import all_partitions
from tiedbox.tensorrep import (
    TensorRep,
    flatten_matrix,
    lift,
    mat_add,
    mat_mul,
    one_block_per_type,
)


def copy_matrix(m):
    return {i: dict(row) for i, row in m.items()}


def clear_rows(m):
    for row in m.values():
        row.clear()


def test_defining_relations_and_ranks():
    for rec in check_representation(seed=17):
        assert rec["status"] == "pass", rec


def test_representation_is_a_homomorphism_exhaustive_n2():
    rep = TensorRep(2)
    bt = BTAlgebra(2)
    mats = {k: rep.rho_bt(k) for k in bt.basis()}
    for a in bt.basis():
        for b in bt.basis():
            prod = bt.basis_element(a) * bt.basis_element(b)
            assert mat_mul(mats[a], mats[b]) == rep.rho(prod)


def test_representation_random_pairs_n3():
    rep = TensorRep(3)
    bt = BTAlgebra(3)
    rng = random.Random(23)
    keys = bt.basis()
    mats = {}

    def mat(k):
        if k not in mats:
            mats[k] = rep.rho_bt(k)
        return mats[k]

    for _ in range(60):
        a, b = rng.choice(keys), rng.choice(keys)
        prod = bt.basis_element(a) * bt.basis_element(b)
        assert mat_mul(mat(a), mat(b)) == rep.rho(prod)


def test_faithful_on_small_case():
    rep = TensorRep(2)
    bt = BTAlgebra(2)
    rows = [flatten_matrix(rep.rho_bt(k), rep.dim) for k in bt.basis()]
    assert matrix_rank(rows, mode="exact") == bt.dim() == 4


def test_one_block_per_type_keeps_the_faithful_ranks():
    # rho(x) is zero exactly when it is zero on one block per type
    rep = TensorRep(3, one_block_per_type(3))
    for algebra, rank in ((BTAlgebra(3), 30), (BHAlgebra(3), 11)):
        rows = [flatten_matrix(rep.rho_bt(k), rep.dim) for k in algebra.basis()]
        assert matrix_rank(rows, mode="exact") == algebra.dim() == rank


def test_restriction_matches_tied_boxed_algebra():
    rep = TensorRep(3)
    bh = BHAlgebra(3)
    mats = {k: rep.rho_bt(k) for k in bh.basis()}
    for a in bh.basis():
        for b in bh.basis():
            prod = bh.basis_element(a) * bh.basis_element(b)
            assert mat_mul(mats[a], mats[b]) == rep.rho(prod)


def test_products_return_fresh_rows():
    # G(1) and rho_perm are cached, and a unit coefficient copies their rows
    # into the result: changing the result must not change the cache
    rep = TensorRep(2)
    g1 = copy_matrix(rep.G(1))
    clear_rows(mat_mul(rep.E(1), rep.G(1)))
    clear_rows(mat_add(rep.identity(), rep.G(1)))
    assert rep.G(1) == g1
    bt = BTAlgebra(2)
    for key in bt.basis():
        w = key[1]
        perm = copy_matrix(rep.rho_perm(w))
        clear_rows(rep.rho(bt.basis_element(key)))
        assert rep.rho_perm(w) == perm


def blocks(rep):
    """The blocks of V^(tensor n): sorted multiset of factors -> tensors."""
    out = {}
    for idx in range(rep.dim):
        out.setdefault(tuple(sorted(rep._factors(idx))), []).append(idx)
    return out


def renamings(block, n):
    """Every renaming of a block's factors that numbers its strands into
    1..n in order and permutes the colors, as a map on factors."""
    strands = sorted({i for i, _ in block})
    for image in itertools.combinations(range(1, n + 1), len(strands)):
        smap = dict(zip(strands, image))
        for colors in itertools.permutations(range(1, n + 1)):
            yield lambda f, smap=smap, colors=colors: (smap[f[0]], colors[f[1] - 1])


@pytest.mark.parametrize("n, kept_tensors, kept_blocks", [(2, 7, 4), (3, 76, 16)])
def test_one_block_per_type_is_an_isomorphic_copy(n, kept_tensors, kept_blocks):
    full = TensorRep(n)
    kept = one_block_per_type(n)
    small = TensorRep(n, kept)
    by_block = blocks(full)
    kept_set = {tuple(sorted(full._factors(i))) for i in kept}
    assert len(kept) == kept_tensors and len(kept_set) == kept_blocks
    # whole blocks, in index order
    assert kept == sorted(i for b in kept_set for i in by_block[b])
    operators = ([(full.G(i), small.G(i)) for i in range(1, n)]
                 + [(full.E(i), small.E(i)) for i in range(1, n)]
                 + [(full.rho_ties(p), small.rho_ties(p)) for p in all_partitions(n)])
    for m_full, m_small in operators:
        # on kept tensors the small rep is the full one, and nothing else
        assert m_small == {i: m_full[i] for i in kept if i in m_full}
    for block, tensors in by_block.items():
        # exactly one kept block of this type, reached by some renaming
        onto = {}
        for rename in renamings(block, n):
            image = tuple(sorted(map(rename, block)))
            if image in kept_set:
                onto.setdefault(image, rename)
        assert len(onto) == 1, block
        ((image, rename),) = onto.items()

        def phi(idx):
            return full._tensor_index([rename(f) for f in full._factors(idx)])

        assert sorted(map(phi, tensors)) == by_block[image]
        for m_full, m_small in operators:
            for t in tensors:
                moved = {phi(j): v for j, v in m_full.get(t, {}).items()}
                assert moved == m_small.get(phi(t), {}), (block, t)


def renaming_filter(n):
    """The enumeration `one_block_per_type` replaced: every basis tensor,
    kept if its block is the least renaming of itself."""
    rep = TensorRep(n)
    return [idx for idx in range(rep.dim)
            if (block := tuple(sorted(rep._factors(idx))))
            == tensorrep._least_renaming(block, n)]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_one_block_per_type_equals_the_renaming_filter(n):
    kept = one_block_per_type(n)
    assert type(kept) is list and kept == renaming_filter(n)
    # a new list each call: changing one leaves the next call as it was
    kept.clear()
    assert one_block_per_type(n) == renaming_filter(n)


def test_one_block_per_type_at_four_strands():
    rep = TensorRep(4)
    kept = one_block_per_type(4)
    assert len(kept) == 1_335 and kept == sorted(set(kept))
    assert len({tuple(sorted(rep._factors(i))) for i in kept}) == 76


def corruptions(x, rng):
    """x itself, then three wrong values: x plus a basis element, x without
    one of its terms, and x times q - q^-1."""
    algebra = x.algebra
    k = rng.choice(list(x.terms))
    yield False, x
    yield True, x + algebra.basis_element(rng.choice(algebra.basis()))
    yield True, x - algebra.basis_element(k).scale(x.terms[k])
    yield True, x.scale(QDIFF)


def pairs_n2():
    for algebra in (BTAlgebra(2), BHAlgebra(2)):
        yield from itertools.product([algebra], algebra.basis(), algebra.basis())


def pairs_n3():
    rng = random.Random(31)
    for algebra, count in ((BTAlgebra(3), 60), (BHAlgebra(3), 30)):
        for _ in range(count):
            yield algebra, rng.choice(algebra.basis()), rng.choice(algebra.basis())


@pytest.mark.parametrize("n, pairs", [(2, pairs_n2), (3, pairs_n3)])
def test_blocks_give_the_mismatch_verdict_of_the_full_space(n, pairs):
    # a negative control: wrong products are mismatches on V^(tensor n),
    # and they are so on one block per type too
    full = TensorRep(n)
    small = TensorRep(n, one_block_per_type(n))
    rng = random.Random(n)
    for algebra, a, b in pairs():
        prod = algebra.basis_element(a) * algebra.basis_element(b)
        for wrong, x in corruptions(prod, rng):
            verdicts = [mat_mul(rep.rho_bt(a), rep.rho_bt(b)) != rep.rho(x)
                        for rep in (full, small)]
            assert verdicts == [wrong, wrong], (a, b, x)


@pytest.mark.parametrize("check, kwargs, calls", [
    (checks.check_structure_constants, {"quick": True}, 200),
    (checks.check_structure_constants, {}, 2_968),
    (checks.check_representation, {}, 86),
])
def test_mat_mul_count_of_the_oracle(monkeypatch, check, kwargs, calls):
    # a memo on rho_bt or a dropped product changes these counts
    count = 0
    mul = tensorrep.mat_mul

    def counted(a, b):
        nonlocal count
        count += 1
        return mul(a, b)

    monkeypatch.setattr(tensorrep, "mat_mul", counted)
    monkeypatch.setattr(checks, "mat_mul", counted)
    assert all(rec["status"] == "pass" for rec in check(**kwargs))
    assert count == calls


def test_a_check_frees_its_tensor_rep(monkeypatch):
    # a rep caches its generator matrices on itself, so they go with it
    # when the check that built it returns; and no check builds the
    # operators of all of V^(tensor 3)
    built = []

    class Recorded(TensorRep):
        def __init__(self, *args):
            super().__init__(*args)
            built.append((weakref.ref(self), len(self.tensors), self.dim))

    monkeypatch.setattr(checks, "TensorRep", Recorded)
    for check in (checks.check_structure_constants, checks.check_representation):
        built.clear()
        assert all(rec["status"] == "pass" for rec in check())
        gc.collect()
        assert built and all(ref() is None for ref, _, _ in built), check
        assert all(spanned < dim for _, spanned, dim in built), check


@pytest.mark.parametrize("n", [2, 3])
def test_lifted_rows_are_the_full_space_rows(n):
    full = TensorRep(n)
    small = TensorRep(n, one_block_per_type(n))
    for algebra in (BTAlgebra(n), BHAlgebra(n)):
        for key in algebra.basis():
            want = flatten_matrix(full.rho_bt(key), full.dim)
            got = lift(small.rho_bt(key), n)
            # the same entries, in the same order
            assert list(got.items()) == list(want.items()), key


def wrong_renamings(n):
    """The table of `tensorrep._renamings(n)` through a renaming that first
    reverses the order of each block's strands, keeping the colors: a
    bijection of each block onto its kept block, but not one that carries
    G_i to G_i."""
    rep = TensorRep(n)

    def rev(t):
        f = rep._factors(t)
        strands = sorted({i for i, _ in f})
        flip = dict(zip(strands, reversed(strands)))
        return rep._tensor_index([(flip[i], a) for i, a in f])

    table = tensorrep._renamings(n)
    out = []
    for t in range(rep.dim):
        image, back = table[rev(t)]
        out.append((image, {s: rev(u) for s, u in back.items()}))
    return tuple(out)


@pytest.mark.parametrize("n", [2, 3])
def test_a_wrong_block_row_or_renaming_lifts_to_other_rows(monkeypatch, n):
    # a negative control for the lift: a corrupted block row changes the
    # lifted row, and so does a renaming that does not keep the strands'
    # order, on exactly the keys whose braid part moves a strand
    full = TensorRep(n)
    small = TensorRep(n, one_block_per_type(n))
    wrong = wrong_renamings(n)
    for algebra in (BTAlgebra(n), BHAlgebra(n)):
        keys = algebra.basis()
        want = {k: flatten_matrix(full.rho_bt(k), full.dim) for k in keys}
        for key in keys:
            bad = copy_matrix(small.rho_bt(key))
            t = min(bad)
            s = min(bad[t])
            bad[t][s] = bad[t][s] * Q
            assert lift(bad, n) != want[key], key
        with monkeypatch.context() as m:
            m.setattr(tensorrep, "_renamings", lambda n: wrong)
            moved = [k for k in keys if lift(small.rho_bt(k), n) != want[k]]
        assert moved == [k for k in keys if k[1] != identity(n)]
