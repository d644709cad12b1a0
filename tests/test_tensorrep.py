"""Tensor-space matrix oracle for the tied algebras."""

import random

from tiedbox.algebras import BHAlgebra, BTAlgebra
from tiedbox.checks import check_representation
from tiedbox.laurent import matrix_rank
from tiedbox.tensorrep import TensorRep, flatten_matrix, mat_add, mat_mul


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
