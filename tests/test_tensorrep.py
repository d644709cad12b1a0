"""Tensor-space matrix oracle for the tied algebras."""

import random

from tiedbox.algebras import BHAlgebra, BTAlgebra
from tiedbox.checks import check_representation
from tiedbox.laurent import matrix_rank
from tiedbox.tensorrep import TensorRep, flatten_matrix, mat_mul


def test_defining_relations_and_ranks():
    for rec in check_representation(seed=17):
        assert rec["status"] == "pass", rec


def test_representation_is_a_homomorphism_exhaustive_n2():
    rep = TensorRep(2, 2)
    bt = BTAlgebra(2)
    mats = {k: rep.rho_bt(k) for k in bt.basis()}
    for a in bt.basis():
        for b in bt.basis():
            prod = bt.basis_element(a) * bt.basis_element(b)
            assert mat_mul(mats[a], mats[b]) == rep.rho(prod)


def test_representation_random_pairs_n3():
    rep = TensorRep(3, 3)
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
    rep = TensorRep(2, 2)
    bt = BTAlgebra(2)
    rows = [flatten_matrix(rep.rho_bt(k), rep.dim) for k in bt.basis()]
    assert matrix_rank(rows, mode="exact") == bt.dim() == 4


def test_restriction_matches_tied_boxed_algebra():
    rep = TensorRep(3, 3)
    bh = BHAlgebra(3)
    mats = {k: rep.rho_bt(k) for k in bh.basis()}
    for a in bh.basis():
        for b in bh.basis():
            prod = bh.basis_element(a) * bh.basis_element(b)
            assert mat_mul(mats[a], mats[b]) == rep.rho(prod)
