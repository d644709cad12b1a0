"""Verification suite: each function runs one family of checks and returns a
list of line records ``{"name", "expected", "got", "status"}``.

The functions are shared between the test suite and the ``verify-all`` CLI
command.  Every check is exact; ``seed`` only affects the probabilistic
pre-pass of rank computations (which are always confirmed exactly).
"""

import math
from math import comb as binomial, factorial

from . import ramified
from .algebras import (
    BHAlgebra,
    BTAlgebra,
    BTLAlgebra,
    coords,
    ideal_span,
    iota1,
    pi2,
    reduce_against,
    two_sided_products,
)
from .cellular import (
    bh_cellular,
    btl_cellular,
    cell_axiom_check,
    murphy_hecke,
    star_axiom_check,
    tl_cellular,
    transition_matrix,
)
from .combinatorics import (
    bell,
    catalan,
    composition_join,
    compositions,
    double_factorial_odd,
    intervals,
    ptl_dim,
)
from .diagrams import brauer_monoid, jones_monoid
from .laurent import DELTA, QDIFF, matrix_rank
from .presentations import build_preset, presentation_check
from .setpartitions import SetPartition, all_partitions, linear_partitions
from .tensorrep import TensorRep, flatten_matrix, mat_add, mat_mul, mat_scale


def record(name, expected, got):
    return {
        "name": name,
        "expected": expected,
        "got": got,
        "status": "pass" if expected == got else "fail",
    }


def bool_record(name, ok):
    return record(name, True, bool(ok))


# ---------------------------------------------------------------------------
# 1. monoid cardinalities


def check_cardinalities(quick=False):
    recs = []
    targets = [
        ("boxed-symmetric", ramified.br_symmetric, [1, 3, 11, 47, 231]),
        ("boxed-jones", ramified.br_jones, [1, 3, 10, 35, 126]),
        ("boxed-brauer", ramified.br_brauer, [1, 4, 22, 154, 1330]),
        ("boxed-partition", ramified.br_partition, [2, 19, 271, 5373]),
    ]
    for label, family, counts in targets:
        top = min(3, len(counts)) if quick else len(counts)
        for n in range(1, top + 1):
            recs.append(record(f"card:{label}:n={n}", counts[n - 1], len(family(n))))
    recs.append(record("card:singular-ramified-symmetric:n=3",
                       24, len(ramified.sr_symmetric(3))))
    for n in range(1, 4 if quick else 6):
        recs.append(record(f"card:brauer:n={n}",
                           double_factorial_odd(n), len(brauer_monoid(n))))
    for n in range(1, 4 if quick else 7):
        recs.append(record(f"card:jones:n={n}",
                           catalan(n), len(jones_monoid(n))))
    return recs


# ---------------------------------------------------------------------------
# 2. dimension formulas by basis enumeration


def check_dimensions(quick=False):
    recs = []
    for n in range(1, 4 if quick else 5):
        recs.append(record(f"dim:tied:n={n}",
                           factorial(n) * bell(n), BTAlgebra(n).dim()))
    for n in range(1, 4 if quick else 7):
        expected = sum(
            math.prod(factorial(p) for p in mu) for mu in compositions(n)
        )
        recs.append(record(f"dim:tied-boxed-hecke:n={n}", expected, BHAlgebra(n).dim()))
    for n in range(1, 4 if quick else 9):
        by_sum = sum(
            math.prod(catalan(p) for p in mu) for mu in compositions(n)
        )
        recs.append(record(f"dim:tied-boxed-tl-formula:n={n}",
                           binomial(2 * n - 1, n), by_sum))
        if n <= (3 if quick else 6):
            recs.append(record(f"dim:tied-boxed-tl:n={n}",
                               binomial(2 * n - 1, n), BTLAlgebra(n).dim()))
    return recs


# ---------------------------------------------------------------------------
# 3. presentations


PRESENTATION_ROWS = [
    ("pn", 3),
    ("brauer", 3),
    ("brauer", 4),
    ("brsn", 3),
    ("brsn", 4),
    ("brsn-z", 3),
    ("brsn-z", 4),
    ("srsn", 3),
    ("brjn", 3),
    ("brjn", 4),
    ("brbrn", 3),
    ("brbrn-abstract", 3),
    ("rsn", 3),
]


def check_presentations(quick=False):
    recs = []
    for name, n in PRESENTATION_ROWS:
        if quick and n > 3:
            continue
        status = presentation_check(*build_preset(name, n))["status"]
        # an inconclusive verdict stays inconclusive (exit code 2), never pass
        recs.append(dict(record(f"present:{name}:n={n}", "pass", status),
                         status=status))
    return recs


# ---------------------------------------------------------------------------
# 4. tensor representation oracle


def check_representation(seed=0):
    rep = TensorRep(3)
    one = rep.identity()
    e1, e2 = rep.E(1), rep.E(2)
    g1, g2 = rep.G(1), rep.G(2)
    z1, z2 = rep.Z(1), rep.Z(2)
    identities = {
        "rep:tie-idempotent": mat_mul(e1, e1) == e1,
        "rep:ties-commute": mat_mul(e1, e2) == mat_mul(e2, e1),
        "rep:braid": mat_mul(mat_mul(g1, g2), g1) == mat_mul(mat_mul(g2, g1), g2),
        "rep:tie-braid-commute": mat_mul(g1, e1) == mat_mul(e1, g1),
        "rep:tie-transport": (mat_mul(e1, mat_mul(g2, g1))
                              == mat_mul(mat_mul(g2, g1), e2)),
        "rep:tie-sandwich-a": (mat_mul(mat_mul(e1, e2), g2)
                               == mat_mul(mat_mul(e1, g2), e1)),
        "rep:tie-sandwich-b": (mat_mul(mat_mul(e1, g2), e1)
                               == mat_mul(g2, mat_mul(e1, e2))),
        "rep:braid-quadratic": (mat_mul(g1, g1)
                                == mat_add(one, mat_scale(mat_mul(e1, g1), QDIFF))),
        "rep:braid-inverse": mat_mul(g1, rep.G_inv(1)) == one,
        "rep:z-braid": mat_mul(mat_mul(z1, z2), z1) == mat_mul(mat_mul(z2, z1), z2),
        "rep:z-absorbs-tie": mat_mul(e1, z1) == z1,
        "rep:z-tie-commute": mat_mul(e1, z2) == mat_mul(z2, e1),
        "rep:z-quadratic": mat_mul(z1, z1) == mat_add(e1, mat_scale(z1, QDIFF)),
        "rep:conjugated-tie": (rep.rho_ties(SetPartition([(1, 3)], 3))
                               == mat_mul(mat_mul(g1, e2), rep.G_inv(1))),
    }
    recs = [bool_record(name, ok) for name, ok in identities.items()]
    for label, algebra, expected in (
        ("rep:faithful-rank-tied", BTAlgebra(3), 30),
        ("rep:faithful-rank-tied-boxed", BHAlgebra(3), 11),
    ):
        rows = [flatten_matrix(rep.rho_bt(key), rep.dim) for key in algebra.basis()]
        probable = matrix_rank(rows, mode="probabilistic", seed=seed)
        exact = matrix_rank(rows, mode="exact")
        recs.append(record(f"{label}:probabilistic", expected, probable))
        recs.append(record(f"{label}:exact", expected, exact))
    return recs


# ---------------------------------------------------------------------------
# 5. structure constants vs the oracle


def check_structure_constants(quick=False):
    recs = []
    rep = TensorRep(3)
    for label, algebra in (("tied", BTAlgebra(3)), ("tied-boxed-hecke", BHAlgebra(3))):
        keys = algebra.basis()
        if quick:
            keys = keys[: max(6, len(keys) // 5)]
        mats = {k: rep.rho_bt(k) for k in keys}
        bad = 0
        for a in keys:
            for b in keys:
                prod = algebra.basis_element(a) * algebra.basis_element(b)
                if mat_mul(mats[a], mats[b]) != rep.rho(prod):
                    bad += 1
        recs.append(record(f"structure:{label}:n=3:mismatches"
                           + (":sampled" if quick else ""), 0, bad))
    return recs


# ---------------------------------------------------------------------------
# 6. idempotent suite


def _mobius_records(label, algebra, parts, central):
    """The Mobius idempotents of `parts` sum to one, are idempotent and
    pairwise orthogonal, multiply a tie element E_q to themselves when
    q <= p and to zero otherwise, and, if `central`, commute with every
    basis element."""
    idem = {p: algebra.mobius_idempotent(p) for p in parts}
    total = algebra.zero()
    ok_sq = ok_orth = ok_central = ok_table = True
    for p in parts:
        total = total + idem[p]
        ok_sq = ok_sq and idem[p] * idem[p] == idem[p]
        for q in parts:
            if p != q and idem[p] * idem[q]:
                ok_orth = False
            prod = idem[p] * algebra.e_of_partition(q)
            want = idem[p] if q <= p else algebra.zero()
            ok_table = ok_table and prod == want
        for key in algebra.basis() if central else ():
            x = algebra.basis_element(key)
            if idem[p] * x != x * idem[p]:
                ok_central = False
    oks = {"complete": total == algebra.one(), "idempotent": ok_sq,
           "orthogonal": ok_orth}
    if central:
        oks["central"] = ok_central
    oks["table"] = ok_table
    return [bool_record(f"idem:{label}-{name}:n={algebra.n}", ok)
            for name, ok in oks.items()]


def check_idempotents(quick=False):
    recs = []
    for n in (2, 3) if quick else (2, 3, 4):
        recs += _mobius_records("hecke", BHAlgebra(n), linear_partitions(n),
                                central=True)
    for n in (2, 3):
        recs += _mobius_records("tied", BTAlgebra(n),
                                all_partitions(n),
                                central=False)

    # in the full tied algebra only the type-summed idempotents are central
    for n in (2, 3) if quick else (2, 3, 4):
        bt = BTAlgebra(n)
        types = sorted({p.type_of() for p in all_partitions(n)})
        ok = True
        for alpha in types:
            x = bt.mobius_type_idempotent(alpha)
            for key in bt.basis():
                y = bt.basis_element(key)
                if x * y != y * x:
                    ok = False
                    break
            if not ok:
                break
        recs.append(bool_record(f"idem:tied-type-central:n={n}", ok))
    return recs


# ---------------------------------------------------------------------------
# 7. cellular suites


def check_cellular(quick=False):
    recs = []
    top = 3 if quick else 4
    builders = {
        "hecke-murphy": murphy_hecke,
        "tied-boxed-hecke": bh_cellular,
        "tied-boxed-tl": btl_cellular,
        "tl": tl_cellular,
    }
    for label, build in builders.items():
        for n in range(2, top + 1):
            datum = build(n)
            recs.append(record(f"cell:{label}:count:n={n}",
                               datum.algebra.dim(), datum.size()))
            if n <= 3:
                rows, _, _ = transition_matrix(datum)
                rank = matrix_rank(rows, mode="exact")
                recs.append(record(f"cell:{label}:full-rank:n={n}",
                                   datum.size(), rank))
                recs.append(record(f"cell:{label}:star:n={n}", "pass",
                                   star_axiom_check(datum)["status"]))
    for n in (2, 3):
        bh = BHAlgebra(n)
        gens = [bh.e(i) for i in range(1, n)] + [bh.z(i) for i in range(1, n)]
        rep = cell_axiom_check(bh_cellular(n), gens)
        recs.append(record(f"cell:tied-boxed-hecke:axiom:n={n}",
                           "pass", rep["status"]))
        tgens = [pi2(bh.e(i)) for i in range(1, n)] + [pi2(bh.d(i)) for i in range(1, n)]
        rep = cell_axiom_check(btl_cellular(n), tgens)
        recs.append(record(f"cell:tied-boxed-tl:axiom:n={n}",
                           "pass", rep["status"]))
        h = murphy_hecke(n)
        rep = cell_axiom_check(h, [h.algebra.gen(i) for i in range(1, n)])
        recs.append(record(f"cell:hecke-murphy:axiom:n={n}", "pass", rep["status"]))
    return recs


# ---------------------------------------------------------------------------
# 8. quotient and embedding checks


def check_quotients():
    recs = []
    bh = BHAlgebra(3)
    bt = BTAlgebra(3)
    recs.append(bool_record("quot:projected-steinberg-vanishes",
                            not pi2(bh.steinberg(1, 2))))
    # projections of d_i = q^-1 e_i + z_i satisfy the hook relations
    d1, d2 = pi2(bh.d(1)), pi2(bh.d(2))
    e1, e2 = pi2(bh.e(1)), pi2(bh.e(2))
    ok_quad = d1 * d1 == d1.scale(DELTA) and d2 * d2 == d2.scale(DELTA)
    ok_sandwich = (d1 * d2 * d1 == e2 * d1 * e2
                   and d2 * d1 * d2 == e1 * d2 * e1)
    ok_tie = (d1 * e1 == d1 and d2 * e2 == d2
              and d1 * e2 == e2 * d1 and d2 * e1 == e1 * d2)
    recs.append(bool_record("quot:hook-quadratic", ok_quad))
    recs.append(bool_record("quot:hook-sandwich", ok_sandwich))
    recs.append(bool_record("quot:hook-tie", ok_tie))

    rank_bt, rows_bt, index_bt = ideal_span(bt, [bt.steinberg(1, 2)])
    recs.append(record("quot:planar-tied-dim:n=3",
                       ptl_dim(3), bt.dim() - rank_bt))

    # map the corresponding ideal of the tied-boxed Hecke algebra into the
    # tied algebra and verify row-space containment
    contained = True
    for product in two_sided_products(bh, bh.steinberg(1, 2)):
        image = iota1(product)
        if image and not reduce_against(rows_bt, coords(image, index_bt)):
            contained = False
    recs.append(bool_record("quot:embedded-ideal-contained", contained))
    return recs


# ---------------------------------------------------------------------------
# 9. normal forms


def check_normal_forms(quick=False):
    rows = [("boxed-symmetric", n, ramified.br_symmetric,
             ramified.normal_form_brs, lambda nf: (nf["e_boxes"], nf["z_word"]))
            for n in ((1, 2, 3) if quick else (1, 2, 3, 4))]
    rows += [
        ("singular-ramified-symmetric", 3, ramified.sr_symmetric,
         ramified.normal_form_srs, lambda nf: (nf["e_pairs"], nf["z_pairs"])),
        ("boxed-brauer", 3, ramified.br_brauer, ramified.normal_form_brbr,
         lambda nf: (nf["e_boxes"], nf["z_word"], nf["d_word"], nf["z_word_2"])),
    ]
    recs = []
    for label, n, family, normal_form, key_of in rows:
        seen = {}
        ok = True
        for el in family(n):
            nf = normal_form(el)
            key = key_of(nf)
            ok = ok and key not in seen and ramified.evaluate_normal_form(nf) == el
            seen[key] = el
        recs.append(bool_record(f"nf:{label}:n={n}", ok))

    # worked examples: a fully boxed word and a two-tie singular word
    x, nf = ramified.brs_from_word(4, (4,), (2, 1, 3, 2, 3))
    recs.append(record("nf:example-boxed-word",
                       {"e_boxes": (4,), "z_word": (2, 1, 3, 2, 3), "ok": True},
                       {"e_boxes": nf["e_boxes"], "z_word": nf["z_word"],
                        "ok": ramified.evaluate_normal_form(nf) == x}))
    x, nf = ramified.srs_from_word(4, ((1, 2), (2, 4)), (3, 1, 2, 1))
    recs.append(record(
        "nf:example-singular-word",
        {"e_pairs": ((2, 4),),
         "z_pairs": ((3, 1, 2), (1, 1, 2), (2, 1, 2), (1, 1, 3)),
         "ok": True},
        {"e_pairs": nf["e_pairs"], "z_pairs": nf["z_pairs"],
         "ok": ramified.evaluate_normal_form(nf) == x}))
    return recs


# ---------------------------------------------------------------------------
# 10. centers


def _box_tie_element(n, mu):
    """Identity permutation tied within each box of the composition mu."""
    out = ramified.ramified_identity(n)
    for box in intervals(mu):
        for i in box[:-1]:
            out = out * ramified.gen_e(n, i)
    return out


def check_centers(quick=False):
    recs = []
    for n in (3,) if quick else (3, 4):
        z = ramified.center(ramified.r_symmetric(n))
        ident = ramified.ramified_identity(n)
        full_tie = _box_tie_element(n, (n,))
        recs.append(record(f"center:ramified-symmetric:n={n}",
                           sorted([str(ident), str(full_tie)]),
                           sorted(str(x) for x in z)))

        zb = ramified.center(ramified.br_symmetric(n))
        boxed = {mu: _box_tie_element(n, mu) for mu in compositions(n)}
        recs.append(record(f"center:boxed-symmetric-size:n={n}",
                           2 ** (n - 1), len(zb)))
        recs.append(record(f"center:boxed-symmetric-elements:n={n}",
                           sorted(str(x) for x in boxed.values()),
                           sorted(str(x) for x in zb)))
        # the center is isomorphic to the composition monoid under join
        iso = all(
            boxed[mu] * boxed[nu] == boxed[composition_join(mu, nu)]
            for mu in boxed for nu in boxed
        )
        recs.append(bool_record(f"center:boxed-symmetric-join-iso:n={n}", iso))
    return recs


# ---------------------------------------------------------------------------


ALL_CHECKS = {
    "cardinalities": check_cardinalities,
    "dimensions": check_dimensions,
    "presentations": check_presentations,
    "representation": check_representation,
    "structure-constants": check_structure_constants,
    "idempotents": check_idempotents,
    "cellular": check_cellular,
    "quotients": check_quotients,
    "normal-forms": check_normal_forms,
    "centers": check_centers,
}


def run_all(profile="full", seed=0):
    quick = profile == "quick"
    records = []
    for name, fn in ALL_CHECKS.items():
        if name == "representation":
            recs = fn(seed=seed)
        elif name == "quotients":
            recs = fn()
        else:
            recs = fn(quick=quick)
        for r in recs:
            r = dict(r)
            r["suite"] = name
            records.append(r)
    return records
