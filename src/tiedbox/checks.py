"""Verification suite: each function runs one family of checks and returns a
list of line records ``{"name", "expected", "got", "status"}``.

The functions are shared between the test suite and the ``verify-all`` CLI
command.  Every check is exact except the seeded modular rank of
``check_representation``: ``seed`` only affects that record, which is
emitted beside the exact rank of the same rows and stands on its own.  It
is a lower bound for the rank, so a value below the expected rank is
inconclusive and only a value above it fails.

There are two profiles.  ``full`` runs every record.  ``quick`` runs the
``full`` records on at most ``QUICK_N`` strands, in the same order: each
range of n is written once, with its full-profile limit, through `upto`.
The one exception is the structure-constants check, whose quick records
(named ``...:mismatches:sampled``) multiply a sample of the basis pairs.
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
    ptl_dim,
)
from .diagrams import brauer_monoid, jones_monoid
from .laurent import DELTA, QDIFF, matrix_rank
from .presentations import build_preset, presentation_check
from .setpartitions import SetPartition, all_partitions, linear_partitions
from .tensorrep import (
    TensorRep,
    lift,
    mat_add,
    mat_mul,
    mat_scale,
    one_block_per_type,
)


def record(name, expected, got):
    return {
        "name": name,
        "expected": expected,
        "got": got,
        "status": "pass" if expected == got else "fail",
    }


def bool_record(name, ok):
    return record(name, True, bool(ok))


QUICK_N = 3


def upto(last, quick, first=1):
    """The strand counts first..last, cut at QUICK_N in the quick profile."""
    if quick:
        last = min(last, QUICK_N)
    return range(first, last + 1)


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
        for n in upto(len(counts), quick):
            recs.append(record(f"card:{label}:n={n}", counts[n - 1], len(family(n))))
    recs.append(record("card:singular-ramified-symmetric:n=3",
                       24, len(ramified.sr_symmetric(3))))
    for n in upto(5, quick):
        recs.append(record(f"card:brauer:n={n}",
                           double_factorial_odd(n), len(brauer_monoid(n))))
    for n in upto(6, quick):
        recs.append(record(f"card:jones:n={n}",
                           catalan(n), len(jones_monoid(n))))
    return recs


# ---------------------------------------------------------------------------
# 2. dimension formulas by basis enumeration


def check_dimensions(quick=False):
    recs = []
    for n in upto(4, quick):
        recs.append(record(f"dim:tied:n={n}",
                           factorial(n) * bell(n), BTAlgebra(n).dim()))
    for n in upto(6, quick):
        expected = sum(
            math.prod(factorial(p) for p in mu) for mu in compositions(n)
        )
        recs.append(record(f"dim:tied-boxed-hecke:n={n}", expected, BHAlgebra(n).dim()))
    for n in upto(8, quick):
        by_sum = sum(
            math.prod(catalan(p) for p in mu) for mu in compositions(n)
        )
        recs.append(record(f"dim:tied-boxed-tl-formula:n={n}",
                           binomial(2 * n - 1, n), by_sum))
        if n <= 6:
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
        if n not in upto(n, quick):  # a row beyond QUICK_N is full only
            continue
        status = presentation_check(*build_preset(name, n))["status"]
        # an inconclusive verdict stays inconclusive (exit code 2), never pass
        recs.append(dict(record(f"present:{name}:n={n}", "pass", status),
                         status=status))
    return recs


# ---------------------------------------------------------------------------
# 4. tensor representation oracle


def check_representation(seed=0):
    """The defining relations of the tied and tied-boxed Hecke algebras
    among the operators of V^(tensor 3), and the faithful ranks of both
    algebras there.  A relation holds on V^(tensor 3) exactly when it holds
    on one block per type (see `tensorrep`), so the relations are checked on
    those 76 of 729 tensors.  The rank rows are the images rho(E_I g_w) on
    all of V^(tensor 3), lifted from the same 76 tensors: each block takes
    the rows of the kept block of its type, renamed back onto it.  The
    exact elimination, and so its count of gcd calls, sees the rows of the
    whole space, in their order."""
    rep = TensorRep(3, one_block_per_type(3))
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
        rows = [lift(rep.rho_bt(key), 3) for key in algebra.basis()]
        probable = matrix_rank(rows, mode="probabilistic", seed=seed)
        exact = matrix_rank(rows, mode="exact")
        rec = record(f"{label}:probabilistic", expected, probable)
        if probable < expected:  # the rank mod p is a lower bound only
            rec["status"] = "inconclusive"
        recs.append(rec)
        recs.append(record(f"{label}:exact", expected, exact))
    return recs


# ---------------------------------------------------------------------------
# 5. structure constants vs the oracle


def check_structure_constants(quick=False):
    """Compare rho(a) rho(b) with rho(a b) for pairs of basis elements of
    the tied and tied-boxed Hecke algebras at n = 3, on one block per
    isomorphism type of V^(tensor 3) (76 of 729 tensors; see `tensorrep`).
    Every rho(x) is block-diagonal, and a renaming of strands in order and
    of colors carries a block and the generators on it to any block of its
    type, so a product is right on these blocks exactly when it is right
    on all of V^(tensor 3): the mismatch count is the same."""
    recs = []
    rep = TensorRep(3, one_block_per_type(3))
    for label, algebra in (("tied", BTAlgebra(3)), ("tied-boxed-hecke", BHAlgebra(3))):
        keys = algebra.basis()
        name = f"structure:{label}:n=3:mismatches"
        if quick:
            keys = keys[: max(6, len(keys) // 5)]
            name += ":sampled"
        mats = {k: rep.rho_bt(k) for k in keys}
        bad = 0
        for a in keys:
            for b in keys:
                prod = algebra.basis_element(a) * algebra.basis_element(b)
                if mat_mul(mats[a], mats[b]) != rep.rho(prod):
                    bad += 1
        recs.append(record(name, 0, bad))
    return recs


# ---------------------------------------------------------------------------
# 6. idempotent suite


def _mobius_records(label, algebra, parts, central):
    """The Mobius idempotents of `parts` sum to one, are idempotent and
    pairwise orthogonal, multiply a tie element E_q to themselves when
    q <= p and to zero otherwise, and, if `central`, commute with each of
    `algebra.generators()`; they generate the algebra, so that makes the
    idempotents central."""
    idem = {p: algebra.mobius_idempotent(p) for p in parts}
    generators = algebra.generators() if central else ()
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
        for x in generators:
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
    for n in upto(4, quick, first=2):
        recs += _mobius_records("hecke", BHAlgebra(n), linear_partitions(n),
                                central=True)
    for n in upto(3, quick, first=2):
        recs += _mobius_records("tied", BTAlgebra(n),
                                all_partitions(n),
                                central=False)

    # in the full tied algebra only the type-summed idempotents are central
    for n in upto(4, quick, first=2):
        bt = BTAlgebra(n)
        types = sorted({p.type_of() for p in all_partitions(n)})
        ok = all(x * y == y * x
                 for x in map(bt.mobius_type_idempotent, types)
                 for y in map(bt.basis_element, bt.basis()))
        recs.append(bool_record(f"idem:tied-type-central:n={n}", ok))
    return recs


# ---------------------------------------------------------------------------
# 7. cellular suites


def check_cellular(quick=False):
    recs = []
    builders = {
        "hecke-murphy": murphy_hecke,
        "tied-boxed-hecke": bh_cellular,
        "tied-boxed-tl": btl_cellular,
        "tl": tl_cellular,
    }
    data = {}
    for label, build in builders.items():
        for n in upto(4, quick, first=2):
            datum = data[label, n] = build(n)
            size = len(datum.elements)
            recs.append(record(f"cell:{label}:count:n={n}",
                               datum.algebra.dim(), size))
            if n <= 3:
                rows, _, _ = transition_matrix(datum)
                rank = matrix_rank(rows, mode="exact")
                recs.append(record(f"cell:{label}:full-rank:n={n}",
                                   size, rank))
                recs.append(record(f"cell:{label}:star:n={n}", "pass",
                                   star_axiom_check(datum)["status"]))
    for n in upto(3, quick, first=2):
        for label in ("tied-boxed-hecke", "tied-boxed-tl", "hecke-murphy"):
            rep = cell_axiom_check(data[label, n])
            recs.append(record(f"cell:{label}:axiom:n={n}", "pass", rep["status"]))
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
    e1, e2, d1, d2 = BTLAlgebra(3).generators()
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
    rows = [("boxed-symmetric", n, ramified.br_symmetric, ramified.normal_form_brs)
            for n in upto(4, quick)]
    rows += [
        ("singular-ramified-symmetric", 3, ramified.sr_symmetric,
         ramified.normal_form_srs),
        ("boxed-brauer", 3, ramified.br_brauer, ramified.normal_form_brbr),
    ]
    recs = []
    for label, n, family, normal_form in rows:
        seen = set()
        ok = True
        for el in family(n):
            nf = normal_form(el)
            key = tuple(nf.items())
            ok = ok and key not in seen and ramified.evaluate_normal_form(nf) == el
            seen.add(key)
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


def check_centers(quick=False):
    recs = []
    for n in upto(4, quick, first=3):
        z = ramified.center(ramified.r_symmetric(n),
                            ramified.generators(ramified.r_symmetric, n))
        ident = ramified.ramified_identity(n)
        full_tie = ramified.gen_e_boxes((n,))
        recs.append(record(f"center:ramified-symmetric:n={n}",
                           sorted([str(ident), str(full_tie)]),
                           sorted(str(x) for x in z)))

        zb = ramified.center(ramified.br_symmetric(n),
                             ramified.generators(ramified.br_symmetric, n))
        boxed = {mu: ramified.gen_e_boxes(mu) for mu in compositions(n)}
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
