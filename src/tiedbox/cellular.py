"""Cellular bases, all four with labels the multipartitions and tableaux
the initial-kind multitableaux of `combinatorics`:

* the Murphy basis of the Hecke algebra, with one-component labels (lam,);
* the tied-boxed Hecke basis: for a multipartition over the composition mu,
  the Mobius idempotent of mu times the Murphy element of the Young
  subgroup.

Both come from one Murphy builder, c_st = x_(d_s)^* m_lam x_(d_t) with x = h
or z.  The Temperley-Lieb and tied-boxed Temperley-Lieb bases are the
images of their two-column parts under the projections `hecke_to_tl` and
`pi2`.  One cell order serves all four (`_multi_greater`)."""

from typing import NamedTuple

from .laurent import ZERO, Q, LaurentFrac
from .combinatorics import compositions, dominates, \
    multipartitions_of_composition, initial_kind_multitableaux, \
    d_of_multitableau
from .setpartitions import SetPartition
from .algebras import HeckeAlgebra, BHAlgebra, BTLAlgebra, TLAlgebra, \
    hecke_to_tl, pi2, basis_index, coords
from . import perms

__all__ = ["CellDatum", "murphy_hecke", "tl_cellular", "bh_cellular",
           "btl_cellular", "cell_axiom_check", "star_axiom_check",
           "transition_matrix"]


class CellDatum(NamedTuple):
    """A concrete cell datum: the algebra and its cellular basis, a dict
    (label, s, t) -> c_st in cell order (label by label, then s, then t)."""

    algebra: object
    elements: dict


def _multi_greater(lams, mus):
    """Strict cellular order on multipartitions: same underlying composition,
    componentwise dominance, strictly somewhere.  Labels over different
    compositions are incomparable (their cells sit under orthogonal central
    idempotents)."""
    shape_a = tuple(sum(l) for l in lams)
    shape_b = tuple(sum(l) for l in mus)
    if shape_a != shape_b or lams == mus:
        return False
    return all(dominates(a, b) for a, b in zip(lams, mus))


def _murphy(algebra, labels, m_of, twist):
    """c_st = twist(d_s)^* m_of(label) twist(d_t) over the initial-kind
    multitableaux s, t of each label, d the tableau permutation."""
    elements = {}
    for lams in labels:
        m_lam = m_of(lams)
        tabs = initial_kind_multitableaux(lams)
        for s in tabs:
            left = twist(d_of_multitableau(s)).star() * m_lam
            for t in tabs:
                elements[(lams, s, t)] = left * twist(d_of_multitableau(t))
    return CellDatum(algebra, elements)


def _two_column(datum, algebra, project):
    """The image under `project` of the part of `datum` whose labels have
    every part at most 2."""
    return CellDatum(algebra, {
        (lams, s, t): project(c) for (lams, s, t), c in datum.elements.items()
        if all(not lam or lam[0] <= 2 for lam in lams)})


def murphy_hecke(n):
    """The Murphy cellular basis of the Hecke algebra of S_n."""
    h = HeckeAlgebra(n)
    return _murphy(h, multipartitions_of_composition((n,)),
                   lambda lams: h.element(
                       {w: Q ** perms.length(w)
                        for w in perms.young_subgroup(lams[0])}),
                   h.basis_element)


def tl_cellular(n):
    """Projection of the two-column part of the Murphy basis onto the
    Temperley-Lieb diagram algebra."""
    return _two_column(murphy_hecke(n), TLAlgebra(n), hecke_to_tl)


def bh_cellular(n):
    """Cellular basis of the tied-boxed Hecke algebra: for a multipartition
    with underlying composition mu, the Mobius idempotent of mu times the
    Murphy-type element of the Young subgroup, conjugated by the tableau
    permutations through z generators."""
    bh = BHAlgebra(n)

    def m_of(lams):
        mu = tuple(map(sum, lams))
        i_mu = SetPartition.from_composition(mu)
        inner = tuple(x for lam in lams for x in lam)
        return bh.mobius_idempotent(i_mu) * bh.element(
            {(i_mu, w): Q ** perms.length(w)
             for w in perms.young_subgroup(inner)})

    labels = [lams for mu in compositions(n)
              for lams in multipartitions_of_composition(mu)]
    return _murphy(bh, labels, m_of, bh.z_of)


def btl_cellular(n):
    """Cellular basis of the tied-boxed Temperley-Lieb algebra: the image
    under the block projection of the two-column part of the tied-boxed
    Hecke cellular basis."""
    return _two_column(bh_cellular(n), BTLAlgebra(n), pi2)


def transition_matrix(datum):
    """Rows: cellular elements expanded in the structural basis, as sparse
    coordinate rows (dict col -> LaurentPoly), one per triple."""
    index = basis_index(datum.algebra)
    rows = [coords(c, index) for c in datum.elements.values()]
    return rows, list(datum.elements), index


def _frac_inverse(rows, dim):
    """Dense Gauss-Jordan inverse over the fraction field."""
    a = [[LaurentFrac(rows[i].get(j, ZERO)) for j in range(dim)]
         + [LaurentFrac(1 if j == i else 0) for j in range(dim)]
         for i in range(dim)]
    for col in range(dim):
        piv = next((r for r in range(col, dim) if a[r][col]), None)
        if piv is None:
            raise ValueError("transition matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = LaurentFrac(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(dim):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[dim:] for row in a]


def star_axiom_check(datum):
    """star(c_st) must equal c_ts for every pair."""
    failures = [(lam, s, t) for (lam, s, t), c in datum.elements.items()
                if c.star() != datum.elements[(lam, t, s)]]
    return {"status": "pass" if not failures else "fail",
            "failures": failures}


def cell_axiom_check(datum, generators):
    """Check the multiplication axiom: c_st * a lies, modulo strictly
    greater labels, in the span of the c_sv with the same s, and the
    coefficients r_v do not depend on s.

    Returns a report dict with status and a witness on failure.
    """
    rows, triples, index = transition_matrix(datum)
    dim = len(triples)
    if dim != len(index):
        return {"status": "fail",
                "witness": f"basis count {dim} != dimension {len(index)}"}
    try:
        minv = _frac_inverse(rows, dim)
    except ValueError as exc:
        return {"status": "fail", "witness": str(exc)}

    def expand(x):
        vec = coords(x, index)
        out = {}
        for j, v in vec.items():
            f = LaurentFrac(v)
            for r in range(dim):
                if minv[j][r]:
                    w = out.get(r, LaurentFrac(0)) + f * minv[j][r]
                    if w:
                        out[r] = w
                    else:
                        out.pop(r, None)
        return out

    seen = {}
    count = 0
    for lam, s, t in triples:
        for gi, a in enumerate(generators):
            count += 1
            prod = datum.elements[(lam, s, t)] * a
            rv = {}
            for r, coeff in expand(prod).items():
                lam2, s2, t2 = triples[r]
                if _multi_greater(lam2, lam):
                    continue
                if lam2 == lam and s2 == s:
                    rv[t2] = coeff
                    continue
                return {"status": "fail", "products": count,
                        "witness": {"label": lam, "s": repr(s), "t": repr(t),
                                    "generator": gi,
                                    "offending": (lam2, repr(s2), repr(t2)),
                                    "coefficient": str(coeff)}}
            key = (lam, t, gi)
            if key in seen and seen[key][0] != rv:
                return {"status": "fail", "products": count,
                        "witness": {"label": lam, "t": repr(t),
                                    "generator": gi,
                                    "reason": "coefficients depend on s",
                                    "s_pair": (seen[key][1], repr(s))}}
            seen.setdefault(key, (rv, repr(s)))
    return {"status": "pass", "products": count}
