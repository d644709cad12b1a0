"""Cellular bases, all four with labels the multipartitions and tableaux
the initial-kind multitableaux of `combinatorics`:

* the Murphy basis of the Hecke algebra, with one-component labels (lam,);
* the tied-boxed Hecke basis: for a multipartition over the composition mu,
  the Mobius idempotent of mu times the Murphy element of the Young
  subgroup.

Both come from one Murphy builder, c_st = x_(d_s)^* m_lam x_(d_t) with x = h
or z.  The Temperley-Lieb and tied-boxed Temperley-Lieb bases are the
images of their two-column parts under `hecke_to_tl` and `pi2`; the maps
commute with products and star, so the builder makes them in TL(n) and
BTL(n).  One cell order serves all four (`_multi_greater`)."""

from typing import NamedTuple

from .laurent import ONE, ZERO, Q, LaurentFrac
from .combinatorics import compositions, dominates, \
    multipartitions_of_composition, initial_kind_multitableaux, \
    d_of_multitableau
from .setpartitions import SetPartition
from .diagrams import BudgetExceeded
from .algebras import HeckeAlgebra, BHAlgebra, BTLAlgebra, TLAlgebra, \
    hecke_to_tl, pi2, basis_index, coords
from . import perms

__all__ = ["CellDatum", "murphy_hecke", "tl_cellular", "bh_cellular",
           "btl_cellular", "cell_axiom_check", "star_axiom_check",
           "transition_matrix"]

# Bound on the estimated basis products of one Murphy construction (see
# `_murphy`): hecke-murphy and bh reach n <= 6, btl n <= 7 and tl n <= 8.
MURPHY_BUDGET = 10 ** 7


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
    multitableaux s, t of each label, d the tableau permutation.

    That is sum |T|(|T| + 1) products, T the tableaux of a label, each of
    an element by one twist.  In H(S_n) and BH(n) a twist is one basis
    element, so a product makes at most N = sum |T|^2 basis products (the
    size of the basis).  In TL(n) and BTL(n) it is the image of one, so
    products * N is an estimate: tl at n = 8 makes 724,706 basis products
    against 2,145,000, btl at n = 7 makes 534,939 against 3,823,248.  Above
    MURPHY_BUDGET, BudgetExceeded is raised before any product or image."""
    tableaux = {lams: initial_kind_multitableaux(lams) for lams in labels}
    size = sum(len(tabs) ** 2 for tabs in tableaux.values())
    products = sum(len(tabs) * (len(tabs) + 1) for tabs in tableaux.values())
    if products * size > MURPHY_BUDGET:
        raise BudgetExceeded(f"{products} Murphy products of up to {size} "
                             f"terms are above the budget {MURPHY_BUDGET}")
    elements = {}
    for lams, tabs in tableaux.items():
        m_lam = m_of(lams)
        twists = [twist(d_of_multitableau(t)) for t in tabs]
        for s, x in zip(tabs, twists):
            left = x.star() * m_lam
            for t, y in zip(tabs, twists):
                elements[(lams, s, t)] = left * y
    return CellDatum(algebra, elements)


def _hecke(n):
    """Labels, m_of and twist of the Murphy basis of H(S_n)."""
    h = HeckeAlgebra(n)
    return (multipartitions_of_composition((n,)),
            lambda lams: h.element({w: Q ** perms.length(w)
                                    for w in perms.young_subgroup(lams[0])}),
            h.basis_element)


def _bh(n):
    """Labels, m_of and twist of the tied-boxed Hecke basis: m_lam is the
    Mobius idempotent of mu times the Murphy element of S_mu; x_d = z_d."""
    bh = BHAlgebra(n)

    def m_of(lams):
        i_mu = SetPartition.from_composition(tuple(map(sum, lams)))
        return bh.mobius_idempotent(i_mu) * bh.element(
            {(i_mu, w): Q ** perms.length(w)
             for w in perms.young_subgroup(sum(lams, ()))})

    labels = [lams for mu in compositions(n)
              for lams in multipartitions_of_composition(mu)]
    return labels, m_of, bh.z_of


def _projected(algebra, parts, project):
    """`_murphy` in `algebra` on the two-column labels of `parts` (every
    part at most 2), from the images under `project` of m_lam and x_d."""
    labels, m_of, twist = parts
    return _murphy(algebra, [lams for lams in labels
                             if all(not lam or lam[0] <= 2 for lam in lams)],
                   lambda lams: project(m_of(lams)),
                   lambda w: project(twist(w)))


def murphy_hecke(n):
    """The Murphy cellular basis of the Hecke algebra of S_n."""
    return _murphy(HeckeAlgebra(n), *_hecke(n))


def tl_cellular(n):
    """The Temperley-Lieb cellular basis: the image under `hecke_to_tl` of
    the two-column part of the Murphy basis."""
    return _projected(TLAlgebra(n), _hecke(n), hecke_to_tl)


def bh_cellular(n):
    """The cellular basis of the tied-boxed Hecke algebra (see `_bh`)."""
    return _murphy(BHAlgebra(n), *_bh(n))


def btl_cellular(n):
    """The tied-boxed Temperley-Lieb cellular basis: the image under `pi2`
    of the two-column part of the tied-boxed Hecke basis."""
    return _projected(BTLAlgebra(n), _bh(n), pi2)


def transition_matrix(datum):
    """Rows: cellular elements expanded in the structural basis, as sparse
    coordinate rows (dict col -> LaurentPoly), one per triple."""
    index = basis_index(datum.algebra)
    rows = [coords(c, index) for c in datum.elements.values()]
    return rows, list(datum.elements), index


def _frac_inverse(rows, dim):
    """Dense Gauss-Jordan inverse over the fraction field."""
    a = [[LaurentFrac(rows[i].get(j, ZERO)) for j in range(dim)]
         + [LaurentFrac(ONE if j == i else ZERO) for j in range(dim)]
         for i in range(dim)]
    for col in range(dim):
        piv = next((r for r in range(col, dim) if a[r][col]), None)
        if piv is None:
            raise ValueError("transition matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = LaurentFrac(ONE) / a[col][col]
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


def cell_axiom_check(datum):
    """Check the multiplication axiom: c_st * a lies, modulo strictly
    greater labels, in the span of the c_sv with the same s, and the
    coefficients r_v do not depend on s.

    It multiplies by each a of `datum.algebra.generators()` only, and that
    proves the axiom for every a: the axiom for a and for b gives it for
    a + b and for a b, and the docstring of `generators` says why they
    generate the algebra.

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
                    w = out.get(r, LaurentFrac(ZERO)) + f * minv[j][r]
                    if w:
                        out[r] = w
                    else:
                        out.pop(r, None)
        return out

    generators = datum.algebra.generators()
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
