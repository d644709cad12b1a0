"""Monoid presentations, Knuth-Bendix completion over the shortlex order,
and verification of presentations against concrete finite monoids.

Words are `bytes`, one byte per generator index, so a presentation has at
most 256 generators.  Bytes slice, concatenate and compare like tuples of
ints, and the order of the generator list fixes the shortlex order.
"""

from itertools import count

from . import perms
from .combinatorics import bell
from .diagrams import BudgetExceeded, brauer_monoid, check_budget, closure, \
    generator, perm_diagram
from .ramified import br_brauer, br_jones, br_symmetric, gen_d, gen_e, \
    gen_e_pair, gen_s, gen_z, gen_z_pair, r_symmetric, ramified_identity, \
    sr_symmetric
from .setpartitions import SetPartition, all_partitions

__all__ = ["Presentation", "RewriteSystem", "kb_complete", "normal_forms",
           "presentation_check", "build_preset", "PRESET_NAMES"]


def _check_generators(label, count):
    """A ValueError if a word cannot hold one byte per generator.  Every
    preset calls this with its generator count before it builds a name, a
    relation or an element, so an oversized preset is rejected at once."""
    if count > 256:
        raise ValueError(f"{label} has {count} generators, at most 256")


class Presentation:
    def __init__(self, generators, relations, name=""):
        self.generators = list(generators)       # names, fixing the order
        _check_generators(name or "presentation", len(self.generators))
        self.relations = [(bytes(l), bytes(r)) for l, r in relations]
        self.name = name

    def __repr__(self):
        return f"Presentation({self.name}, {len(self.generators)} gens, " \
            f"{len(self.relations)} rels)"

    def format_text(self):
        lines = []
        for l, r in self.relations:
            fl = " ".join(self.generators[i] for i in l) or "1"
            fr = " ".join(self.generators[i] for i in r) or "1"
            lines.append(f"{fl} = {fr}")
        return "\n".join(lines)


class RewriteSystem:
    def __init__(self, rules, num_gens, complete):
        self.rules = rules            # list of (lhs, rhs), lhs > rhs shortlex
        self.num_gens = num_gens
        self.complete = complete

    def reduce(self, word):
        """A normal form of `word`; unique when the system is complete."""
        return _reduce(bytes(word), self.rules)


def _shortlex_key(word):
    return (len(word), word)


def _reduce(word, rules):
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            idx = word.find(lhs)
            if idx >= 0:
                word = word[:idx] + rhs + word[idx + len(lhs):]
                changed = True
    return word


def _join(rules, u, v):
    """Reduce u and v; if they still differ, add the rule between them,
    the shortlex-larger rewriting to the smaller."""
    u, v = _reduce(u, rules), _reduce(v, rules)
    if u != v:
        rules.append((u, v) if _shortlex_key(u) > _shortlex_key(v) else (v, u))


# Budgets of one Knuth-Bendix completion: rules held and overlap or
# containment tests made.
KB_MAX_RULES = 20000
KB_MAX_STEPS = 10 ** 6


def kb_complete(pres):
    """Knuth-Bendix completion with the shortlex order induced by the
    generator list.  Returns a RewriteSystem; `complete` is False if
    KB_MAX_RULES or KB_MAX_STEPS was exhausted.

    One pass: rule i meets every rule j <= i in both orders, so each
    critical pair is examined once; rules added on the way get their own
    turn later.  This is sound because rules are only added: every pair of
    final rules was joined by a subset of them, and every rule is a
    consequence of the relations.  A new lhs is irreducible by the earlier
    rules, so no two rules share one.  The closing interreduction drops
    only rules whose lhs contains another lhs, and their containment pair
    was already joined by rules with smaller lhs.  The result is the
    reduced complete system, unique for the order (Metivier 1983).
    """
    rules = []
    for l, r in pres.relations:
        _join(rules, l, r)
    steps = 0
    i = 0
    while i < len(rules):
        for j in range(i + 1):
            for a, b in ((i, j), (j, i)) if j < i else ((i, i),):
                (l1, r1), (l2, r2) = rules[a], rules[b]
                # overlaps: a suffix of l1 is a prefix of l2
                for k in range(1, min(len(l1), len(l2)) + 1):
                    steps += 1
                    if steps > KB_MAX_STEPS or len(rules) > KB_MAX_RULES:
                        return RewriteSystem(_interreduce(rules),
                                             len(pres.generators), False)
                    if l1[len(l1) - k:] == l2[:k]:
                        _join(rules, r1 + l2[k:], l1[:len(l1) - k] + r2)
                # containment: l2 properly inside l1
                idx = l1.find(l2) if len(l2) < len(l1) else -1
                if idx >= 0:
                    steps += 1
                    _join(rules, r1, l1[:idx] + r2 + l1[idx + len(l2):])
        i += 1
    return RewriteSystem(_interreduce(rules), len(pres.generators), True)


def _interreduce(rules):
    """Drop every rule whose lhs contains another lhs, reduce every rhs.
    Sorted by lhs, only earlier lhs can occur in l or in its rhs r < l."""
    rules = sorted(rules, key=lambda lr: _shortlex_key(lr[0]))
    return [(l, _reduce(r, rules[:i])) for i, (l, r) in enumerate(rules)
            if not any(l2 in l for l2, _ in rules[:i])]


def normal_forms(rs, cap):
    """All irreducible words of a complete rewrite system, by breadth
    first search over lengths.  Raises BudgetExceeded beyond `cap` words
    and RuntimeError for an incomplete system."""
    if not rs.complete:
        raise RuntimeError("rewrite system is not complete")
    lhs_tuple = tuple(l for l, _ in rs.rules)
    forms = [b""]
    frontier = [b""]
    while frontier:
        new = []
        for w in frontier:
            for g in range(rs.num_gens):
                w2 = w + bytes((g,))
                # w is irreducible, so only suffixes of w2 need checking
                if not w2.endswith(lhs_tuple):
                    new.append(w2)
        forms.extend(new)
        if len(forms) > cap:
            raise BudgetExceeded("normal form cap exceeded")
        frontier = new
    return forms


def presentation_check(pres, gen_elems, identity, target_set):
    """Full presentation verification:

    1. every relation holds among the images of the generators,
    2. the images generate the target monoid,
    3. Knuth-Bendix normal form count equals |target| (+1 for a formal
       identity when the presentation is of a semigroup without one);
       'inconclusive' if completion exhausts its budget.  By 1 and 2 the
       presented monoid maps onto the target, so more normal forms than
       the cap 10 * expected + 1000 is a sound 'fail'.
    """
    report = {"name": pres.name, "status": "fail"}
    # 1: homomorphism
    def ev(word):
        x = identity
        for g in word:
            x = x * gen_elems[g]
        return x
    bad = [(l, r) for l, r in pres.relations if ev(l) != ev(r)]
    report["relations_hold"] = not bad
    if bad:
        report["witness"] = pres.format_text().splitlines()[
            pres.relations.index(bad[0])]
        return report
    # 2: surjectivity
    generated = set(closure(list(gen_elems) + [identity]))
    target = set(target_set)
    surj = generated == target or generated == target | {identity}
    report["surjective"] = surj
    if not surj:
        report["witness"] = "generators do not generate the target"
        return report
    expected = len(target) if identity in target else len(target) + 1
    # 3: normal form count
    rs = kb_complete(pres)
    report["kb_complete"] = rs.complete
    if not rs.complete:
        report["status"] = "inconclusive"
        return report
    report["expected"] = expected
    cap = 10 * expected + 1000
    try:
        nf = normal_forms(rs, cap=cap)
    except BudgetExceeded:
        report["witness"] = f"more than {cap} normal forms"
        return report
    report["normal_forms"] = len(nf)
    report["status"] = "pass" if len(nf) == expected else "fail"
    return report


# ---------------------------------------------------------------------------
# presentation presets


def _tie_relations(n, E):
    """Idempotent, pairwise commuting ties e_1..e_{n-1}."""
    rels = []
    for i in range(1, n):
        rels.append(((E(i), E(i)), (E(i),)))
        for j in range(i + 1, n):
            rels.append(((E(i), E(j)), (E(j), E(i))))
    return rels


def _pn_relations(n, e_names):
    """Relations of the presentation of P_n by the tie generators e_{i,j}."""
    idx = {p: i for i, p in enumerate(e_names)}
    rels = []
    pairs = list(e_names)
    for p in pairs:
        rels.append(((idx[p], idx[p]), (idx[p],)))
    for a in pairs:
        for b in pairs:
            if a < b:
                rels.append(((idx[a], idx[b]), (idx[b], idx[a])))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                ij, ik, jk = idx[(i, j)], idx[(i, k)], idx[(j, k)]
                rels.append(((ij, ik), (ij, jk)))
                rels.append(((ij, jk), (ik, jk)))
    return rels


def preset_pn(n):
    _check_generators(f"pn:{n}", n * (n - 1) // 2)
    e_names = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    gens = [f"e_{i}_{j}" for (i, j) in e_names]
    pres = Presentation(gens, _pn_relations(n, e_names), name=f"pn:{n}")

    gen_elems = [SetPartition([(i, j)], n) for (i, j) in e_names]
    identity = SetPartition.singletons(n)
    check_budget("Pi_{}", n, map(bell, count()))
    return pres, gen_elems, identity, list(all_partitions(n))


def _sgroup_relations(off, n):
    """Symmetric group relations on generators s_1..s_{n-1} at offset off."""
    rels = []
    for i in range(n - 1):
        rels.append(((off + i, off + i), ()))
    for i in range(n - 2):
        rels.append(((off + i, off + i + 1, off + i),
                     (off + i + 1, off + i, off + i + 1)))
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            rels.append(((off + i, off + j), (off + j, off + i)))
    return rels


def _letters(label, n, *families):
    """The generators of the preset `label` in families of n - 1 letters,
    family by family: a family (letter, make) has the names letter1 ..
    letter(n-1) and the elements make(n, i).  Returns the names, for each
    family the map i -> generator index of its letter i, and the elements;
    the generator count is checked first."""
    _check_generators(label, len(families) * (n - 1))
    names, indices = [], []
    for letter, _ in families:
        indices.append(lambda i, off=len(names) - 1: off + i)
        names += [f"{letter}{i}" for i in range(1, n)]
    return names, indices, [make(n, i) for _, make in families
                            for i in range(1, n)]


def preset_brauer(n):
    """Brauer monoid presented by transpositions s_i and hooks t_i."""
    gens, (S, T), elements = _letters(
        f"brauer:{n}", n, ("s", lambda n, i: perm_diagram(perms.sgen(n, i))),
        ("t", lambda n, i: generator("t", n, i)))
    rels = _sgroup_relations(0, n)
    for i in range(1, n):
        rels.append(((T(i), T(i)), (T(i),)))
        rels.append(((T(i), S(i)), (T(i),)))
        rels.append(((S(i), T(i)), (T(i),)))
        for j in range(1, n):
            d = abs(i - j)
            if d == 1:
                rels.append(((T(i), T(j), T(i)), (T(i),)))
                rels.append(((S(i), T(j), T(i)), (S(j), T(i))))
                rels.append(((T(i), T(j), S(i)), (T(i), S(j))))
            elif d > 1:
                rels.append(((T(i), T(j)), (T(j), T(i))))
                rels.append(((T(i), S(j)), (S(j), T(i))))
    pres = Presentation(gens, rels, name=f"brauer:{n}")
    identity = perm_diagram(perms.identity(n))
    return pres, elements, identity, list(brauer_monoid(n))


def preset_rsn(n):
    """R(S_n) presented by e_i (ties) and s_i."""
    gens, (E, S), elements = _letters(
        f"rsn:{n}", n, ("e", gen_e), ("s", gen_s))
    rels = _tie_relations(n, E) + _sgroup_relations(n - 1, n)
    for i in range(1, n):
        for j in range(1, n):
            d = abs(i - j)
            if d == 1:
                rels.append(((E(i), S(j), S(i)), (S(j), S(i), E(j))))
                rels.append(((E(i), E(j), S(i)), (E(j), S(i), E(j))))
                rels.append(((E(j), S(i), E(j)), (S(i), E(j), E(i))))
            else:
                rels.append(((S(i), E(j)), (E(j), S(i))))
    pres = Presentation(gens, rels, name=f"rsn:{n}")
    return pres, elements, ramified_identity(n), list(r_symmetric(n))


def _ez_relations(n, E, Z):
    """Common tie/tied-braid relations: idempotent commuting ties, braid
    relations for z, z_i^2 = e_i, e_i z_i = z_i, and e-z commutation."""
    rels = _tie_relations(n, E)
    for i in range(1, n):
        for j in range(1, n):
            d = abs(i - j)
            if d == 1:
                rels.append(((Z(i), Z(j), Z(i)), (Z(j), Z(i), Z(j))))
            elif d > 1 and i < j:
                rels.append(((Z(i), Z(j)), (Z(j), Z(i))))
            if i != j:
                rels.append(((E(i), Z(j)), (Z(j), E(i))))
    for i in range(1, n):
        rels.append(((Z(i), Z(i)), (E(i),)))
        rels.append(((E(i), Z(i)), (Z(i),)))
        rels.append(((Z(i), E(i)), (Z(i),)))
    return rels


def preset_brsn(n):
    """BR(S_n) presented by ties e_i and tied transpositions z_i."""
    gens, (E, Z), elements = _letters(
        f"brsn:{n}", n, ("e", gen_e), ("z", gen_z))
    pres = Presentation(gens, _ez_relations(n, E, Z), name=f"brsn:{n}")
    return pres, elements, ramified_identity(n), list(br_symmetric(n))


def preset_brsn_z(n):
    """BR(S_n) presented by the tied transpositions alone."""
    gens, (Z,), elements = _letters(f"brsn-z:{n}", n, ("z", gen_z))
    rels = []
    for i in range(1, n):
        rels.append(((Z(i), Z(i), Z(i)), (Z(i),)))
        for j in range(1, n):
            d = abs(i - j)
            if d == 1 and i < j:
                rels.append(((Z(i), Z(j), Z(i)), (Z(j), Z(i), Z(j))))
            elif d > 1 and i < j:
                rels.append(((Z(i), Z(j)), (Z(j), Z(i))))
            if i != j:
                rels.append(((Z(i), Z(i), Z(j), Z(j)),
                             (Z(j), Z(j), Z(i), Z(i))))
                rels.append(((Z(i), Z(i), Z(j)), (Z(j), Z(i), Z(i))))
    pres = Presentation(gens, rels, name=f"brsn-z:{n}")
    return pres, elements, ramified_identity(n), list(br_symmetric(n))


def preset_brjn(n):
    """BR(J_n) presented by ties e_i and tied hooks d_i."""
    gens, (E, D), elements = _letters(
        f"brjn:{n}", n, ("e", gen_e), ("d", gen_d))
    rels = _tie_relations(n, E)
    for i in range(1, n):
        rels.append(((D(i), D(i)), (D(i),)))
        rels.append(((D(i), E(i)), (D(i),)))
        rels.append(((E(i), D(i)), (D(i),)))
        for j in range(1, n):
            d = abs(i - j)
            if d == 1:
                rels.append(((D(i), D(j), D(i)), (E(j), D(i), E(j))))
                rels.append(((D(i), E(j)), (E(j), D(i))))
            elif d > 1:
                if i < j:
                    rels.append(((D(i), D(j)), (D(j), D(i))))
                rels.append(((D(i), E(j)), (E(j), D(i))))
    pres = Presentation(gens, rels, name=f"brjn:{n}")
    return pres, elements, ramified_identity(n), list(br_jones(n))


def _brbr_relations(n, E, Z, D):
    rels = _ez_relations(n, E, Z)
    for i in range(1, n):
        rels.append(((D(i), D(i)), (D(i),)))
        rels.append(((D(i), E(i)), (D(i),)))
        rels.append(((E(i), D(i)), (D(i),)))
        rels.append(((Z(i), D(i)), (D(i),)))
        rels.append(((D(i), Z(i)), (D(i),)))
        for j in range(1, n):
            d = abs(i - j)
            if d == 1:
                rels.append(((D(i), D(j), D(i)), (E(j), D(i), E(j))))
                rels.append(((D(i), E(j)), (E(j), D(i))))
                rels.append(((Z(i), D(j), D(i)), (Z(j), D(i))))
                rels.append(((D(i), D(j), Z(i)), (D(i), Z(j))))
            elif d > 1:
                if i < j:
                    rels.append(((D(i), D(j)), (D(j), D(i))))
                rels.append(((D(i), E(j)), (E(j), D(i))))
                rels.append(((Z(i), D(j)), (D(j), Z(i))))
    return rels


def preset_brbrn(n):
    """BR(Br_n) presented by e_i, z_i, d_i."""
    gens, (E, Z, D), elements = _letters(
        f"brbrn:{n}", n, ("e", gen_e), ("z", gen_z), ("d", gen_d))
    pres = Presentation(gens, _brbr_relations(n, E, Z, D), name=f"brbrn:{n}")
    return pres, elements, ramified_identity(n), list(br_brauer(n))


def preset_brbrn_abstract(n):
    """The relation set of brbrn, checked under its own name."""
    pres, gen_elems, identity, target = preset_brbrn(n)
    pres.name = f"brbrn-abstract:{n}"
    return pres, gen_elems, identity, target


def preset_srsn(n):
    """The singular part sR(S_n), presented as a semigroup by e_{i,j} and
    the decorated z^r_{i,j}, with ground instances of the braid-style
    relations on superindices.  A formal identity is adjoined for the
    rewriting (the normal form count is |sR(S_n)| + 1)."""
    _check_generators(f"srsn:{n}", n * (n * (n - 1) // 2))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    rs = list(range(1, n))
    e_names = [f"e_{i}_{j}" for (i, j) in pairs]
    z_names = [f"z_{i}_{j}^{r}" for r in rs for (i, j) in pairs]
    gens = e_names + z_names
    eidx = {p: k for k, p in enumerate(pairs)}

    def Z(r, p):
        return len(pairs) + (r - 1) * len(pairs) + eidx[p]

    def E(p):
        return eidx[p]

    def ap(r, p):
        s = perms.sgen(n, r)
        a, b = s[p[0] - 1], s[p[1] - 1]
        return (a, b) if a < b else (b, a)

    rels = _pn_relations(n, pairs)
    for r in rs:
        for t in rs:
            if abs(r - t) == 1:
                for p in pairs:
                    # braid-style relation on superindices
                    l = (Z(r, p), Z(t, ap(r, p)), Z(r, ap(t, ap(r, p))))
                    rr = (Z(t, p), Z(r, ap(t, p)), Z(t, ap(r, ap(t, p))))
                    if l != rr:
                        rels.append((l, rr))
            if abs(r - t) > 1:
                for p in pairs:
                    rels.append(((Z(r, p), Z(t, ap(r, p))),
                                 (Z(t, p), Z(r, ap(t, p)))))
    for r in rs:
        for p in pairs:
            for p2 in pairs:
                rels.append(((Z(r, p), Z(r, p2)), (E(p), E(ap(r, p2)))))
                rels.append(((Z(r, p), E(p2)), (E(ap(r, p2)), Z(r, p))))
            rels.append(((E(p), Z(r, p)), (Z(r, p),)))
    pres = Presentation(gens, rels, name=f"srsn:{n}")
    gen_elems = [gen_e_pair(n, i, j) for (i, j) in pairs] + \
        [gen_z_pair(n, r, i, j) for r in rs for (i, j) in pairs]
    return pres, gen_elems, ramified_identity(n), list(sr_symmetric(n))


PRESETS = {
    "pn": preset_pn,
    "brauer": preset_brauer,
    "rsn": preset_rsn,
    "brsn": preset_brsn,
    "brsn-z": preset_brsn_z,
    "brjn": preset_brjn,
    "brbrn": preset_brbrn,
    "brbrn-abstract": preset_brbrn_abstract,
    "srsn": preset_srsn,
}

PRESET_NAMES = list(PRESETS)


def build_preset(name, n):
    return PRESETS[name](n)
