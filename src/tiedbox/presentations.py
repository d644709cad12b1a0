"""Monoid presentations, Knuth-Bendix completion over the shortlex order,
and verification of presentations against concrete finite monoids.

Words are `bytes`, one byte per generator index, so a presentation has at
most 256 generators.  Bytes slice, concatenate and compare like tuples of
ints, and the order of the generator list fixes the shortlex order.
"""

from itertools import combinations, count, permutations

from . import perms
from .combinatorics import bell
from .diagrams import BudgetExceeded, brauer_monoid, check_budget, closure, \
    hook, perm_diagram
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
    def __init__(self, rules, num_gens, complete, steps):
        self.rules = rules            # list of (lhs, rhs), lhs > rhs shortlex
        self.num_gens = num_gens
        self.complete = complete
        self.steps = steps            # overlap and containment tests made
        self._rule_index = _RuleIndex(rules)

    def reduce(self, word):
        """A normal form of `word`; unique when the system is complete."""
        return self._rule_index.reduce(bytes(word))


def _shortlex_key(word):
    return (len(word), word)


class _RuleIndex:
    """Rewrite rules in order, found through a trie of their left-hand
    sides (the index automaton of Sims, "Computation with Finitely
    Presented Groups", ch. 3, without failure links).  A node is [children
    by letter, position in `rules` of the rule whose lhs ends here, or
    None].  No two rules share an lhs (see `kb_complete`), so a node ends
    at most one."""

    def __init__(self, rules=()):
        self.rules = []
        self.root = [{}, None]
        for lhs, rhs in rules:
            self.append(lhs, rhs)

    def append(self, lhs, rhs):
        if not lhs:
            raise ValueError("a rewrite rule needs a nonempty lhs")
        node = self.root
        for letter in lhs:
            node = node[0].setdefault(letter, [{}, None])
        node[1] = len(self.rules)
        self.rules.append((lhs, rhs))

    def _next(self, word, p):
        """(position, start) of the rule a sweep from rule p applies next:
        the least position >= p whose lhs occurs in `word`, else the least
        position whose lhs occurs, with its first occurrence.  None if no
        lhs occurs.  The trie is walked from every start s over word[s:]
        until a letter has no child."""
        root = self.root
        low = ahead = no_rule = len(self.rules)
        low_at = ahead_at = 0
        for s in range(len(word)):
            node = root
            for letter in word[s:]:
                node = node[0].get(letter)
                if node is None:
                    break
                i = node[1]
                if i is not None:
                    # starts ascend, so a rule keeps its first occurrence
                    if i < low:
                        low, low_at = i, s
                    if p <= i < ahead:
                        ahead, ahead_at = i, s
        if ahead < no_rule:
            return ahead, ahead_at
        return (low, low_at) if low < no_rule else None

    def occurs_in(self, word):
        return self._next(word, 0) is not None

    def reduce(self, word):
        """The word left by sweeps over the rules: a sweep tries each rule
        in order and applies it once, at the first occurrence of its lhs in
        the current word; sweeps repeat until no lhs occurs.  The index
        finds the rule each sweep applies next, and skips the rest."""
        p = 0
        while (match := self._next(word, p)) is not None:
            i, s = match
            lhs, rhs = self.rules[i]
            word = word[:s] + rhs + word[s + len(lhs):]
            p = i + 1
        return word


def _join(index, u, v):
    """Reduce u and v; if they still differ, add the rule between them,
    the shortlex-larger rewriting to the smaller."""
    u, v = index.reduce(u), index.reduce(v)
    if u != v:
        index.append(*sorted((u, v), key=_shortlex_key, reverse=True))


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
    index = _RuleIndex()
    rules = index.rules
    for l, r in pres.relations:
        _join(index, l, r)
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
                                             len(pres.generators), False,
                                             steps)
                    if l1[len(l1) - k:] == l2[:k]:
                        _join(index, r1 + l2[k:], l1[:len(l1) - k] + r2)
                # containment: l2 properly inside l1
                idx = l1.find(l2) if len(l2) < len(l1) else -1
                if idx >= 0:
                    steps += 1
                    _join(index, r1, l1[:idx] + r2 + l1[idx + len(l2):])
        i += 1
    return RewriteSystem(_interreduce(rules), len(pres.generators), True,
                         steps)


def _interreduce(rules):
    """Drop every rule whose lhs contains another lhs, reduce every rhs.
    Sorted by lhs, only earlier lhs can occur in l or in its rhs r < l, so
    the index grows rule by rule and holds the earlier rules only."""
    index = _RuleIndex()
    kept = []
    for l, r in sorted(rules, key=lambda lr: _shortlex_key(lr[0])):
        if not index.occurs_in(l):
            kept.append((l, index.reduce(r)))
        index.append(l, r)
    return kept


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
    generated = set(closure(gen_elems)) | {identity}
    target = set(target_set)
    surj = generated == target | {identity}
    report["surjective"] = surj
    if not surj:
        report["witness"] = "generators do not generate the target"
        return report
    expected = len(target) if identity in target else len(target) + 1
    # 3: normal form count
    rs = kb_complete(pres)
    report["kb_complete"] = rs.complete
    report["kb_rules"] = len(rs.rules)
    report["kb_steps"] = rs.steps
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
# presentation presets: sums of relation blocks.  A block takes n and, per
# letter family, the map i -> generator index of letter i; it lists each
# relation once, not also with its sides swapped.


def _ties(n, E):
    """Idempotent, pairwise commuting ties e_1..e_{n-1}."""
    rels = []
    for i in range(1, n):
        rels.append(((E(i), E(i)), (E(i),)))
        rels += [((E(i), E(j)), (E(j), E(i))) for j in range(i + 1, n)]
    return rels


def _squares(n, X, v):
    """x_i x_i = v(i)."""
    return [((X(i), X(i)), v(i)) for i in range(1, n)]


def _far(n, X):
    """x_i x_j = x_j x_i for |i - j| > 1."""
    return [((X(i), X(j)), (X(j), X(i)))
            for i in range(1, n) for j in range(i + 2, n)]


def _braids(n, X):
    """The braid relation for neighbours; far letters commute."""
    return [((X(i), X(i + 1), X(i)), (X(i + 1), X(i), X(i + 1)))
            for i in range(1, n - 1)] + _far(n, X)


def _neighbours(n):
    """The ordered pairs (i, j) of letters with |i - j| = 1."""
    return [(i, j) for i in range(1, n) for j in (i - 1, i + 1) if 0 < j < n]


def _jones(n, X, m):
    """x_i^2 = x_i, x_i x_j x_i = m(i, j) for |i - j| = 1, and far letters
    commute."""
    return _squares(n, X, lambda i: (X(i),)) + \
        [((X(i), X(j), X(i)), m(i, j)) for i, j in _neighbours(n)] + \
        _far(n, X)


def _tied(n, E, X):
    """e_i x_i = x_i = x_i e_i, and e_i x_j = x_j e_i for j != i."""
    rels = []
    for i in range(1, n):
        rels += [((E(i), X(i)), (X(i),)), ((X(i), E(i)), (X(i),))]
    return rels + [((E(i), X(j)), (X(j), E(i)))
                   for i, j in permutations(range(1, n), 2)]


def _brauer(n, S, T):
    """t_i s_i = t_i = s_i t_i; s_i t_j t_i = s_j t_i and t_i t_j s_i =
    t_i s_j for |i - j| = 1; t_i s_j = s_j t_i for |i - j| > 1."""
    rels = []
    for i in range(1, n):
        rels += [((T(i), S(i)), (T(i),)), ((S(i), T(i)), (T(i),))]
    rels += [((T(i), S(j)), (S(j), T(i)))
             for i, j in permutations(range(1, n), 2) if abs(i - j) > 1]
    for i, j in _neighbours(n):
        rels += [((S(i), T(j), T(i)), (S(j), T(i))),
                 ((T(i), T(j), S(i)), (T(i), S(j)))]
    return rels


def _pn_relations(n, pairs):
    """Relations of P_n in the ties e_{i,j}, one per pair i < j of `pairs`:
    the ties, and e_ij e_ik = e_ij e_jk = e_ik e_jk for i < j < k."""
    idx = {p: k for k, p in enumerate(pairs)}
    rels = _ties(len(pairs) + 1, lambda k: k - 1)
    for i, j, k in combinations(range(1, n + 1), 3):
        ij, ik, jk = idx[i, j], idx[i, k], idx[j, k]
        rels += [((ij, ik), (ij, jk)), ((ij, jk), (ik, jk))]
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


def _ramified(label, n, families, relations, monoid):
    """A preset of the ramified monoid `monoid(n)`: the generators of
    `families` (see `_letters`) and relations(n, *their index maps)."""
    gens, indices, elements = _letters(label, n, *families)
    pres = Presentation(gens, relations(n, *indices), name=label)
    return pres, elements, ramified_identity(n), list(monoid(n))


def preset_brauer(n):
    """Brauer monoid presented by transpositions s_i and hooks t_i."""
    gens, (S, T), elements = _letters(
        f"brauer:{n}", n, ("s", lambda n, i: perm_diagram(perms.sgen(n, i))),
        ("t", hook))
    rels = _squares(n, S, lambda i: ()) + _braids(n, S) + \
        _jones(n, T, lambda i, j: (T(i),)) + _brauer(n, S, T)
    pres = Presentation(gens, rels, name=f"brauer:{n}")
    identity = perm_diagram(perms.identity(n))
    return pres, elements, identity, list(brauer_monoid(n))


def _rsn_relations(n, E, S):
    rels = _ties(n, E) + _squares(n, S, lambda i: ()) + _braids(n, S)
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) == 1:
                rels.append(((E(i), S(j), S(i)), (S(j), S(i), E(j))))
                rels.append(((E(i), E(j), S(i)), (E(j), S(i), E(j))))
                rels.append(((E(j), S(i), E(j)), (S(i), E(j), E(i))))
            else:
                rels.append(((S(i), E(j)), (E(j), S(i))))
    return rels


def preset_rsn(n):
    """R(S_n) presented by e_i (ties) and s_i."""
    return _ramified(f"rsn:{n}", n, (("e", gen_e), ("s", gen_s)),
                     _rsn_relations, r_symmetric)


def _brsn_relations(n, E, Z):
    """The relations of BR(S_n) in the ties e_i and the tied
    transpositions z_i: z_i^2 = e_i, braids, z_i tied by e_i."""
    return _ties(n, E) + _squares(n, Z, lambda i: (E(i),)) + \
        _braids(n, Z) + _tied(n, E, Z)


def preset_brsn(n):
    """BR(S_n) presented by ties e_i and tied transpositions z_i."""
    return _ramified(f"brsn:{n}", n, (("e", gen_e), ("z", gen_z)),
                     _brsn_relations, br_symmetric)


def _brsn_z_relations(n, Z):
    """z_i^3 = z_i, braids, and z_i^2 commutes with z_j^2 and z_j."""
    rels = [((Z(i), Z(i), Z(i)), (Z(i),)) for i in range(1, n)] + _braids(n, Z)
    rels += [((Z(i), Z(i), Z(j), Z(j)), (Z(j), Z(j), Z(i), Z(i)))
             for i, j in combinations(range(1, n), 2)]
    return rels + [((Z(i), Z(i), Z(j)), (Z(j), Z(i), Z(i)))
                   for i, j in permutations(range(1, n), 2)]


def preset_brsn_z(n):
    """BR(S_n) presented by the tied transpositions alone."""
    return _ramified(f"brsn-z:{n}", n, (("z", gen_z),), _brsn_z_relations,
                     br_symmetric)


def _tied_hooks(n, E, D):
    """The relations of BR(J_n) besides the ties: d_i is a Jones hook with
    d_i d_j d_i = e_j d_i e_j for |i - j| = 1, tied by e_i."""
    return _jones(n, D, lambda i, j: (E(j), D(i), E(j))) + _tied(n, E, D)


def preset_brjn(n):
    """BR(J_n) presented by ties e_i and tied hooks d_i."""
    return _ramified(f"brjn:{n}", n, (("e", gen_e), ("d", gen_d)),
                     lambda n, E, D: _ties(n, E) + _tied_hooks(n, E, D),
                     br_jones)


def preset_brbrn(n):
    """BR(Br_n) presented by e_i, z_i, d_i.  Its relations are those of
    BR(S_n) (`preset_brsn`), those of BR(J_n) without the ties
    (`preset_brjn`), and the Brauer relations between the transpositions
    and the hooks (Kudryavtseva-Mazorchuk) with s -> z and t -> d."""
    return _ramified(f"brbrn:{n}", n,
                     (("e", gen_e), ("z", gen_z), ("d", gen_d)),
                     lambda n, E, Z, D: _brsn_relations(n, E, Z) +
                     _tied_hooks(n, E, D) + _brauer(n, Z, D), br_brauer)


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
    # (t, r) gives the relation of (r, t) with its sides swapped
    for r in rs:
        for t in range(r + 1, n):
            if t - r == 1:
                for p in pairs:
                    # braid-style relation on superindices
                    l = (Z(r, p), Z(t, ap(r, p)), Z(r, ap(t, ap(r, p))))
                    rr = (Z(t, p), Z(r, ap(t, p)), Z(t, ap(r, ap(t, p))))
                    if l != rr:
                        rels.append((l, rr))
            else:
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
