"""The label kernels of set-partition and diagram products (`join`, `act`,
`concat`, the memoized ramified product) against the dict-based union-find
they replaced, equality, hash and refinement of the label tuples against
the blocks, and the indexed word reduction of Knuth-Bendix against a search
of every lhs by `find`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiedbox import algebras, presentations
from tiedbox.diagrams import Diagram, brauer_monoid, concat
from tiedbox.ramified import Ramified
from tiedbox.setpartitions import SetPartition


class ReferenceUnionFind:
    """Disjoint sets over hashable items, kept in a dict."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def classes(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


def reference_join(p, q):
    uf = ReferenceUnionFind(range(1, p.size + 1))
    for b in p.blocks + q.blocks:
        for x in b[1:]:
            uf.union(b[0], x)
    return SetPartition(uf.classes(), p.size)


def reference_act(p, w):
    return SetPartition([tuple(w[x - 1] for x in b) for b in p.blocks], p.size)


def reference_concat(d1, d2):
    n = d1.n
    uf = ReferenceUnionFind(range(1, 3 * n + 1))
    for b in d1.part.blocks:
        for x in b[1:]:
            uf.union(b[0], x)
    for b in d2.part.blocks:
        for x in b[1:]:
            uf.union(b[0] + n, x + n)
    loops, blocks = 0, []
    for cls in uf.classes():
        outer = [x if x <= n else x - n for x in cls if x <= n or x > 2 * n]
        if outer:
            blocks.append(outer)
        else:
            loops += 1
    return Diagram(n, blocks), loops


def reference_reduce(word, rules):
    """Rewrites the leftmost occurrence of an lhs, the least (start,
    length), until no lhs occurs."""
    while occurring := [(word.find(lhs), len(lhs), rhs)
                        for lhs, rhs in rules if lhs in word]:
        start, length, rhs = min(occurring)
        word = word[:start] + rhs + word[start + length:]
    return word


def assert_canonical(p):
    """p is exactly what the validating constructor makes of its blocks."""
    canon = SetPartition(p.blocks, p.size)
    assert (p.blocks, p.size, p._index) == (canon.blocks, canon.size, canon._index)
    assert p == canon and hash(p) == hash(canon) and str(p) == str(canon)


@st.composite
def partitions_of_range(draw, n):
    """A fresh (never memoised) partition of 1..n from a label per point."""
    labels = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
    blocks = {}
    for x, label in enumerate(labels, 1):
        blocks.setdefault(label, []).append(x)
    return SetPartition(list(blocks.values()), n)


triples = st.integers(0, 5).flatmap(lambda n: st.tuples(
    partitions_of_range(n), partitions_of_range(n), partitions_of_range(n)))
actions = st.integers(0, 5).flatmap(lambda n: st.tuples(
    partitions_of_range(n), st.permutations(range(1, n + 1))))
words = st.lists(st.integers(0, 2), max_size=12).map(bytes)
# a rule rewrites a nonempty word over 3 letters to a shortlex-smaller one,
# so every reduction ends; no two rules share an lhs
short_words = st.lists(st.integers(0, 2), max_size=4).map(bytes)
rules = st.lists(
    st.tuples(short_words, short_words).filter(lambda uv: uv[0] != uv[1]).map(
        lambda uv: tuple(sorted(uv, key=lambda w: (len(w), w), reverse=True))),
    max_size=8, unique_by=lambda lr: lr[0])


@st.composite
def index_sessions(draw):
    """The calls `kb_complete` makes on one index: appends of rules with new
    left-hand sides, some a proper prefix or extension of an earlier lhs,
    between reductions and containment tests.  Each rhs is shorter than its
    lhs, so every reduction ends."""
    calls, seen = [], []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(["new", "prefix", "extension", "reduce",
                                     "occurs_in"]))
        if kind in ("reduce", "occurs_in"):
            calls.append((kind, draw(words)))
            continue
        base = draw(st.sampled_from(seen)) if seen else b""
        if kind == "prefix" and len(base) > 1:
            lhs = base[:draw(st.integers(1, len(base) - 1))]
        elif kind == "extension" and base:
            lhs = base + draw(short_words.filter(bool))
        else:
            lhs = draw(short_words.filter(bool))
        if lhs not in seen:
            rhs = bytes(draw(st.lists(st.integers(0, 2), max_size=len(lhs) - 1)))
            seen.append(lhs)
            calls.append(("append", (lhs, rhs)))
    return calls


diagram_pairs = st.integers(0, 5).flatmap(lambda n: st.tuples(
    partitions_of_range(2 * n), partitions_of_range(2 * n)).map(
        lambda ps: (Diagram(n, ps[0]), Diagram(n, ps[1]))))


@given(triples)
@settings(max_examples=300, deadline=None)
def test_equality_and_hash_follow_the_blocks(ps):
    # small sizes make equal partitions from different labels common
    p, q, r = ps
    shuffled = SetPartition([b[::-1] for b in reversed(p.blocks)], p.size)
    for a, b in [(p, q), (p, r), (q, r), (p, shuffled)]:
        assert (a == b) == (a.blocks == b.blocks)
        assert (a != b) == (a.blocks != b.blocks)
        if a == b:
            assert hash(a) == hash(b)
    assert p == shuffled


@given(triples)
@settings(max_examples=300, deadline=None)
def test_refinement_follows_the_blocks(ps):
    p, q, r = ps
    for a, b in [(p, q), (q, p), (p, p.join(q)), (p.join(q), r)]:
        assert (a <= b) == all(any(set(x) <= set(y) for y in b.blocks)
                               for x in a.blocks)
    assert p <= p.join(q) and q <= p.join(q)


@given(triples)
@settings(max_examples=300, deadline=None)
def test_join_matches_reference_and_is_a_semilattice(ps):
    p, q, r = ps
    j = p.join(q)
    assert j == reference_join(p, q)
    assert_canonical(j)
    assert j == q.join(p)
    assert j.join(r) == p.join(q.join(r))
    assert p.join(p) == p
    again = SetPartition(p.blocks, p.size).join(SetPartition(q.blocks, q.size))
    assert again == j and hash(again) == hash(j)


def test_join_needs_one_ground_set():
    p, q = SetPartition.singletons(2), SetPartition.singletons(3)
    with pytest.raises(ValueError, match="different ground sets"):
        p.join(q)


@given(actions)
@settings(max_examples=300, deadline=None)
def test_act_matches_reference(pw):
    p, w = pw
    a = p.act(w)
    assert a == reference_act(p, w)
    assert_canonical(a)
    again = SetPartition(p.blocks, p.size).act(list(w))
    assert again == a and hash(again) == hash(a)


@pytest.mark.parametrize("w", [(1, 1, 3), (0, 2, 3), (2, 1), (1, 2, 3, 4)])
def test_act_rejects_a_non_permutation(w):
    p = SetPartition.parse("1,3|2", 3)
    with pytest.raises(ValueError, match="not a permutation of 1..3"):
        p.act(w)


@given(diagram_pairs)
@settings(max_examples=300, deadline=None)
def test_concat_matches_reference(pair):
    d1, d2 = pair
    d, loops = concat(d1, d2)
    assert (d, loops) == reference_concat(d1, d2)
    assert_canonical(d.part)
    canon = Diagram(d.n, d.part.blocks)
    assert d == canon and hash(d) == hash(canon) and str(d) == str(canon)


ramified_pairs = st.integers(0, 4).flatmap(lambda n: st.tuples(
    *[partitions_of_range(2 * n)] * 4).map(
        lambda ps: tuple(Ramified(Diagram(n, p), Diagram(n, p.join(q)))
                         for p, q in (ps[:2], ps[2:]))))


@given(ramified_pairs)
@settings(max_examples=200, deadline=None)
def test_memoized_ramified_product_matches_reference(pair):
    x, y = pair
    want = Ramified(reference_concat(x.left, y.left)[0],
                    reference_concat(x.right, y.right)[0])
    for _ in range(2):  # a miss or a hit, then a hit on fresh equal operands
        fresh = [Ramified(Diagram(z.n, z.left.part.blocks),
                          Diagram(z.n, z.right.part.blocks)) for z in (x, y)]
        prod = fresh[0] * fresh[1]
        assert prod == want and hash(prod) == hash(want)
        assert_canonical(prod.left.part)
        assert_canonical(prod.right.part)


def test_concat_counts_loops_like_the_reference():
    elements = brauer_monoid(3)
    total = 0
    for d1 in elements:
        for d2 in elements:
            d, loops = concat(d1, d2)
            assert (d, loops) == reference_concat(d1, d2)
            total += loops
    assert total > 0


@given(actions, st.data())
@settings(max_examples=100, deadline=None)
def test_cached_join_and_act_of_the_algebras_match_the_reference(pw, data):
    p, w = pw
    q = data.draw(partitions_of_range(p.size))
    w = tuple(w)
    for _ in range(2):  # a miss, then a hit on fresh equal operands
        moved = algebras._act(SetPartition(q.blocks, q.size), w)
        joined = algebras._join(SetPartition(p.blocks, p.size), moved)
        assert moved == reference_act(q, w) and hash(moved) == hash(reference_act(q, w))
        assert joined == reference_join(p, moved)


@given(rules, words)
@settings(max_examples=300, deadline=None)
def test_indexed_reduce_rewrites_the_leftmost_match(rules, word):
    index = presentations._RuleIndex(rules)
    assert index.reduce(word) == reference_reduce(word, rules)
    assert index.occurs_in(word) == any(lhs in word for lhs, _ in rules)


@given(index_sessions())
@settings(max_examples=300, deadline=None)
def test_index_grown_between_reductions_rewrites_the_leftmost_match(calls):
    index = presentations._RuleIndex()
    appended = []
    for kind, arg in calls:
        if kind == "append":
            index.append(*arg)
            appended.append(arg)
        elif kind == "reduce":
            assert index.reduce(arg) == reference_reduce(arg, appended)
        else:
            assert index.occurs_in(arg) == any(lhs in arg for lhs, _ in appended)
    assert index.rules == appended


def test_an_empty_lhs_is_refused():
    index = presentations._RuleIndex([(b"\x01", b"")])
    with pytest.raises(ValueError, match="nonempty lhs"):
        index.append(b"", b"")
    assert index.rules == [(b"\x01", b"")]
    assert index.reduce(b"\x00\x01") == b"\x00"
