"""The label kernels of set-partition and diagram products (`join`, `act`,
`concat`, and the products of the ramified monoids, TL(n) and BTL(n)
through the cached `times`) against the dict-based union-find they
replaced, the builders that emit labels (`all_partitions`, `over`,
`pieces`, `perm_diagram`, `perm_of_diagram`, `tie_diagram`,
`boxed_diagram`, `tied_element`, `flip`, `support_partition`) against
their definitions by blocks, equality, hash and refinement of the label
tuples against the blocks, the methods that read the labels against the
blocks a partition used to store, and the indexed, memoized word reduction
of Knuth-Bendix against a search of every lhs by `find`."""

from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiedbox import algebras, diagrams, perms, presentations
from tiedbox.algebras import BTLAlgebra, TLAlgebra
from tiedbox.cellular import btl_cellular, tl_cellular
from tiedbox.combinatorics import bell, compositions, intervals
from tiedbox.diagrams import Diagram, boxed_diagram, brauer_monoid, concat, \
    hook, jones_monoid, over, partition_monoid, perm_diagram, \
    perm_of_diagram, pieces, tie_diagram, times
from tiedbox.laurent import DELTA
from tiedbox.ramified import Ramified, tied_element, tied_key
from tiedbox.setpartitions import SetPartition, all_partitions, \
    mobius_linear, mobius_partition


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
    for b in d1.blocks:
        for x in b[1:]:
            uf.union(b[0], x)
    for b in d2.blocks:
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


def reference_all_partitions(n):
    """The block-list recursion that enumerated the set partitions of
    {1..n}: point x joins each block in turn, then opens a new one."""
    out = []

    def rec(x, blocks):
        if x > n:
            out.append(SetPartition(blocks, n))
            return
        for b in blocks:
            b.append(x)
            rec(x + 1, blocks)
            b.pop()
        blocks.append([x])
        rec(x + 1, blocks)
        blocks.pop()

    rec(1, [])
    return out


def reference_over(*ds):
    """Side by side: the blocks of the k-th diagram moved into the k-th box
    of the top row and of the bottom row."""
    sizes = [d.n for d in ds]
    n = sum(sizes)
    blocks = []
    for d, box in zip(ds, intervals(sizes)):
        at = [*box, *(n + x for x in box)]  # point x of d goes to at[x - 1]
        blocks += [[at[x - 1] for x in b] for b in d.blocks]
    return Diagram(n, blocks)


def reference_support_partition(w):
    """The blocks 1..i, i+1..j, ... cut where w maps an initial segment
    onto itself."""
    blocks, start = [], 1
    for i in range(1, len(w) + 1):
        if set(w[:i]) == set(range(1, i + 1)):
            blocks.append(range(start, i + 1))
            start = i + 1
    return SetPartition(blocks, len(w))


def reference_chain(word, rules):
    """The words met while rewriting the leftmost occurrence of an lhs, the
    least (start, length), until no lhs occurs: word first, reduced last."""
    chain = [word]
    while occurring := [(word.find(lhs), len(lhs), rhs)
                        for lhs, rhs in rules if lhs in word]:
        start, length, rhs = min(occurring)
        word = word[:start] + rhs + word[start + length:]
        chain.append(word)
    return chain


def reference_reduce(word, rules):
    return reference_chain(word, rules)[-1]


def assert_canonical(p):
    """p is exactly what the validating constructor of its class makes of
    its blocks."""
    canon = Diagram(p.n, p.blocks) if type(p) is Diagram else \
        SetPartition(p.blocks, p.size)
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
    between reductions and containment tests.  A reduction "again" reduces
    a word of the chain of an earlier reduction, so it may be answered from
    the index's memo.  Each rhs is shorter than its lhs, so every reduction
    ends."""
    calls, seen, chain_words = [], [], []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(["new", "prefix", "extension", "reduce",
                                     "again", "occurs_in"]))
        if kind == "again" and chain_words:
            calls.append(("reduce", draw(st.sampled_from(chain_words))))
            continue
        if kind in ("reduce", "again"):
            word = draw(words)
            appended = [arg for call, arg in calls if call == "append"]
            chain_words += reference_chain(word, appended)
            calls.append(("reduce", word))
            continue
        if kind == "occurs_in":
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


@st.composite
def scattered_blocks(draw, n):
    """The blocks of a partition of 1..n from a label per point, each block
    shuffled, in shuffled order, some singletons left out; and the labels."""
    labels = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    blocks = {}
    for x, label in enumerate(labels, 1):
        blocks.setdefault(label, []).append(x)
    blocks = [draw(st.permutations(b)) for b in blocks.values()]
    blocks = [b for b in draw(st.permutations(blocks))
              if len(b) > 1 or draw(st.booleans())]
    return blocks, labels


diagram_pairs = st.integers(0, 5).flatmap(lambda n: st.tuples(
    partitions_of_range(2 * n), partitions_of_range(2 * n)).map(
        lambda ps: (Diagram(n, ps[0].blocks), Diagram(n, ps[1].blocks))))


@given(st.integers(0, 8).flatmap(scattered_blocks))
@settings(max_examples=300, deadline=None)
def test_blocks_constructor_canonicalises_like_the_labels(blocks_labels):
    blocks, labels = blocks_labels
    p, q = SetPartition(blocks, len(labels)), SetPartition._from_labels(labels)
    assert (p.blocks, p.size, p._index, p._hash) == \
        (q.blocks, q.size, q._index, q._hash)
    covered = {x for b in blocks for x in b}
    assert sorted(map(list, p.blocks)) == sorted(
        [sorted(b) for b in blocks] +
        [[x] for x in range(1, len(labels) + 1) if x not in covered])


def stored_blocks(labels):
    """The blocks that a set partition used to store beside its labels,
    built as its canonicaliser built them: point x joins the block of its
    label, blocks opened in order of least point."""
    blocks, slot = [], {}
    for x, label in enumerate(labels, 1):
        i = slot.get(label)
        if i is None:
            slot[label] = len(blocks)
            blocks.append([x])
        else:
            blocks[i].append(x)
    return tuple(map(tuple, blocks))


def assert_block_definitions(p, q):
    """Every method that reads the labels of p (and of q, on the same
    ground set) agrees with its definition by the stored blocks."""
    pb, qb = stored_blocks(p._index), stored_blocks(q._index)
    assert p.blocks == pb and q.blocks == qb
    assert p.type_of() == tuple(sorted(map(len, pb), reverse=True))
    linear = all(b[-1] - b[0] == len(b) - 1 for b in pb)
    assert p.is_linear() == linear
    if linear:
        assert p.to_composition() == tuple(map(len, pb))
    else:
        with pytest.raises(ValueError, match="not a linear partition"):
            p.to_composition()
    finer = all(any(set(x) <= set(y) for y in qb) for x in pb)
    assert (p <= q) == finer
    uf = ReferenceUnionFind(range(1, p.size + 1))
    for b in pb + qb:
        for x in b[1:]:
            uf.union(b[0], x)
    assert p.join(q) == SetPartition(uf.classes(), p.size)
    assert mobius_linear(p, q) == ((-1) ** (len(pb) - len(qb)) if finer else 0)
    want = 0
    if finer:
        want = 1
        for y in qb:
            k = sum(set(x) <= set(y) for x in pb)
            want *= (-1) ** (k - 1) * factorial(k - 1)
    assert mobius_partition(p, q) == want


def test_every_small_partition_matches_its_stored_blocks():
    for n in range(7):
        parts = all_partitions(n)
        for p in parts:
            assert_block_definitions(p, parts[0])
            assert_block_definitions(p, parts[-1])
            assert p._nblocks == len(stored_blocks(p._index))


small_pairs = st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.sampled_from(all_partitions(n)), st.sampled_from(all_partitions(n))))


@given(small_pairs | triples.map(lambda ps: ps[:2]))
@settings(max_examples=300, deadline=None)
def test_label_methods_match_the_stored_blocks(pq):
    assert_block_definitions(*pq)


@given(diagram_pairs)
@settings(max_examples=200, deadline=None)
def test_diagram_label_methods_match_the_stored_blocks(pair):
    assert_block_definitions(*pair)
    d = pair[0]
    assert str(d) == f"{d.n}; " + "|".join(
        ",".join(map(str, b)) for b in stored_blocks(d._index))


def test_a_set_partition_stores_only_its_labels():
    assert "blocks" not in SetPartition.__slots__
    for p in (SetPartition.singletons(3), all_partitions(4)[7],
              partition_monoid(2)[9], hook(3, 1)):
        assert not hasattr(p, "__dict__")


def test_partition_monoid_keeps_the_order_of_all_partitions():
    for n in range(4):
        assert [d._index for d in partition_monoid(n)] == \
            [p._index for p in all_partitions(2 * n)]


def test_partition_monoid_leaves_all_partitions_uncached():
    before = all_partitions.cache_info()
    assert len(partition_monoid(4)) == bell(8)
    assert all_partitions.cache_info() == before


def test_all_partitions_keep_the_order_of_the_block_recursion():
    for n in range(9):
        got = all_partitions(n)
        want = reference_all_partitions(n)
        assert [p.blocks for p in got] == [p.blocks for p in want]
        for p in got:
            assert_canonical(p)


@given(st.lists(st.integers(0, 3).flatmap(
    lambda n: partitions_of_range(2 * n).map(lambda p: Diagram(n, p.blocks))),
    max_size=4))
@settings(max_examples=300, deadline=None)
def test_over_matches_reference(ds):
    d = over(*ds)
    assert d == reference_over(*ds)
    assert_canonical(d)


def test_permutation_builders_match_their_block_definitions():
    for n in range(5):
        for w in perms.all_perms(n):
            d = perm_diagram(w)
            assert d == Diagram(n, [(i, n + w[i - 1]) for i in range(1, n + 1)])
            assert_canonical(d)
            assert perm_of_diagram(d) == w
            support = algebras.support_partition(w)
            assert support == reference_support_partition(w)
            assert_canonical(support)
            for ties in all_partitions(n):
                x = tied_element((ties, w))
                assert x.left == d
                assert x.right == Diagram(n, [
                    b + tuple(n + w[v - 1] for v in b) for b in ties.blocks])
                assert_canonical(x.right)
                assert tied_key(x) == (ties, w)


def reference_tie(n, i, j):
    """The identity with strands i and j tied, by its blocks."""
    blocks = [(k, n + k) for k in range(1, n + 1) if k not in (i, j)]
    return Diagram(n, blocks + [(i, j, n + i, n + j)])


def reference_boxed_diagram(mu):
    """b_mu, by its blocks: each box joined with the box below it."""
    n = sum(mu)
    return Diagram(n, [(*box, *(n + x for x in box)) for box in intervals(mu)])


def test_tie_diagram_matches_its_block_definitions():
    for n in range(5):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                d = tie_diagram(SetPartition([(i, j)], n))
                assert d == reference_tie(n, i, j)
                assert_canonical(d)
        for mu in compositions(n):
            d = tie_diagram(SetPartition.from_composition(mu))
            assert d == boxed_diagram(mu) == reference_boxed_diagram(mu)
            assert_canonical(d)
            assert boxed_diagram(mu) is boxed_diagram(mu)


def test_flip_and_perm_of_diagram_on_every_diagram():
    for n in range(5):
        perm_diagrams = {perm_diagram(w): w for w in perms.all_perms(n)}
        for d in partition_monoid(n):
            flipped = d.flip()
            assert flipped == Diagram(n, [
                [x + n if x <= n else x - n for x in b] for b in d.blocks])
            assert_canonical(flipped)
            if d in perm_diagrams:
                assert perm_of_diagram(d) == perm_diagrams[d]
            else:
                with pytest.raises(ValueError, match="not a permutation diagram"):
                    perm_of_diagram(d)


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
    assert_canonical(d)
    canon = Diagram(d.n, d.blocks)
    assert d == canon and hash(d) == hash(canon) and str(d) == str(canon)


ramified_pairs = st.integers(0, 4).flatmap(lambda n: st.tuples(
    *[partitions_of_range(2 * n)] * 4).map(
        lambda ps: tuple(Ramified(Diagram(n, p.blocks),
                                  Diagram(n, p.join(q).blocks))
                         for p, q in (ps[:2], ps[2:]))))


@given(ramified_pairs)
@settings(max_examples=200, deadline=None)
def test_memoized_ramified_product_matches_reference(pair):
    x, y = pair
    want = Ramified(reference_concat(x.left, y.left)[0],
                    reference_concat(x.right, y.right)[0])
    for _ in range(2):  # a miss or a hit, then a hit on fresh equal operands
        fresh = [Ramified(Diagram(z.n, z.left.blocks),
                          Diagram(z.n, z.right.blocks)) for z in (x, y)]
        prod = fresh[0] * fresh[1]
        assert prod == want and hash(prod) == hash(want)
        assert_canonical(prod.left)
        assert_canonical(prod.right)


def test_concat_counts_loops_like_the_reference():
    elements = brauer_monoid(3)
    total = 0
    for d1 in elements:
        for d2 in elements:
            d, loops = concat(d1, d2)
            assert (d, loops) == reference_concat(d1, d2)
            total += loops
    assert total > 0


def reference_tl_product(d1, d2):
    d, loops = reference_concat(d1, d2)
    return {d: DELTA ** loops}


def box_pieces(d, mu):
    """d cut along the boxes of mu, each piece on the strands of its box."""
    n = d.n
    return [Diagram(len(box), d.restrict([*box, *(n + p for p in box)]).blocks)
            for box in intervals(mu)]


@pytest.mark.parametrize("family", [jones_monoid, brauer_monoid])
def test_pieces_invert_over(family):
    for n in range(5):
        for mu in compositions(n):
            for ds in product(*map(family, mu)):
                got = pieces(over(*ds), mu)
                assert got == list(ds) == box_pieces(over(*ds), mu)
                for d in got:
                    assert type(d) is Diagram
                    assert_canonical(d)


def reference_btl_product(key1, key2):
    """Box by box, with DELTA raised to the loops of all boxes."""
    (mu, d1), (nu, d2) = key1, key2
    if mu != nu:
        return {}
    blocks = [reference_concat(d, e)
              for d, e in zip(box_pieces(d1, mu), box_pieces(d2, mu))]
    return {(mu, over(*(d for d, _ in blocks))):
            DELTA ** sum(loops for _, loops in blocks)}


def fresh_diagram(d):
    return Diagram(d.n, d.blocks)


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("algebra, reference, fresh", [
    (TLAlgebra, reference_tl_product, fresh_diagram),
    (BTLAlgebra, reference_btl_product,
     lambda key: (key[0], fresh_diagram(key[1]))),
])
def test_cached_diagram_algebra_products_match_the_reference(
        n, algebra, reference, fresh):
    times.cache_clear()
    basis = algebra(n).basis()
    for k1 in basis:
        for k2 in basis:
            want = reference(k1, k2)
            for _ in range(2):  # a miss or a hit, then a hit on fresh operands
                got = algebra(n).mul_basis(fresh(k1), fresh(k2))
                assert got == want
                for key in got:
                    assert_canonical(key[1] if isinstance(key, tuple) else key)


@pytest.mark.parametrize("build, algebra, n", [
    (tl_cellular, TLAlgebra, 5), (btl_cellular, BTLAlgebra, 4)])
def test_diagram_algebras_reuse_cached_products(
        monkeypatch, build, algebra, n):
    # without the cache each nonzero basis product makes at least one
    # concatenation of its own (a BTL product of two compositions is zero);
    # the calls with a nonzero result are counted, every call of `concat`
    counts = {"concat": 0, "mul_basis": 0}

    def counted(name, fn):
        def wrapper(*args):
            out = fn(*args)
            counts[name] += bool(out)
            return out
        return wrapper

    times.cache_clear()
    monkeypatch.setattr(diagrams, "concat", counted("concat", concat))
    monkeypatch.setattr(algebra, "mul_basis",
                        counted("mul_basis", algebra.mul_basis))
    build(n)
    assert 0 < counts["concat"] < counts["mul_basis"]


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


def test_a_rule_appended_after_a_reduction_is_used():
    # b"\x00\x02\x00" is irreducible under the first rule, and its reduced
    # form is memoized; the appended rule rewrites it
    index = presentations._RuleIndex([(b"\x01\x01", b"\x01")])
    word = b"\x00\x02\x00"
    assert index.reduce(word) == word
    index.append(b"\x02", b"")
    assert index.reduce(word) == reference_reduce(word, index.rules) == b"\x00\x00"


def test_an_empty_lhs_is_refused():
    index = presentations._RuleIndex([(b"\x01", b"")])
    with pytest.raises(ValueError, match="nonempty lhs"):
        index.append(b"", b"")
    assert index.rules == [(b"\x01", b"")]
    assert index.reduce(b"\x00\x01") == b"\x00"
