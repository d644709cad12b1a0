"""Set partitions under refinement: joins, Mobius functions, encodings."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiedbox.combinatorics import bell, compositions
from tiedbox.setpartitions import (
    SetPartition,
    all_partitions,
    linear_partitions,
    mobius_linear,
    mobius_partition,
)


def partitions_oracle(ground):
    """Independent enumeration: every equivalence relation via block maps."""
    ground = tuple(ground)
    if not ground:
        return {()}
    out = set()
    for assignment in itertools.product(range(len(ground)), repeat=len(ground)):
        # canonicalize the color assignment into sorted block tuples
        blocks = {}
        for x, c in zip(ground, assignment):
            blocks.setdefault(c, []).append(x)
        out.add(tuple(sorted((tuple(sorted(b)) for b in blocks.values()),
                             key=lambda b: b[0])))
    return out


def test_all_partitions_matches_oracle():
    for n in range(5):
        ground = tuple(range(1, n + 1))
        got = {p.blocks for p in all_partitions(n)}
        assert got == partitions_oracle(ground)
        assert len(got) == bell(n)


def test_linear_partitions_are_compositions():
    for n in range(1, 6):
        ps = linear_partitions(n)
        assert len(ps) == 2 ** (n - 1)
        assert all(p.is_linear() for p in ps)
        assert sorted(p.to_composition() for p in ps) == sorted(compositions(n))


def test_refinement_and_join():
    singles = SetPartition.singletons(4)
    full = SetPartition([(1, 2, 3, 4)])
    for p in all_partitions(4):
        assert singles <= p <= full
        assert p.join(p) == p
        assert p.join(singles) == p
        assert p.join(full) == full


small_parts = st.sampled_from(all_partitions(4))


@given(small_parts, small_parts, small_parts)
@settings(max_examples=150, deadline=None)
def test_join_semilattice(p, q, r):
    assert p.join(q) == q.join(p)
    assert p.join(q).join(r) == p.join(q.join(r))
    assert p <= p.join(q)
    assert q <= p.join(q)


@given(small_parts, small_parts)
@settings(max_examples=100, deadline=None)
def test_join_is_least_upper_bound(p, q):
    j = p.join(q)
    for r in all_partitions(4):
        if p <= r and q <= r:
            assert j <= r


def test_mobius_linear_delta_identity():
    # sum over [I, K] of mu(I, J) is the Kronecker delta at K = I
    for n in (2, 3, 4):
        for i_part in linear_partitions(n):
            for k_part in linear_partitions(n):
                if not i_part <= k_part:
                    continue
                total = sum(
                    mobius_linear(i_part, j)
                    for j in linear_partitions(n)
                    if i_part <= j <= k_part
                )
                assert total == (1 if i_part == k_part else 0)


def test_mobius_partition_delta_identity():
    parts = all_partitions(4)
    for i_part in parts:
        for k_part in parts:
            if not i_part <= k_part:
                continue
            total = sum(
                mobius_partition(i_part, j)
                for j in parts
                if i_part <= j <= k_part
            )
            assert total == (1 if i_part == k_part else 0)


def test_act_and_type():
    p = SetPartition.parse("1,3|2", 3)
    assert p.type_of() == (2, 1)
    q = p.act((2, 3, 1))  # relabel points through the permutation
    assert q.blocks == ((1, 2), (3,))
    assert sorted(b for bl in q.blocks for b in bl) == [1, 2, 3]


def test_str_parse_roundtrip():
    for p in all_partitions(4):
        assert SetPartition.parse(str(p), p.size) == p


@pytest.mark.parametrize("blocks, message", [
    ([()], "empty block"),
    ([(1,), ()], "empty block"),
    ([(1, 2), (2,)], "blocks overlap"),
    ([(1, 3)], "blocks not inside 1..2"),
    ([(0,)], "blocks not inside 1..2"),
])
def test_malformed_blocks_are_refused(blocks, message):
    with pytest.raises(ValueError, match=message):
        SetPartition(blocks, 2)


def test_negative_size_is_refused():
    with pytest.raises(ValueError, match="negative size -1"):
        SetPartition((), -1)
