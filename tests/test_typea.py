import pytest

from bsymbols.errors import NotAdjacent, NotAPartition, RankMismatch
from bsymbols.partitions import BoxMove, dominance_leq, normalize, partitions_of, size, up
from bsymbols.typea import (
    a_value_typeA,
    adjacent_single_box,
    pieri_targets,
    preceq_typeA_oracle,
    truncated_pieri_targets,
)


def vertical_strip_targets(p, l):
    """Independent description: partitions adding at most one box per row."""
    out = set()
    for q in partitions_of(size(p) + l):
        width = max(len(p), len(q))
        lo = p + (0,) * (width - len(p))
        hi = q + (0,) * (width - len(q))
        if all(0 <= y - x <= 1 for x, y in zip(lo, hi)):
            out.add(q)
    return out


def test_a_value_examples():
    for n in range(1, 7):
        assert a_value_typeA((n,)) == 0
    assert a_value_typeA((1, 1, 1)) == 3
    assert a_value_typeA((2, 1)) == 1


def test_a_value_matches_weighted_sum_up_to_10():
    for n in range(11):
        for p in partitions_of(n):
            assert a_value_typeA(p) == sum(i * v for i, v in enumerate(p))


def test_pieri_examples():
    assert pieri_targets((), 1) == {(1,)}
    assert pieri_targets((1, 1), 1) == {(2, 1), (1, 1, 1)}
    # adding one box to two different rows of (2,1), rows below the
    # diagram included: the vertical 2-strips over (2,1)
    assert pieri_targets((2, 1), 2) == {(3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)}


def test_pieri_matches_vertical_strips():
    for n in range(6):
        for p in partitions_of(n):
            for l in (1, 2, 3):
                assert pieri_targets(p, l) == vertical_strip_targets(p, l)


def test_truncated_pieri_examples():
    assert truncated_pieri_targets((2, 1), 2) == {(3, 2)}
    assert truncated_pieri_targets((), 3) == {(1, 1, 1)}
    assert truncated_pieri_targets((3,), 1) == {(4,)}


def test_truncated_subset_of_pieri():
    for n in range(6):
        for p in partitions_of(n):
            for l in (1, 2, 3, 4):
                assert truncated_pieri_targets(p, l) <= pieri_targets(p, l)


def test_oracle_rank3_total_order():
    oracle = preceq_typeA_oracle(3)
    assert oracle.holds((1, 1, 1), (2, 1))
    assert oracle.holds((2, 1), (3,))
    assert oracle.holds((1, 1, 1), (3,))
    assert not oracle.holds((3,), (2, 1))


def test_oracle_rejects_elements_outside_its_rank():
    oracle = preceq_typeA_oracle(3)
    with pytest.raises(RankMismatch, match="^1 is not an element of rank 3$"):
        oracle.holds((2, 1), (1,))
    with pytest.raises(RankMismatch, match="^1 is not an element of rank 3$"):
        oracle.holds((1,), (2, 1))
    with pytest.raises(NotAPartition):
        oracle.holds((1, 2), (3,))


def test_oracle_rank0():
    oracle = preceq_typeA_oracle(0)
    assert oracle.holds((), ())


def test_oracle_incomparable_pair_rank6():
    oracle = preceq_typeA_oracle(6)
    assert not oracle.holds((3, 3), (4, 1, 1))
    assert not oracle.holds((4, 1, 1), (3, 3))


def test_oracle_equals_dominance_up_to_10():
    for n in range(11):
        oracle = preceq_typeA_oracle(n)
        for p in partitions_of(n):
            for q in partitions_of(n):
                assert oracle.holds(p, q) == dominance_leq(p, q)


def test_example_witness_construction():
    # for adjacent p < q with the box moved from row j1 to row i1, the
    # partition nu lowering the first j1-1 rows of q certifies the step
    for n in range(2, 8):
        ps = partitions_of(n)
        for p in ps:
            for q in ps:
                if p == q or not dominance_leq(p, q):
                    continue
                try:
                    move = adjacent_single_box(p, q)
                except NotAdjacent:
                    continue
                j1 = move.k2
                width = max(len(q), j1)
                qq = q + (0,) * (width - len(q))
                nu = tuple(v - 1 if t < j1 - 1 else v for t, v in enumerate(qq))
                nu = tuple(v for v in nu if v)
                assert q in truncated_pieri_targets(nu, j1 - 1)
                assert p in pieri_targets(nu, j1 - 1)


def test_adjacent_single_box_examples():
    assert adjacent_single_box((2, 2), (3, 1)) == BoxMove(1, 2)
    assert adjacent_single_box((1, 1, 1), (2, 1)) == BoxMove(1, 3)
    with pytest.raises(NotAdjacent):
        adjacent_single_box((1, 1, 1), (3,))


def test_adjacent_single_box_matches_betweenness_scan():
    # reference: q covers p when no partition of n lies strictly between
    for n in range(10):
        ps = partitions_of(n)
        for p in ps:
            for q in ps:
                if p == q or not dominance_leq(p, q):
                    continue
                between = any(
                    r != p and r != q and dominance_leq(p, r) and dominance_leq(r, q)
                    for r in ps
                )
                if between:
                    with pytest.raises(NotAdjacent):
                        adjacent_single_box(p, q)
                else:
                    move = adjacent_single_box(p, q)
                    assert normalize(up(p, move)) == q
