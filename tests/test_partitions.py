import math
from itertools import product

import pytest
from hypothesis import given, strategies as st

from bsymbols.errors import NoSingleMove, NotAPartition, SizeMismatch
from bsymbols.families import family_table
from bsymbols.partitions import (
    BoxMove,
    _single_move,
    as_partition,
    break_points,
    dominance_leq,
    dominance_lt,
    down,
    format_partition,
    gap,
    normalize,
    overlap_count,
    padded,
    parse_partition,
    partitions_of,
    size,
    transpose,
    up,
)

partitions_st = st.lists(st.integers(min_value=0, max_value=9), max_size=8).map(
    lambda vs: tuple(sorted(vs, reverse=True))
)


def test_size():
    assert size((5, 1)) == 6
    assert size(()) == 0
    assert size((9, 4, 4, 3, 2, 1, 1, 0)) == 24


def test_as_partition_rejects_bad_input():
    with pytest.raises(NotAPartition):
        as_partition((1, 2))
    with pytest.raises(NotAPartition):
        as_partition((2, -1))


def test_dominance_examples():
    assert dominance_leq((3, 3, 2, 2, 1, 1, 0), (4, 3, 2, 2, 1, 0, 0))
    assert dominance_leq((2, 1), (2, 1))
    # prefix sums 4+4 = 8 > 4+3 = 7 at index 2
    assert not dominance_leq((4, 4, 2, 1, 1, 0, 0), (4, 3, 3, 1, 1, 0, 0))


def test_dominance_size_mismatch():
    with pytest.raises(SizeMismatch):
        dominance_leq((2,), (1,))


def test_dominance_is_partial_order_up_to_size_10():
    for s in range(11):
        ps = partitions_of(s)
        for p in ps:
            assert dominance_leq(p, p)
            for q in ps:
                if dominance_leq(p, q) and dominance_leq(q, p):
                    assert p == q


def test_dominance_transitive_small():
    for s in range(9):
        ps = partitions_of(s)
        for p in ps:
            for q in ps:
                if not dominance_leq(p, q):
                    continue
                for r in ps:
                    if dominance_leq(q, r):
                        assert dominance_leq(p, r)


def test_transpose_examples():
    assert transpose((3,)) == (1, 1, 1)
    assert transpose(()) == ()
    assert transpose((2, 1)) == (2, 1)


def transpose_by_columns(p):
    """The conjugate by its definition: column i + 1 counts the parts above i."""
    q = normalize(as_partition(p))
    if not q:
        return ()
    return tuple(sum(1 for v in q if v > i) for i in range(q[0]))


def test_transpose_matches_its_definition_up_to_16():
    checked = 0
    for n in range(17):
        for p in partitions_of(n):
            for x in (p, p + (0,), p + (0, 0, 0), list(p), list(p) + [0]):
                assert transpose(x) == transpose_by_columns(x), x
                checked += 1
    assert checked == 5 * sum(len(partitions_of(n)) for n in range(17))


@pytest.mark.parametrize("bad", [(1, 2), (2, -1), [3, 1, 2], (0, 1), [-1]])
def test_transpose_rejects_what_its_definition_rejects(bad):
    with pytest.raises(NotAPartition) as want:
        transpose_by_columns(bad)
    with pytest.raises(NotAPartition) as got:
        transpose(bad)
    assert str(got.value) == str(want.value)


def test_transpose_is_order_anti_isomorphism_up_to_10():
    for s in range(11):
        ps = partitions_of(s)
        for p in ps:
            assert transpose(transpose(p)) == p
            for q in ps:
                assert dominance_leq(p, q) == dominance_leq(transpose(q), transpose(p))


def test_overlap_count_examples():
    assert overlap_count((4, 4, 2, 2, 2, 1), 2) == 1
    assert overlap_count((4, 4, 2, 2, 2, 1), 3) == 1
    assert overlap_count((3, 2, 1), 2) == 0
    # zeros count like any other value
    assert overlap_count((4, 3, 2, 2, 1, 0, 0), 2) == 2


def test_up_examples():
    assert up((4, 3, 3, 1, 1, 0, 0), BoxMove(2, 3)) == (4, 4, 2, 1, 1, 0, 0)
    assert up((2, 2), BoxMove(1, 2)) == (3, 1)
    with pytest.raises(ValueError):
        BoxMove(2, 1)


def test_down_examples():
    assert down((4, 4, 2, 1, 1, 0, 0), BoxMove(2, 3)) == (4, 3, 3, 1, 1, 0, 0)
    assert down((3, 1), BoxMove(1, 2)) == (2, 2)
    with pytest.raises(NotAPartition):
        down((3, 3), BoxMove(2, 3))


def test_up_rejects_non_partition_results():
    with pytest.raises(NotAPartition):
        up((2, 2), BoxMove(2, 3))
    assert up((1, 1), BoxMove(1, 2)) == (2, 0)
    with pytest.raises(NotAPartition):
        up((1, 0), BoxMove(1, 2))


def test_up_strictly_raises_dominance():
    for s in range(9):
        for p in partitions_of(s):
            for k1 in range(1, len(p) + 1):
                for k2 in range(k1 + 1, len(p) + 1):
                    try:
                        q = up(p, BoxMove(k1, k2))
                    except NotAPartition:
                        continue
                    assert size(q) == size(p)
                    assert dominance_lt(p, q)


def single_move_three_passes(lo, hi):
    """The three-pass definition of _single_move, kept as the reference."""
    plus = [t for t, (x, y) in enumerate(zip(lo, hi), 1) if y == x + 1]
    minus = [t for t, (x, y) in enumerate(zip(lo, hi), 1) if y == x - 1]
    stray = [t for t, (x, y) in enumerate(zip(lo, hi), 1) if abs(y - x) > 1]
    if stray or len(plus) != 1 or len(minus) != 1 or plus[0] >= minus[0]:
        raise NoSingleMove(f"{hi} is not a single raised box away from {lo}")
    return BoxMove(plus[0], minus[0])


def move_or_error(extract, lo, hi):
    try:
        return extract(lo, hi)
    except NoSingleMove as exc:
        return str(exc)


def test_single_move_matches_the_three_pass_definition():
    pairs = [
        (padded(p, n), padded(q, n))
        for n in range(9)
        for p, q in product(partitions_of(n), repeat=2)
    ]
    for n in range(6):
        for b in range(n + 2):
            kappas = [fam.kappa.entries for fam in family_table(n, b).families]
            pairs += product(kappas, repeat=2)
    found = []
    for lo, hi in pairs:
        expected = move_or_error(single_move_three_passes, lo, hi)
        assert move_or_error(_single_move, lo, hi) == expected, (lo, hi)
        found.append(isinstance(expected, BoxMove))
    assert 0 < sum(found) < len(found)


def test_gap_examples():
    assert gap((5, 3, 2), 1) == 2
    assert gap((5, 3, 2), 3) == 2
    assert gap((4, 4), 1) == 0
    assert gap((5, 3), 0) == math.inf


def test_break_points_examples():
    assert break_points((5, 5, 4, 3, 3, 2), 1, 5) == [3]
    assert break_points((4, 4, 3, 3, 2, 2), 1, 5) == []
    assert break_points((3, 2, 1), 1, 2) == [1, 2]


def test_partitions_of_counts():
    # independent of the generator: classical recurrence for p(n)
    def count(n, cap):
        if n == 0:
            return 1
        return sum(count(n - k, k) for k in range(1, min(n, cap) + 1))

    for n in range(12):
        assert len(partitions_of(n)) == count(n, n)
    assert partitions_of(0) == ((),)
    assert len(set(partitions_of(10))) == len(partitions_of(10))


def test_text_round_trip():
    assert format_partition((9, 4, 4, 3, 2, 1, 1, 0)) == "9,4,4,3,2,1,1,0"
    assert format_partition(()) == "-"
    assert parse_partition("9,4,4,3,2,1,1,0") == (9, 4, 4, 3, 2, 1, 1, 0)
    assert parse_partition("-") == ()
    with pytest.raises(NotAPartition):
        parse_partition("1,2")


# the decimal table in format_partition covers 0-255; anything else takes
# the str() fallback, with the same bytes
parts_st = st.integers(min_value=-300, max_value=300)


@given(st.one_of(st.tuples(parts_st, parts_st, parts_st), st.lists(parts_st, max_size=40)))
def test_format_partition_is_str_join(p):
    assert format_partition(p) == (",".join(map(str, p)) if p else "-")


def test_format_partition_past_the_table():
    assert format_partition((255,)) == "255"
    assert format_partition((256,)) == "256"
    assert format_partition((300, 255, 2, 0)) == "300,255,2,0"
    assert format_partition([0, -1]) == "0,-1"
    assert format_partition([]) == "-"


@given(partitions_st)
def test_transpose_involution_property(p):
    assert transpose(transpose(p)) == normalize(p)


@given(partitions_st)
def test_dominance_reflexive_property(p):
    assert dominance_leq(p, p)


@given(partitions_st, st.integers(min_value=1, max_value=4))
def test_overlap_weights_property(p, l):
    # parts in runs of length >= 2, counted with multiplicity
    from itertools import groupby

    repeated = sum(r for r in (len(list(g)) for _, g in groupby(p)) if r >= 2)
    assert sum(k * overlap_count(p, k) for k in range(2, len(p) + 1)) == repeated
    assert overlap_count(p, l) >= 0


@given(partitions_st)
def test_overlap_stable_under_smaller_append(p):
    p = normalize(p)
    if not p or p[-1] == 0:
        return
    longer = p + (p[-1] - 1,)
    for l in range(2, len(p) + 2):
        assert overlap_count(longer, l) == overlap_count(p, l)
