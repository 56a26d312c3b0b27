import json
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bsymbols.errors import NoSingleMove, NotAdmissible, NotAPartition, NotSympartition
from bsymbols.families import enumerate_bipartitions, family_table
from bsymbols.partitions import (
    BoxMove,
    _single_move,
    down,
    normalize,
    padded,
    partitions_of,
    size,
    up,
)
from bsymbols.symbols import (
    _PARSE_MEMO_SIZE,
    EMPTY,
    Bipartition,
    _a,
    _dual,
    _fiber,
    _profile,
    a_value,
    bipartition,
    f_stat,
    family_members,
    _parsed,
    from_sympartition,
    is_sympartition,
    kappa,
    min_admissible,
    n_stat,
    symbol,
)
from bsymbols.verify import _sympartitions_by_rank

# the ten bipartitions of 3 with their symbols and kappas at b=1, N=3
B3_TABLE = [
    ("1,1,1|-", (0, 1, 2), (0, 2, 3, 4), (4, 3, 2, 2, 1, 0, 0)),
    ("2,1|-", (0, 1, 2), (0, 1, 3, 5), (5, 3, 2, 1, 1, 0, 0)),
    ("3|-", (0, 1, 2), (0, 1, 2, 6), (6, 2, 2, 1, 1, 0, 0)),
    ("-|1,1,1", (1, 2, 3), (0, 1, 2, 3), (3, 3, 2, 2, 1, 1, 0)),
    ("-|2,1", (0, 2, 4), (0, 1, 2, 3), (4, 3, 2, 2, 1, 0, 0)),
    ("-|3", (0, 1, 5), (0, 1, 2, 3), (5, 3, 2, 1, 1, 0, 0)),
    ("1|1,1", (0, 2, 3), (0, 1, 2, 4), (4, 3, 2, 2, 1, 0, 0)),
    ("1|2", (0, 1, 4), (0, 1, 2, 4), (4, 4, 2, 1, 1, 0, 0)),
    ("1,1|1", (0, 1, 3), (0, 1, 3, 4), (4, 3, 3, 1, 1, 0, 0)),
    ("2|1", (0, 1, 3), (0, 1, 2, 5), (5, 3, 2, 1, 1, 0, 0)),
]


def test_min_admissible():
    assert min_admissible(bipartition((5, 1), (2, 2, 1))) == 3
    assert min_admissible(EMPTY) == 0
    assert min_admissible(bipartition((1, 1, 1), ())) == 3


def test_symbol_worked_example():
    s = symbol(bipartition((5, 1), (2, 2, 1)), 2, 3)
    assert s.row2 == (1, 3, 4)
    assert s.row1 == (0, 1, 2, 4, 9)


def test_symbol_staircases():
    s = symbol(bipartition((1, 1, 1), ()), 1, 3)
    assert (s.row2, s.row1) == ((0, 1, 2), (0, 2, 3, 4))
    s = symbol(EMPTY, 1, 3)
    assert (s.row2, s.row1) == ((0, 1, 2), (0, 1, 2, 3))


def test_symbol_not_admissible():
    with pytest.raises(NotAdmissible):
        symbol(bipartition((5, 1), (2, 2, 1)), 2, 2)


def test_kappa_examples():
    assert kappa(bipartition((5, 1), (2, 2, 1)), 2, 3).entries == (9, 4, 4, 3, 2, 1, 1, 0)
    assert kappa(bipartition((1,), (2,)), 1, 3).entries == (4, 4, 2, 1, 1, 0, 0)
    assert kappa(bipartition((), (1, 1, 1)), 1, 3).entries == (3, 3, 2, 2, 1, 1, 0)


def test_full_rank3_table():
    for text, row2, row1, entries in B3_TABLE:
        bp = Bipartition.parse(text)
        s = symbol(bp, 1, 3)
        assert (s.row2, s.row1) == (row2, row1), text
        assert kappa(bp, 1, 3).entries == entries, text


def test_f_stat():
    assert f_stat(2, 3, 11) == 24
    for b in range(5):
        assert f_stat(b, 0, 0) == b * (b - 1) // 2
    assert f_stat(1, 3, 3) == 12


def test_n_stat():
    assert n_stat((3, 2, 2, 1, 1, 0, 0)) == 13
    assert n_stat((7,)) == 0
    assert n_stat((6, 2, 2, 1, 1, 0, 0)) == 13
    assert n_stat(kappa(EMPTY, 1, 3)) == 13


def test_a_value_examples():
    assert a_value(bipartition((3,), ()), 1) == 0
    assert a_value(bipartition((), (1, 1, 1)), 1) == 9
    for b in range(5):
        assert a_value(EMPTY, b) == 0


def test_empty_n_stat_closed_form():
    # _a subtracts the empty kappa's n_stat in closed form, in place of building it
    for b, N in product(range(40), range(40)):
        assert _a(kappa(EMPTY, b, N).entries, b, N) == 0, (b, N)


def test_a_value_independent_of_admissible_size():
    for n in range(10):
        for b in range(5):
            for bp in enumerate_bipartitions(n):
                base = min_admissible(bp)
                a = a_value(bp, b)
                for N in range(base, base + 4):
                    k = kappa(bp, b, N)
                    assert n_stat(k) - n_stat(kappa(EMPTY, b, N)) == a, (bp, b, N)
                    # family_table and compare call _a at N = n, above the least N
                    assert _a(k.entries, b, N) == a, (bp, b, N)


def test_a_value_is_affine_in_b_from_b_equal_n_minus_1():
    # a(bp, b) = a(bp, n) + (b - n)|second| for every bp of rank n once
    # b >= n - 1, and below that some bp of each rank n >= 2 breaks it
    for n in range(8):
        bips = enumerate_bipartitions(n)
        at_n = {bp: a_value(bp, n) for bp in bips}
        for b in range(n + 6):
            broken = [bp for bp in bips if a_value(bp, b) != at_n[bp] + (b - n) * size(bp.second)]
            assert (broken == []) == (b >= n - 1), (n, b, broken)


def test_is_sympartition_examples():
    p = (7, 4, 4, 3, 2, 1, 1, 0)
    assert is_sympartition(p, 2, 3, 9)
    assert is_sympartition(p, 4, 2, 6)
    # two 2-overlaps rule out N = 1; the totals force b = 6, n = 1
    assert f_stat(6, 1, 1) == size(p)
    assert not is_sympartition(p, 6, 1, 1)


def test_is_sympartition_rejects_wrong_total_and_length():
    assert not is_sympartition((7, 4, 4, 3, 2, 1, 1, 0), 2, 3, 10)
    assert not is_sympartition((2, 1, 1, 0, 0), 1, 1, 2)  # too long for 2N+b = 3
    assert not is_sympartition((4, 2), 0, 3, 0)  # padded zeros give a 3-overlap


def test_is_sympartition_requires_bottom_staircase():
    # (3,2,1) has the right total for (1,1,5) but no symbol at N=1 avoids entry 0
    assert f_stat(1, 1, 5) == 6
    assert not is_sympartition((3, 2, 1), 1, 1, 5)
    assert is_sympartition((5, 1, 0), 1, 1, 5)


def test_kappa_is_sympartition_small():
    for n in range(10):
        for b in range(5):
            for bp in enumerate_bipartitions(n):
                N = min_admissible(bp)
                k = kappa(bp, b, N)
                assert size(k.entries) == f_stat(b, N, n)
                assert is_sympartition(k.entries, b, N, n)


def test_dominance_independent_of_common_size():
    # the comparison of two bipartitions through their kappas does not
    # depend on which common admissible size is used; one representative
    # per kappa class suffices since dominance only sees the kappa
    from bsymbols.partitions import dominance_leq

    for n in range(9):
        for b in range(4):
            reps: dict = {}
            for bp in enumerate_bipartitions(n):
                reps.setdefault(kappa(bp, b, n).entries, bp)
            chosen = list(reps.values())
            at_n = [kappa(bp, b, n).entries for bp in chosen]
            at_n1 = [kappa(bp, b, n + 1).entries for bp in chosen]
            for i in range(len(chosen)):
                for j in range(len(chosen)):
                    assert dominance_leq(at_n[i], at_n[j]) == dominance_leq(
                        at_n1[i], at_n1[j]
                    )


def test_from_sympartition_round_trip_worked_example():
    bp = from_sympartition((9, 4, 4, 3, 2, 1, 1, 0), 2, 3, 11)
    assert bp.rank == 11
    assert min_admissible(bp) <= 3
    assert kappa(bp, 2, 3).entries == (9, 4, 4, 3, 2, 1, 1, 0)


def test_from_sympartition_staircase_is_fixed_point():
    for b in range(4):
        for N in range(4):
            assert from_sympartition(kappa(EMPTY, b, N).entries, b, N, 0) == EMPTY


def test_from_sympartition_lands_in_family():
    bp = from_sympartition((4, 3, 2, 2, 1, 0, 0), 1, 3, 3)
    assert bp.text() in {"1,1,1|-", "-|2,1", "1|1,1"}


def test_from_sympartition_keeps_the_largest_free_singletons_in_row1():
    # the free singletons of (4, 3, 2, 2, 1, 0, 0) at (b, N) = (1, 3) are 4, 3, 1;
    # row1 keeps 4 and 3, so the rows are (4, 3, 2, 0) and (2, 1, 0)
    assert from_sympartition((4, 3, 2, 2, 1, 0, 0), 1, 3, 3).text() == "1,1,1|-"


def test_from_sympartition_rejects():
    with pytest.raises(NotSympartition):
        from_sympartition((3, 2, 1), 1, 1, 5)


def test_family_members_examples():
    fam = family_members((4, 3, 2, 2, 1, 0, 0), 1, 3, 3)
    assert {bp.text() for bp in fam} == {"1,1,1|-", "-|2,1", "1|1,1"}
    fam = family_members((6, 2, 2, 1, 1, 0, 0), 1, 3, 3)
    assert {bp.text() for bp in fam} == {"3|-"}
    for b in range(3):
        assert family_members(kappa(EMPTY, b, 2).entries, b, 2, 0) == {EMPTY}


def test_family_members_partition_rank():
    for n in range(6):
        for b in range(4):
            seen = []
            done = set()
            for bp in enumerate_bipartitions(n):
                e = kappa(bp, b, n).entries
                if e in done:
                    continue
                done.add(e)
                seen.extend(family_members(e, b, n, n))
            assert sorted(seen) == sorted(enumerate_bipartitions(n))


def test_weight_zero_swap_symmetry():
    # at b = 0 the two symbol rows have equal length, so swapping the
    # components of a bipartition leaves kappa unchanged
    for n in range(7):
        for bp in enumerate_bipartitions(n):
            swapped = Bipartition(bp.second, bp.first)
            assert kappa(bp, 0, n).entries == kappa(swapped, 0, n).entries


def test_transpose_of_bipartition():
    assert bipartition((1, 1), (1,)).transpose() == bipartition((1,), (2,))
    assert bipartition((3,), ()).transpose() == bipartition((), (1, 1, 1))
    assert EMPTY.transpose() == EMPTY


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=3))
def test_transpose_involution_on_bipartitions(n, b):
    for bp in enumerate_bipartitions(n):
        assert bp.transpose().transpose() == bp


def test_transpose_reflects_and_complements_kappa():
    # with N >= n every entry of kappa at (b, N) lies below M = 2N + b, and
    # the transpose's kappa takes each value M - 1 - y exactly 2 - mult(y)
    # times, mult(y) being how often kappa(bp) takes y
    cases = 0
    for n in range(10):
        for bp, b in product(enumerate_bipartitions(n), range(n + 3)):
            for N in (n, n + 1, n + 2):
                M = 2 * N + b
                mult = Counter(kappa(bp, b, N).entries)
                expected = Counter({M - 1 - y: 2 - mult[y] for y in range(M) if mult[y] < 2})
                assert Counter(kappa(bp.transpose(), b, N).entries) == expected, (bp, b, N)
                cases += 1
    assert cases == 23532


def test_dual_is_the_transposes_kappa():
    # the transposed witness reads kappa(bp') off kappa(bp) alone: for every
    # bipartition of n <= 8, every b <= n + 3 and b = 2n + 3, and N >= n
    cases = 0
    for n in range(9):
        for bp, b in product(enumerate_bipartitions(n), sorted({*range(n + 4), 2 * n + 3})):
            for N in (n, n + 1, n + 3):
                got = _dual(kappa(bp, b, N).entries, b, N)
                assert got == kappa(bp.transpose(), b, N).entries, (bp, b, N)
                cases += 1
    assert cases == 15333


def test_bipartition_validates_what_the_tuple_does_not():
    # the NamedTuple constructor takes these as given; the two checked ones refuse them
    for first, text in (((1, 2), "1,2|-"), ((2, -1), "2,-1|-")):
        with pytest.raises(NotAPartition):
            bipartition(first, ())
        with pytest.raises(NotAPartition):
            Bipartition.parse(text)


def test_raw_bipartition_with_trailing_zeros_reads_as_normalized():
    # the NamedTuple constructor keeps trailing zeros; admissibility and
    # every per-element answer ignore them
    raw, normal = Bipartition((1, 0, 0), ()), Bipartition((1,), ())
    assert min_admissible(raw) == 1
    for b in (0, 1, 3):
        assert symbol(raw, b) == symbol(normal, b)
        assert kappa(raw, b) == kappa(normal, b)
        assert a_value(raw, b) == a_value(normal, b)


def test_bipartition_text_round_trip():
    for text in ("5,1|2,2,1", "-|1,1,1", "-|-", "3|-"):
        assert Bipartition.parse(text).text() == text


def test_parse_checks_each_component_once(monkeypatch):
    # parse_partition returns a checked partition, so parse only normalizes
    # it; the memo then answers the same text with no check at all
    from bsymbols import partitions, symbols

    calls = []
    original = partitions.as_partition
    monkeypatch.setattr(partitions, "as_partition", lambda seq: calls.append(seq) or original(seq))
    symbols._parsed.cache_clear()
    for text, first, second in (("5,1|2,2,1", (5, 1), (2, 2, 1)), ("2,0|1,0,0", (2,), (1,))):
        calls.clear()
        parsed = Bipartition.parse(text)
        assert len(calls) == 2
        assert parsed == Bipartition(first, second)
        assert Bipartition.parse(text) is parsed
        assert len(calls) == 2


PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"


def test_a_bad_text_raises_the_same_error_on_every_parse():
    # the parse memo stores no raise: every pinned bad text that fails to
    # parse fails again with the same message, and the memo does not grow
    pool = json.loads(PINS.read_text())["pools"]["bad"]
    texts = [t for pin in pool for t in pin["argv"] if "|" in t]
    _parsed.cache_clear()
    failed = 0
    for text in texts:
        size = _parsed.cache_info().currsize
        try:
            Bipartition.parse(text)
        except NotAPartition as exc:
            with pytest.raises(NotAPartition) as again:
                Bipartition.parse(text)
            assert str(again.value) == str(exc)
            assert _parsed.cache_info().currsize == size
            failed += 1
    assert (len(texts), failed) == (45, 19)


def test_parse_memo_reads_equal_texts_as_one_bipartition():
    for text in ("3,2,0|1", " 3,2|1", "3,2|1,0", "3,2|1"):
        assert Bipartition.parse(text) == Bipartition((3, 2), (1,))


def test_the_package_builds_exact_bipartitions():
    # transpose, bipartition(), Bipartition.parse's memo and the rank's text
    # table skip the NamedTuple's __new__; each gives an exact Bipartition
    # equal to the one the NamedTuple constructor builds
    from bsymbols.families import _texts
    from bsymbols.partitions import transpose

    for n in range(9):
        reference = [
            Bipartition(a, c)
            for k in range(n + 1)
            for a in partitions_of(k)
            for c in partitions_of(n - k)
        ]
        members = list(_texts(n))
        assert all(type(x) is Bipartition for x in members)
        assert sorted(members) == sorted(reference)
        for ref in reference:
            built = (
                ref.transpose(),
                bipartition(list(ref.first), [*ref.second, 0]),
                _parsed(ref.text()),
                _parsed.__wrapped__(ref.text()),
            )
            expected = (Bipartition(transpose(ref.second), transpose(ref.first)), ref, ref, ref)
            assert [type(x) for x in built] == [Bipartition] * 4
            assert built == expected


@pytest.mark.parametrize(
    "value, error",
    [
        (None, AttributeError),
        (5, AttributeError),
        (["3|1"], AttributeError),  # unhashable: no memo key is made of it
        ({"3|1"}, AttributeError),
        (b"3|1", TypeError),
        (bytearray(b"3|1"), TypeError),
    ],
)
def test_parse_of_a_non_str_raises_what_the_parser_raises(value, error):
    size = _parsed.cache_info().currsize
    with pytest.raises(error):
        Bipartition.parse(value)
    assert _parsed.cache_info().currsize == size


def test_parse_memo_keeps_its_bound():
    # a fixed bound of at least 1,024 texts: more distinct texts evict, and
    # an evicted text parses as before
    assert _parsed.cache_info().maxsize == _PARSE_MEMO_SIZE >= 1024
    _parsed.cache_clear()
    texts = [f"{k}|-" for k in range(1, _PARSE_MEMO_SIZE + 101)]
    for text in texts:
        Bipartition.parse(text)
    assert _parsed.cache_info().currsize == _PARSE_MEMO_SIZE
    assert Bipartition.parse(texts[0]) == Bipartition((1,), ())
    assert _parsed.cache_info().currsize == _PARSE_MEMO_SIZE
    _parsed.cache_clear()


# reference definitions, written from the module docstring with every row
# and vector padded to its full length, for the differential tests below


def symbol_by_formula(bp, b, N):
    """(row2, row1) with row1_j = l1_j - j + N + b and row2_j = l2_j - j + N, increasing."""

    def row(parts, c):
        parts = [v for v in parts if v]
        parts += [0] * (c - len(parts))
        return tuple(parts[j - 1] - j + c for j in range(c, 0, -1))

    return row(bp.second, N), row(bp.first, N + b)


def profile_by_definition(p, b, N, n):
    """The value counts of p padded to 2N+b entries, or None if p is no sympartition."""
    length = 2 * N + b
    if len(p) > length or sum(p) != f_stat(b, N, n):
        return None
    counts = Counter(tuple(p) + (0,) * (length - len(p)))
    doubles = sum(1 for c in counts.values() if c == 2)
    if any(c > 2 for c in counts.values()) or doubles > N or not all(v in counts for v in range(b)):
        return None
    return counts


# components with trailing zeros, as a caller may build them directly
ZERO_TAILED = (
    Bipartition((2, 0), ()),
    Bipartition((), (1, 0, 0)),
    Bipartition((3, 1, 0), (2, 0)),
    Bipartition((0,), (0, 0)),
)


def test_symbol_and_kappa_match_the_formula():
    bips = [bp for n in range(9) for bp in enumerate_bipartitions(n)] + list(ZERO_TAILED)
    checked = 0
    for bp in bips:
        least = max(len([v for v in bp.first if v]), len([v for v in bp.second if v]))
        for b in range(5):
            assert symbol(bp, b) == symbol(bp, b, least)
            for N in range(least, least + 3):
                row2, row1 = symbol_by_formula(bp, b, N)
                assert symbol(bp, b, N) == (b, N, row2, row1), (bp, b, N)
                expected = tuple(sorted(row1 + row2, reverse=True))
                assert kappa(bp, b, N) == (expected, b, N), (bp, b, N)
                checked += 1
    assert checked == 15 * (sum(len(enumerate_bipartitions(n)) for n in range(9)) + 4)


def test_profile_matches_the_padded_counter_definition():
    found = 0
    for total in range(15):
        for p in partitions_of(total):
            for b in range(5):
                for N in range(5):
                    n = total - f_stat(b, N, 0)
                    if n < 0:
                        continue
                    length = 2 * N + b
                    shapes = [p] + ([p + (0,) * (length - len(p))] if len(p) < length else [])
                    for q in shapes:
                        for m in (n, n + 1):
                            counts = profile_by_definition(q, b, N, m)
                            if counts is None:
                                with pytest.raises(NotSympartition):
                                    _profile(q, b, N, m)
                                continue
                            # the padded vector smallest first, and how many values it doubles
                            doubles = sum(1 for c in counts.values() if c == 2)
                            expected = (tuple(sorted(counts.elements())), doubles)
                            assert _profile(q, b, N, m) == expected, (q, b, N, m)
                            found += 1
    assert found > 0


def fiber_by_comprehensions(p, b, N, n):
    """The fiber as it was built before the one-pass walk: row lists per split."""
    counts = profile_by_definition(p, b, N, n)
    values = sorted(counts, reverse=True)
    free = [v for v in reversed(values) if counts[v] == 1 and v >= b]
    for low in map(set, combinations(free, len(counts) - N - b)):
        row1 = [v for v in values if v not in low]
        row2 = [v for v in values if counts[v] == 2 or v in low]
        first = normalize([v + j - (N + b) for j, v in enumerate(row1, 1)])
        second = normalize([v + j - N for j, v in enumerate(row2, 1)])
        yield Bipartition(first, second)


def roundtrip_vectors():
    """(p, b, N, n) for every vector the round-trip suite generates."""
    for N, b in product(range(7), range(9)):
        base = f_stat(b, N, 0)
        if base <= 30:
            for n, bucket in enumerate(_sympartitions_by_rank(b, N, 30 - base)):
                for p in bucket:
                    yield p, b, N, n


def test_fiber_matches_the_comprehension_body_in_order():
    # every vector the round-trip suite generates
    vectors = 0
    for p, b, N, n in roundtrip_vectors():
        assert list(_fiber(p, b, N, n)) == list(fiber_by_comprehensions(p, b, N, n))
        vectors += 1
    assert vectors == 26128
    # every family kappa of rank n <= 7, where fibers have several members
    largest = 0
    for n in range(8):
        for b in range(n + 2):
            for fam in family_table(n, b).families:
                p = fam.kappa.entries
                got = list(_fiber(p, b, n, n))
                assert got == list(fiber_by_comprehensions(p, b, n, n)), (p, b, n)
                assert sorted(got) == sorted(fam.members), (p, b, n)
                largest = max(largest, len(got))
    assert largest > 2


def test_from_sympartition_is_the_first_of_the_fiber():
    # from_sympartition builds the canonical split without the fiber's generator
    vectors = 0
    for p, b, N, n in roundtrip_vectors():
        assert from_sympartition(p, b, N, n) == next(_fiber(p, b, N, n)), (p, b, N, n)
        vectors += 1
    assert vectors == 26128
    families = 0
    for n in range(8):
        for b in range(n + 2):
            for fam in family_table(n, b).families:
                p = fam.kappa.entries
                assert from_sympartition(p, b, n, n) == next(_fiber(p, b, n, n)), (p, b, n)
                families += 1
    assert families == 1407


@st.composite
def bipartitions_with_sizes(draw):
    """A bipartition of rank n <= 12, a weight b <= 12 and N from its least admissible to 3 above."""
    n = draw(st.integers(min_value=0, max_value=12))
    bips = enumerate_bipartitions(n)
    bp = bips[draw(st.integers(min_value=0, max_value=len(bips) - 1))]
    least = min_admissible(bp)
    return bp, draw(st.integers(min_value=0, max_value=12)), draw(st.integers(least, least + 3))


@given(bipartitions_with_sizes())
def test_from_sympartition_round_trips_past_the_suite_grid(case):
    # totals reach f(12, 15, 12) = 468, far past the 30 the suite stops at
    bp, b, N = case
    n = bp.rank
    p = kappa(bp, b, N).entries
    pre = from_sympartition(p, b, N, n)
    assert kappa(pre, b, N).entries == p
    assert pre in family_members(p, b, N, n)
    assert pre == next(_fiber(p, b, N, n))


def test_n_stat_matches_the_enumerate_definition():
    checked = 0
    for n in range(7):
        for b in range(n + 2):
            for bp in enumerate_bipartitions(n):
                k = kappa(bp, b, n)
                expected = sum(i * v for i, v in enumerate(k.entries))
                assert n_stat(k) == n_stat(k.entries) == n_stat(list(k.entries)) == expected
                checked += 1
    assert checked == sum(len(enumerate_bipartitions(n)) * (n + 2) for n in range(7))


def symbol_rows_by_definition(bp, b, N):
    """row1_j = l1_j - j + N + b and row2_j = l2_j - j + N, each sorted increasingly."""
    first, second = normalize(bp.first), normalize(bp.second)

    def row(parts, c):
        return tuple(sorted(padded(parts, c)[j - 1] - j + c for j in range(1, c + 1)))

    return row(first, N + b), row(second, N)


def test_kappa_is_the_sorted_symbol_rows():
    # every bp of rank n <= 7, every b <= n + 2, default and explicit N,
    # with and without trailing zeros in either component
    checked = 0
    for n in range(8):
        for bp in enumerate_bipartitions(n):
            least = max(len(bp.first), len(bp.second))
            forms = (
                bp,
                Bipartition(bp.first + (0,), bp.second),
                Bipartition(bp.first, bp.second + (0, 0)),
            )
            for x, b in product(forms, range(n + 3)):
                assert min_admissible(x) == least
                for N in (None, least, least + 1, n + 2):
                    s, k = symbol(x, b, N), kappa(x, b, N)
                    assert (s.b, s.N) == (k.b, k.N) == (b, least if N is None else N)
                    assert (s.row1, s.row2) == symbol_rows_by_definition(x, b, s.N)
                    assert k.entries == tuple(sorted(s.row1 + s.row2, reverse=True))
                    checked += 1
    assert checked == 4 * 3 * sum(len(enumerate_bipartitions(n)) * (n + 3) for n in range(8))


def error_text(call, *args):
    with pytest.raises(Exception) as info:
        call(*args)
    return type(info.value), str(info.value)


def test_error_paths_keep_type_and_message():
    bp = bipartition((5, 1), (2, 2, 1))
    below = "N=2 is below the minimal admissible 3 for 5,1|2,2,1"
    assert error_text(symbol, bp, -1, 0) == (ValueError, "weight b must be >= 0")
    assert error_text(kappa, bp, -1) == (ValueError, "weight b must be >= 0")
    assert error_text(symbol, bp, 2, 2) == (NotAdmissible, below)
    assert error_text(kappa, bp, 2, 2) == (NotAdmissible, below)
    for call in (symbol, kappa):
        assert error_text(call, Bipartition((2, 0), ()), 0, 0) == (
            NotAdmissible,
            "N=0 is below the minimal admissible 1 for 2,0|-",
        )
        assert error_text(call, Bipartition((5, 1, 0), (2, 2, 1, 0)), 2, 2) == (
            NotAdmissible,
            "N=2 is below the minimal admissible 3 for 5,1,0|2,2,1,0",
        )
        assert error_text(call, Bipartition((1, 0), ()), -1, 5) == (
            ValueError,
            "weight b must be >= 0",
        )
    assert error_text(_profile, (1, 1), -1, 0, 0) == (ValueError, "b, N, n must all be >= 0")
    assert error_text(_profile, (1, 2), 0, 1, 0) == (NotAPartition, "not weakly decreasing: (1, 2)")
    assert error_text(_profile, (2, -1), 0, 1, 0) == (NotAPartition, "negative part in (2, -1)")
    assert error_text(is_sympartition, (1, -1, 0), 1, 1, 0) == (
        NotAPartition,
        "not weakly decreasing: (1, -1, 0)",
    )
    for move in (up, down):
        assert error_text(move, (2, 1), BoxMove(1, 3)) == (
            NotAPartition,
            "index 3 out of range for (2, 1)",
        )
    assert error_text(up, (2, 2, 1), BoxMove(2, 3)) == (
        NotAPartition,
        "not weakly decreasing: (2, 3, 0)",
    )
    assert error_text(up, (1, 0), BoxMove(1, 2)) == (NotAPartition, "negative part in (2, -1)")
    assert error_text(down, (2, 1), BoxMove(1, 2)) == (
        NotAPartition,
        "not weakly decreasing: (1, 2)",
    )
    assert error_text(down, (1, 1, 0), BoxMove(2, 3)) == (
        NotAPartition,
        "not weakly decreasing: (1, 0, 1)",
    )
    not_sympartition = (NotSympartition, "(3, 2, 1) is not a (1,1,5)-sympartition")
    assert error_text(from_sympartition, (3, 2, 1), 1, 1, 5) == not_sympartition
    assert error_text(family_members, (3, 2, 1), 1, 1, 5) == not_sympartition
    assert error_text(from_sympartition, [3, 2, 1], 1, 1, 5) == not_sympartition
    assert error_text(family_members, (1, 1), -1, 0, 0) == (ValueError, "b, N, n must all be >= 0")
    not_one_box = "(1, 1) is not a single raised box away from (2, 0)"
    assert error_text(_single_move, (2, 0), (1, 1)) == (NoSingleMove, not_one_box)
    assert error_text(_single_move, (3, 0, 0), (1, 1, 1)) == (
        NoSingleMove,
        "(1, 1, 1) is not a single raised box away from (3, 0, 0)",
    )
