import pytest

import bsymbols
from bsymbols import cli
from bsymbols.families import (
    _texts,
    enumerate_bipartitions,
    family_hasse,
    family_table,
)
from bsymbols.partitions import dominance_leq
from bsymbols.symbols import EMPTY, Bipartition, a_value, kappa


def brute_partition_count(n: int) -> int:
    def count(m, cap):
        if m == 0:
            return 1
        return sum(count(m - k, k) for k in range(1, min(m, cap) + 1))

    return count(n, n)


def test_enumeration_counts():
    assert len(enumerate_bipartitions(3)) == 10
    assert enumerate_bipartitions(0) == (EMPTY,)
    # independent convolution count
    for n in (5, 6):
        expected = sum(
            brute_partition_count(k) * brute_partition_count(n - k) for k in range(n + 1)
        )
        assert len(enumerate_bipartitions(n)) == expected
    assert len(enumerate_bipartitions(6)) == 65


def test_enumeration_is_sorted_by_text():
    for n in range(6):
        texts = [bp.text() for bp in enumerate_bipartitions(n)]
        assert texts == sorted(texts)
        assert len(set(texts)) == len(texts)


def test_text_table_is_the_enumeration():
    # one table per rank: its keys are the enumeration, in order, and each
    # value is the member's text
    for n in range(11):
        texts = _texts(n)
        assert tuple(texts) == enumerate_bipartitions(n)
        assert all(text == bp.text() for bp, text in texts.items())
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        enumerate_bipartitions(-1)


def test_a_cold_families_query_renders_each_member_once(monkeypatch, capsys):
    calls = []
    original = Bipartition.text

    def counted(bp):
        calls.append(bp)
        return original(bp)

    bsymbols.clear_caches()
    monkeypatch.setattr(Bipartition, "text", counted)
    assert cli.main(["families", "--n", "8", "--b", "2"]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == len(enumerate_bipartitions(8)) == 185


def test_family_table_rank3_weight1():
    table = family_table(3, 1)
    assert table.N == 3
    by_members = {
        frozenset(m.text() for m in f.members): f.kappa.entries for f in table.families
    }
    assert by_members == {
        frozenset({"1,1,1|-", "-|2,1", "1|1,1"}): (4, 3, 2, 2, 1, 0, 0),
        frozenset({"2,1|-", "-|3", "2|1"}): (5, 3, 2, 1, 1, 0, 0),
        frozenset({"3|-"}): (6, 2, 2, 1, 1, 0, 0),
        frozenset({"-|1,1,1"}): (3, 3, 2, 2, 1, 1, 0),
        frozenset({"1|2"}): (4, 4, 2, 1, 1, 0, 0),
        frozenset({"1,1|1"}): (4, 3, 3, 1, 1, 0, 0),
    }
    sizes = sorted(len(f.members) for f in table.families)
    assert sizes == [1, 1, 1, 1, 3, 3]


def test_family_table_orders_kappas_decreasingly():
    table = family_table(3, 1)
    entries = [f.kappa.entries for f in table.families]
    assert entries == sorted(entries, reverse=True)


def test_family_table_asymptotic_singletons():
    table = family_table(3, 3)
    assert len(table.families) == 10
    assert all(len(f.members) == 1 for f in table.families)


def test_family_table_rank0():
    for b in (0, 5):
        table = family_table(0, b)
        assert len(table.families) == 1
        assert table.families[0].members == (EMPTY,)
        assert table.families[0].a == 0


def test_family_a_values_match_members():
    for n in range(6):
        for b in range(4):
            for fam in family_table(n, b).families:
                for bp in fam.members:
                    assert a_value(bp, b) == fam.a


def test_hasse_rank3_weight1_is_a_chain():
    table = family_table(3, 1)
    diagram = family_hasse(table)
    assert len(diagram.nodes) == 6
    indeg = {i: 0 for i in range(6)}
    outdeg = {i: 0 for i in range(6)}
    for i, j in diagram.edges:
        outdeg[i] += 1
        indeg[j] += 1
    minima = [diagram.nodes[i].entries for i in range(6) if indeg[i] == 0]
    maxima = [diagram.nodes[i].entries for i in range(6) if outdeg[i] == 0]
    assert minima == [(3, 3, 2, 2, 1, 1, 0)]
    assert maxima == [(6, 2, 2, 1, 1, 0, 0)]
    # brute force: the six kappas happen to be totally ordered
    assert len(diagram.edges) == 5


def test_hasse_comparable_pair():
    assert dominance_leq((4, 3, 3, 1, 1, 0, 0), (4, 4, 2, 1, 1, 0, 0))
    assert not dominance_leq((4, 4, 2, 1, 1, 0, 0), (4, 3, 3, 1, 1, 0, 0))


def test_hasse_edges_are_covers():
    for n in range(6):
        for b in (0, 1, 2):
            table = family_table(n, b)
            diagram = family_hasse(table)
            entries = [k.entries for k in diagram.nodes]
            edge_set = set(diagram.edges)
            for i, j in diagram.edges:
                assert dominance_leq(entries[i], entries[j])
                assert entries[i] != entries[j]
                for x in range(len(entries)):
                    if x in (i, j):
                        continue
                    between = dominance_leq(entries[i], entries[x]) and dominance_leq(
                        entries[x], entries[j]
                    )
                    assert not between
            # transitive reduction: every strict cover appears
            for i in range(len(entries)):
                for j in range(len(entries)):
                    if i == j or not dominance_leq(entries[i], entries[j]):
                        continue
                    covered = not any(
                        x != i
                        and x != j
                        and dominance_leq(entries[i], entries[x])
                        and dominance_leq(entries[x], entries[j])
                        for x in range(len(entries))
                    )
                    assert ((i, j) in edge_set) == covered


def test_hasse_rank0():
    diagram = family_hasse(family_table(0, 2))
    assert len(diagram.nodes) == 1
    assert diagram.edges == ()


def test_every_bipartition_in_exactly_one_family():
    for n in range(7):
        for b in range(4):
            table = family_table(n, b)
            members = [bp for f in table.families for bp in f.members]
            assert sorted(members) == sorted(enumerate_bipartitions(n))
            assert len(set(members)) == len(members)
            for f in table.families:
                for bp in f.members:
                    assert kappa(bp, b, n).entries == f.kappa.entries


@pytest.mark.parametrize("n", range(9))
def test_position_maps_each_member_to_its_family(n):
    for b in range(n + 2):
        table = family_table(n, b)
        # one key per bipartition of rank n
        assert len(table.position) == len(enumerate_bipartitions(n))
        assert set(table.position) == set(enumerate_bipartitions(n))
        for m, i in table.position.items():
            assert m in table.families[i].members
            assert kappa(m, b, n) == table.families[i].kappa
