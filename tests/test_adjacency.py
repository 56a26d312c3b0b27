import pytest

from bsymbols.adjacency import (
    _poset,
    adjacency_move,
    dominance_rows,
    frame,
    is_adjacent,
    saturated_chain,
    verify_double_break,
)
from bsymbols.errors import (
    NotAdjacent,
    NotComparable,
    NotStrictlyDominated,
    PreconditionViolated,
)
from bsymbols.families import enumerate_bipartitions, family_hasse, family_table
from bsymbols.partitions import BoxMove, dominance_leq, padded, partitions_of, up
from bsymbols.symbols import Bipartition, Kappa, kappa


def K(entries, b=1, N=3):
    return Kappa(tuple(entries), b, N)


def brute_adjacent(a, c, b):
    """Betweenness oracle: quantify over every bipartition of the rank."""
    n = a.rank
    ka = kappa(a, b, n).entries
    kc = kappa(c, b, n).entries
    assert ka != kc and dominance_leq(ka, kc)
    for nu in enumerate_bipartitions(n):
        e = kappa(nu, b, n).entries
        if e in (ka, kc):
            continue
        if dominance_leq(ka, e) and dominance_leq(e, kc):
            return False
    return True


def reference_poset(entries):
    """Strict dominance and covers by comparing every pair of vectors.

    Returns above[i], the set of j strictly dominating i, and cover_up[i],
    the j in above[i] with nothing strictly between, by increasing kappa.
    """
    m = len(entries)
    above = [
        {j for j in range(m) if j != i and dominance_leq(entries[i], entries[j])}
        for i in range(m)
    ]
    below = [{i for i in range(m) if j in above[i]} for j in range(m)]
    cover_up = [
        tuple(sorted((j for j in above[i] if not above[i] & below[j]), key=entries.__getitem__))
        for i in range(m)
    ]
    return above, cover_up


@pytest.mark.parametrize("n", range(9))
def test_poset_kernel_matches_pairwise_reference(n):
    # b = n and b = n + 1 make every family a singleton: the densest bitmasks
    for b in range(n + 2):
        table = family_table(n, b)
        entries = [f.kappa.entries for f in table.families]
        above, cover_up = reference_poset(entries)
        poset = _poset(n, b)
        assert table.index == {e: i for i, e in enumerate(entries)}
        assert list(poset.above) == [sum(1 << j for j in s) for s in above]
        assert list(poset.cover_up) == cover_up
        edges = sorted((i, j) for i, ups in enumerate(cover_up) for j in ups)
        assert list(family_hasse(table).edges) == edges


def pairwise_rows(vectors):
    return [sum(1 << j for j, w in enumerate(vectors) if dominance_leq(v, w)) for v in vectors]


@pytest.mark.parametrize("n", range(8))
def test_dominance_rows_match_pairwise_reference(n):
    # one kappa per bipartition, so members of a family repeat their vector
    bips = enumerate_bipartitions(n)
    for b in range(n + 2):
        for N in (n, n + 1):
            vectors = [kappa(bp, b, N).entries for bp in bips]
            assert list(dominance_rows(vectors)) == pairwise_rows(vectors)


@pytest.mark.parametrize("n", range(1, 9))
def test_asymptotic_dominance_is_concatenation_dominance(n):
    # for b >= n, dominance of kappa at N = n is dominance of the
    # concatenation padded(first, n) + padded(second, n), and b = n - 1 is
    # the sharp threshold
    bips = enumerate_bipartitions(n)
    concatenation = dominance_rows([padded(bp.first, n) + padded(bp.second, n) for bp in bips])

    def kappa_rows(b):
        return dominance_rows([kappa(bp, b, n).entries for bp in bips])

    for b in (n, n + 1, n + 2, 2 * n + 3):
        assert kappa_rows(b) == concatenation
    assert kappa_rows(n - 1) != concatenation


@pytest.mark.parametrize("n", range(11))
def test_dominance_rows_of_padded_partitions_match_pairwise_reference(n):
    vectors = [padded(p, n) for p in partitions_of(n)]
    assert list(dominance_rows(vectors)) == pairwise_rows(vectors)


def test_frame_examples():
    fr = frame(K((5, 3, 2, 1, 1, 0, 0)), K((6, 2, 2, 1, 1, 0, 0)))
    assert (fr.i, fr.j) == (1, 2)
    fr = frame(K((4, 3, 3, 1, 1, 0, 0)), K((4, 4, 2, 1, 1, 0, 0)))
    assert (fr.i, fr.j) == (2, 3)
    with pytest.raises(NotStrictlyDominated):
        frame(K((4, 4, 2, 1, 1, 0, 0)), K((4, 4, 2, 1, 1, 0, 0)))


def test_is_adjacent_examples():
    a = Bipartition.parse("1,1|1")
    c = Bipartition.parse("1|2")
    assert is_adjacent(a, c, 1)
    assert brute_adjacent(a, c, 1)

    lo = Bipartition.parse("-|1,1,1")
    hi = Bipartition.parse("3|-")
    assert not is_adjacent(lo, hi, 1)
    assert not brute_adjacent(lo, hi, 1)

    with pytest.raises(NotComparable):
        is_adjacent(a, a, 1)


def test_is_adjacent_agrees_with_brute_force():
    for n in range(6):
        for b in (0, 1, 2):
            bips = enumerate_bipartitions(n)
            for a in bips:
                for c in bips:
                    ka = kappa(a, b, n).entries
                    kc = kappa(c, b, n).entries
                    if ka == kc or not dominance_leq(ka, kc):
                        continue
                    assert is_adjacent(a, c, b) == brute_adjacent(a, c, b)


def test_adjacency_move_examples():
    move = adjacency_move(Bipartition.parse("1,1|1"), Bipartition.parse("1|2"), 1)
    assert move == BoxMove(2, 3)
    move = adjacency_move(Bipartition.parse("2,1|-"), Bipartition.parse("3|-"), 1)
    assert move == BoxMove(1, 2)
    with pytest.raises(NotAdjacent):
        adjacency_move(Bipartition.parse("-|1,1,1"), Bipartition.parse("3|-"), 1)


def test_adjacency_move_reproduces_kappa():
    for n in range(6):
        for b in (0, 1, 2, 3):
            bips = enumerate_bipartitions(n)
            for a in bips:
                for c in bips:
                    ka = kappa(a, b, n).entries
                    kc = kappa(c, b, n).entries
                    if ka == kc or not dominance_leq(ka, kc):
                        continue
                    if not is_adjacent(a, c, b):
                        continue
                    assert up(ka, adjacency_move(a, c, b)) == kc


def test_saturated_chain_through_figure_poset():
    lo = Bipartition.parse("-|1,1,1")
    hi = Bipartition.parse("3|-")
    chain = saturated_chain(lo, hi, 1)
    assert chain[0] == lo and chain[-1] == hi
    kappas = [kappa(bp, 1, 3).entries for bp in chain]
    # the six kappa values of rank 3 at b=1 are totally ordered, so the
    # saturated chain must walk through all of them
    assert kappas == [
        (3, 3, 2, 2, 1, 1, 0),
        (4, 3, 2, 2, 1, 0, 0),
        (4, 3, 3, 1, 1, 0, 0),
        (4, 4, 2, 1, 1, 0, 0),
        (5, 3, 2, 1, 1, 0, 0),
        (6, 2, 2, 1, 1, 0, 0),
    ]
    for x, y in zip(chain, chain[1:]):
        assert is_adjacent(x, y, 1)


def test_saturated_chain_trivial_and_family_hop():
    a = Bipartition.parse("2,1|-")
    assert saturated_chain(a, a, 1) == [a]
    other = Bipartition.parse("-|3")  # same kappa as a
    assert saturated_chain(a, other, 1) == [a, other]


def test_saturated_chain_incomparable():
    with pytest.raises(NotComparable):
        saturated_chain(Bipartition.parse("1|2"), Bipartition.parse("1,1|1"), 1)


def test_saturated_chain_deterministic_and_adjacent_everywhere():
    for n in range(6):
        for b in (0, 1, 2):
            bips = enumerate_bipartitions(n)
            for a in bips:
                for c in bips:
                    ka = kappa(a, b, n).entries
                    kc = kappa(c, b, n).entries
                    if not dominance_leq(ka, kc):
                        continue
                    chain = saturated_chain(a, c, b)
                    assert chain == saturated_chain(a, c, b)
                    assert chain[0] == a and chain[-1] == c
                    for x, y in zip(chain, chain[1:]):
                        kx = kappa(x, b, n).entries
                        ky = kappa(y, b, n).entries
                        assert kx == ky or is_adjacent(x, y, b)


def test_verify_double_break():
    lo = K((3, 3, 2, 2, 1, 1, 0))
    hi = K((4, 3, 2, 2, 1, 0, 0))
    fr = frame(lo, hi)
    assert (fr.i, fr.j) == (1, 6)
    assert verify_double_break(fr)

    # gaps 1, 0, 1 on [1, 3]: one break point, at 1, is not enough
    fr1 = frame(K((1, 1, 1, 1, 0)), K((2, 1, 1, 0, 0)))
    assert (fr1.i, fr1.j) == (1, 4)
    assert not verify_double_break(fr1)

    lo2 = K((4, 3, 3, 1, 1, 0, 0))
    hi2 = K((4, 4, 2, 1, 1, 0, 0))
    fr2 = frame(lo2, hi2)
    with pytest.raises(PreconditionViolated):
        verify_double_break(fr2)  # gap 2 inside the window


def test_double_break_staircase_window():
    # all gaps equal to 1 on the window: every interior index is a break point
    lo = K((3, 3, 2, 2, 1, 1, 0))
    hi = K((4, 3, 2, 2, 1, 0, 0))
    fr = frame(lo, hi)
    from bsymbols.partitions import break_points

    assert break_points((5, 4, 3, 2, 1), 1, 4) == [1, 2, 3, 4]
    assert len(break_points(hi.entries, fr.i, fr.j - 1)) >= 2


def transitive_closure(rows):
    """Warshall's closure of bitmask rows."""
    rows = list(rows)
    for k, row_k in enumerate(rows):
        bit = 1 << k
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    return tuple(rows)


@pytest.mark.parametrize("n", range(1, 9))
def test_wall_crossing(n):
    # D_b, the dominance rows of kappa at N = n, is the closure of the orders
    # just below the wall b (D_{b-1} & D_b) and just above it (D_b & D_{b+1});
    # n - 1 is the last wall, and the order is constant from b = n on
    elements = enumerate_bipartitions(n)
    D = [dominance_rows([kappa(x, b, n).entries for x in elements]) for b in range(n + 3)]
    for b in range(1, n + 2):
        glued = [below & at | at & above for below, at, above in zip(D[b - 1], D[b], D[b + 1])]
        assert transitive_closure(glued) == D[b], (n, b)
    assert D[n - 1] != D[n]
    assert D[n] == D[n + 1]
