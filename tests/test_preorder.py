import sys
from collections import Counter
from functools import lru_cache
from itertools import combinations, product

import pytest

from bsymbols import cli, preorder, symbols
from bsymbols._util import generated_preorder, iter_bits
from bsymbols.adjacency import _poset, adjacency_move
from bsymbols.errors import (
    NotAdjacent,
    NotAPartition,
    NotSympartition,
    RankMismatch,
    WitnessInvalid,
)
from bsymbols.families import enumerate_bipartitions, family_table
from bsymbols.partitions import (
    _is_increment,
    _shift_largest,
    _single_move,
    format_partition,
    normalize,
    padded,
    partitions_of,
    transpose,
)
from bsymbols.preorder import (
    InductionWitness,
    induction_targets,
    preceq,
    preceq_oracle,
    truncated_targets,
    witness_is_valid,
    witness_step,
)
from bsymbols.symbols import (
    EMPTY,
    Bipartition,
    _rank_kappas,
    a_value,
    bipartition,
    from_sympartition,
    is_sympartition,
    kappa,
)
from bsymbols.typea import _typea_rows, truncated_pieri_targets


def test_induction_targets_from_empty():
    targets = induction_targets(EMPTY, 1, 1)
    assert {bp.text() for bp in targets} == {"1|-", "-|1"}


def test_induction_targets_rank2_example():
    nu = bipartition((2,), ())
    assert kappa(nu, 1, 3).entries == (5, 2, 2, 1, 1, 0, 0)
    targets = induction_targets(nu, 1, 1)
    texts = {bp.text() for bp in targets}
    assert "2,1|-" in texts
    assert "3|-" in texts


def test_induction_targets_rejects_l0():
    with pytest.raises(ValueError):
        induction_targets(EMPTY, 0, 1)


def test_induction_targets_are_increments():
    for k in range(4):
        for l in (1, 2):
            for b in (0, 1, 2):
                for nu in enumerate_bipartitions(k):
                    n = k + l
                    base = kappa(nu, b, n).entries
                    for mu in induction_targets(nu, l, b):
                        e = kappa(mu, b, n).entries
                        diffs = [y - x for x, y in zip(base, e)]
                        assert all(d in (0, 1) for d in diffs)
                        assert sum(diffs) == l


def rank_scan_targets(nu, l, b):
    """Both target sets by scanning every bipartition of rank(nu) + l."""
    n = nu.rank + l
    base = kappa(nu, b, n).entries
    top = tuple(v + 1 if t < l else v for t, v in enumerate(base))
    induced, truncated = set(), set()
    for bp in enumerate_bipartitions(n):
        e = kappa(bp, b, n).entries
        diffs = [y - x for x, y in zip(base, e)]
        if all(d in (0, 1) for d in diffs) and sum(diffs) == l:
            induced.add(bp)
        if e == top:
            truncated.add(bp)
    return induced, truncated


@pytest.mark.parametrize("n", range(1, 8))
def test_targets_match_rank_scan(n):
    # every k + l = n; b = n and b = n + 1 make every family a singleton
    for b in range(n + 2):
        for l in range(1, n + 1):
            for nu in enumerate_bipartitions(n - l):
                induced, truncated = rank_scan_targets(nu, l, b)
                assert induction_targets(nu, l, b) == induced
                assert truncated_targets(nu, l, b) == truncated


def test_truncated_targets_examples():
    nu = bipartition((2,), ())
    targets = truncated_targets(nu, 1, 1)
    assert {bp.text() for bp in targets} == {"3|-"}
    targets = truncated_targets(EMPTY, 1, 1)
    assert {bp.text() for bp in targets} == {"1|-"}


def test_truncated_targets_subset_of_induction():
    for k in range(4):
        for l in (1, 2, 3):
            for b in (0, 1, 2):
                for nu in enumerate_bipartitions(k):
                    trunc = truncated_targets(nu, l, b)
                    assert trunc
                    assert trunc <= induction_targets(nu, l, b)
                    # one family: all members share a kappa
                    kaps = {kappa(mu, b, k + l).entries for mu in trunc}
                    assert len(kaps) == 1


def test_truncated_ties_use_sorted_positions():
    # incrementing the l largest entries of a sorted vector is well defined
    nu = bipartition((1,), (1,))
    n = 3
    base = kappa(nu, 1, n).entries
    target = tuple(v + 1 if i < 2 else v for i, v in enumerate(base))
    got = {kappa(mu, 1, n).entries for mu in truncated_targets(nu, 2, 1)}
    assert got == {target}


def test_witness_case1_example():
    a = Bipartition.parse("2,1|-")
    c = Bipartition.parse("3|-")
    w = witness_step(a, c, 1)
    assert not w.transposed
    assert w.l == 1
    assert kappa(w.nu, 1, 3).entries == (5, 2, 2, 1, 1, 0, 0)
    assert witness_is_valid(w, a, c, 1)


def test_witness_case2_example():
    a = Bipartition.parse("1,1|1")
    c = Bipartition.parse("1|2")
    # kappa(a) = (4,3,3,1,1,0,0) has equal entries around the lowered box
    w = witness_step(a, c, 1)
    assert w.transposed
    assert w.l == 2
    assert w.nu.rank == 1
    assert witness_is_valid(w, a, c, 1)


def test_witness_tripwire_catches_an_invalid_built_witness(monkeypatch):
    a = Bipartition.parse("2,1|-")
    c = Bipartition.parse("3|-")
    monkeypatch.setattr(
        preorder, "InductionWitness", lambda nu, l, transposed: InductionWitness(nu, 2, transposed)
    )
    with pytest.raises(WitnessInvalid, match="constructed witness fails its invariants"):
        witness_step(a, c, 1)


# one adjacent pair per branch of the builder, at b = 1
PLAIN = ("2,1|-", "3|-")
TRANSPOSED = ("1,1|1", "1|2")


def with_nu_one_box_larger(nu, l, transposed):
    return InductionWitness(Bipartition(nu.first + (1,), nu.second), l, transposed)


def core_rejected(p, b, N, n):
    raise NotSympartition(f"{p} rejected")


@pytest.mark.parametrize("pair", [PLAIN, TRANSPOSED], ids=["plain", "transposed"])
@pytest.mark.parametrize(
    "attr, wrong, cause",
    [
        ("InductionWitness", lambda nu, l, t: InductionWitness(nu, l + 1, t), None),
        ("InductionWitness", lambda nu, l, t: InductionWitness(nu, l - 1, t), None),
        ("InductionWitness", with_nu_one_box_larger, None),
        ("from_sympartition", core_rejected, NotSympartition),
    ],
    ids=["l-plus-one", "l-minus-one", "nu-of-wrong-rank", "core-rejected"],
)
def test_witness_builder_rejects_each_broken_witness(monkeypatch, pair, attr, wrong, cause):
    # the builder's own check, on either branch, catches a wrong l, a nu of
    # the wrong rank and a rejected core; only the last is chained.  Either
    # text names the cover by its own kappas, not by the duals it certifies
    a, c = map(Bipartition.parse, pair)
    assert witness_step(a, c, 1).transposed == (pair == TRANSPOSED)
    cover = " -> ".join(map(format_partition, _rank_kappas(a, c, 1)))
    monkeypatch.setattr(preorder, attr, wrong)
    with pytest.raises(WitnessInvalid) as info:
        witness_step(a, c, 1)
    if cause is None:
        assert str(info.value).startswith("constructed witness fails its invariants: ")
        assert str(info.value).endswith(f" for {cover}")
        assert info.value.__cause__ is None
    else:
        assert str(info.value) == f"no witness for {cover}: {info.value.__cause__}"
        assert type(info.value.__cause__) is cause


def adjacent_member_pairs(max_n):
    """(a, c, b, lo, hi, move) for every adjacent member pair with n <= max_n and b <= n + 1.

    lo and hi are the family table's kappas and move is read off them, as
    suite_witness and cli._cover_witness hand them to the witness builder with b.
    """
    for n in range(max_n + 1):
        for b in range(n + 2):
            families = family_table(n, b).families
            for low, ups in zip(families, _poset(n, b).cover_up):
                for high in (families[j] for j in ups):
                    lo, hi = low.kappa.entries, high.kappa.entries
                    move = _single_move(lo, hi)
                    for a, c in product(low.members, high.members):
                        yield a, c, b, lo, hi, move


def test_witness_builder_transposes_the_pair_at_most_once(monkeypatch):
    calls = []
    original = Bipartition.transpose

    def counted(bp):
        calls.append(bp)
        return original(bp)

    # the transposed branch reads the kappas of (c', a') as the duals of the
    # cover's, so neither branch transposes anything
    pairs = list(adjacent_member_pairs(5))
    monkeypatch.setattr(Bipartition, "transpose", counted)
    seen = set()
    for _, _, b, lo, hi, move in pairs:
        calls.clear()
        w = preorder._witness(lo, hi, b, move)
        assert calls == []
        seen.add(w.transposed)
    assert seen == {False, True}


def test_witness_builder_computes_one_kappa(monkeypatch):
    # kappa(nu) once, on either branch: the plain branch certifies the cover
    # on the kappas it is given, and the transposed one certifies the
    # transposes' cover on their duals, reading l and the core off the same
    # two kappas its check uses
    calls = []
    original = symbols.kappa

    def counted(*args):
        calls.append(args)
        return original(*args)

    pairs = list(adjacent_member_pairs(5))
    monkeypatch.setattr(symbols, "kappa", counted)
    monkeypatch.setattr(preorder, "kappa", counted)
    branches = Counter()
    for _, _, b, lo, hi, move in pairs:
        calls.clear()
        w = preorder._witness(lo, hi, b, move)
        assert len(calls) == 1, (lo, hi, b, calls)
        branches[w.transposed] += 1
    assert branches[False] > 0 and branches[True] > 0


def test_a_warm_witness_step_computes_one_kappa(monkeypatch):
    # the pair's kappas are read off the family table; only the check's
    # kappa(nu) is computed
    a, c = Bipartition.parse("1,1|-"), Bipartition.parse("1|1")
    w = witness_step(a, c, 0)
    calls = []
    original = symbols.kappa

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bsymbols" and vars(module).get("kappa") is original:
            monkeypatch.setattr(module, "kappa", counted)
    assert witness_step(a, c, 0) == w
    assert calls == [(w.nu, 0, 2)]


def reference_witness_holds(w, x, y, b):
    """The predicate before it took the pair's kappas: all three recomputed."""
    n = x.rank
    if y.rank != n or w.l < 1 or w.nu.rank != n - w.l:
        return False
    base = kappa(w.nu, b, n).entries
    return _is_increment(base, kappa(x, b, n).entries, w.l) and kappa(
        y, b, n
    ).entries == _shift_largest(base, w.l, 1)


def reference_witness(a, c, b, lo, hi, move):
    """The builder before it read the certified pair's kappas as duals: real transposes."""
    if lo[move.k2 - 2] != lo[move.k2 - 1]:
        x, y, l, transposed = a, c, move.k2 - 1, False
    else:
        x, y = c.transpose(), a.transpose()
        lo, hi = _rank_kappas(x, y, b)
        l, transposed = _single_move(lo, hi).k1, True
    n = a.rank
    try:
        nu = from_sympartition(_shift_largest(hi, l, -1), b, n, n - l)
    except (NotAPartition, NotSympartition, ValueError) as exc:
        raise WitnessInvalid(f"no witness for {a.text()} -> {c.text()}: {exc}") from exc
    w = InductionWitness(nu, l, transposed)
    if not reference_witness_holds(w, x, y, b):
        raise WitnessInvalid(f"constructed witness fails its invariants: {w}")
    return w


def test_witness_builder_matches_the_reference_builder():
    # every adjacent member pair for n <= 8 and b <= n + 1, both branches:
    # the reference transposes the pair and recomputes its kappas, so the
    # witness of each member pair is the one its cover's kappas give
    branches = Counter()
    for a, c, b, lo, hi, move in adjacent_member_pairs(8):
        w = preorder._witness(lo, hi, b, move)
        assert w == reference_witness(a, c, b, lo, hi, move), (a, c, b)
        branches[w.transposed] += 1
    assert branches[False] > 0 and branches[True] > 0


def test_cover_witness_is_the_witness_of_its_cover():
    # chain reads cli._cover_witness by the cover's two family positions: on
    # every cover with n <= 8 and b <= n + 1 it answers what _witness builds
    # on the two kappas of the table with the cover's move, the text of the
    # witness's nu and the step text chain prints after the lower element,
    # its kappa included, cold and warm
    covers = [
        (n, b, i, j)
        for n in range(9)
        for b in range(n + 2)
        for i, ups in enumerate(_poset(n, b).cover_up)
        for j in ups
    ]

    def built(n, b, i, j):
        families = family_table(n, b).families
        lo, hi = families[i].kappa.entries, families[j].kappa.entries
        move = _single_move(lo, hi)
        w = preorder._witness(lo, hi, b, move)
        flag = {False: "no", True: "yes"}[w.transposed]
        lo_text = ",".join(map(str, lo))
        step = f"\tkappa={lo_text}\tmove=Up({move.k1},{move.k2})\tnu={w.nu.text()}\tl={w.l}"
        step += f"\ttransposed={flag}"
        return w, move, w.nu.text(), step

    cli._cover_witness.cache_clear()
    cold = {}
    for key in covers:
        cold[key] = cli._cover_witness(*key)
        assert cold[key] == built(*key)
    assert cli._cover_witness.cache_info().currsize == len(covers) == 4682
    for key in covers:
        warm = cli._cover_witness(*key)
        assert warm is cold[key]
        assert warm == built(*key)
    assert cli._cover_witness.cache_info().hits == len(covers)
    # both branches are among them
    assert {w.transposed for w, *_ in cold.values()} == {False, True}


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("pair", [PLAIN, TRANSPOSED], ids=["plain", "transposed"])
def test_witness_is_valid_rejects_pairs_of_different_ranks(pair, transposed):
    # a False answer, not RankMismatch, whichever way the witness goes
    a, c = map(Bipartition.parse, pair)
    w = witness_step(a, c, 1)._replace(transposed=transposed)
    for other in ("2|-", "3,1|-", "-|-", "1|1,1,1"):
        d = Bipartition.parse(other)
        assert witness_is_valid(w, a, d, 1) is False
        assert witness_is_valid(w, d, c, 1) is False


def witness_is_valid_by_definition(w, a, c, b):
    """The two increment conditions, checked on (a, c) or on (c', a')."""
    n = a.rank
    if c.rank != n or w.l < 1 or w.nu.rank != n - w.l:
        return False
    base = kappa(w.nu, b, n).entries
    x, y = (a, c) if not w.transposed else (c.transpose(), a.transpose())
    target = tuple(v + 1 for v in base[: w.l]) + base[w.l :]
    diff = [v - u for u, v in zip(base, kappa(x, b, n).entries)]
    return set(diff) <= {0, 1} and sum(diff) == w.l and kappa(y, b, n).entries == target


def test_witness_is_valid_matches_its_definition():
    # each built witness, and each one broken in l, in its branch or in nu,
    # on every adjacent member pair for n <= 5 and b <= n + 1
    verdicts = Counter()
    for a, c, b, *_ in adjacent_member_pairs(5):
        w = witness_step(a, c, b)
        others = enumerate_bipartitions(w.nu.rank)[:3]
        for v in (
            w,
            w._replace(l=w.l + 1),
            w._replace(l=w.l - 1),
            w._replace(transposed=not w.transposed),
            *(w._replace(nu=nu) for nu in others if nu != w.nu),
        ):
            got = witness_is_valid(v, a, c, b)
            assert got == witness_is_valid_by_definition(v, a, c, b), (v, a, c, b)
            verdicts[got] += 1
    assert verdicts[True] > 0 and verdicts[False] > verdicts[True]


def test_witness_rejects_non_adjacent():
    with pytest.raises(NotAdjacent):
        witness_step(Bipartition.parse("-|1,1,1"), Bipartition.parse("3|-"), 1)


def test_witness_core_is_sympartition():
    for n in range(6):
        for b in (0, 1, 2):
            bips = enumerate_bipartitions(n)
            for a in bips:
                for c in bips:
                    ka = kappa(a, b, n).entries
                    kc = kappa(c, b, n).entries
                    if ka == kc or not preceq(a, c, b):
                        continue
                    from bsymbols.adjacency import is_adjacent

                    if not is_adjacent(a, c, b):
                        continue
                    w = witness_step(a, c, b)
                    assert witness_is_valid(w, a, c, b)
                    core = kappa(w.nu, b, n).entries
                    assert is_sympartition(core, b, n, n - w.l)


def test_preceq_examples():
    assert preceq(Bipartition.parse("-|1,1,1"), Bipartition.parse("3|-"), 1)
    a = Bipartition.parse("2|1")
    assert preceq(a, a, 1)
    assert not preceq(Bipartition.parse("1|2"), Bipartition.parse("1,1|1"), 1)
    assert preceq(Bipartition.parse("1,1|1"), Bipartition.parse("1|2"), 1)
    with pytest.raises(RankMismatch):
        preceq(EMPTY, Bipartition.parse("1|-"), 1)


def test_oracle_rejects_an_element_of_another_rank():
    oracle = preceq_oracle(2, 1)
    one, two = Bipartition.parse("1|-"), Bipartition.parse("2|-")
    with pytest.raises(RankMismatch, match=r"^1\|- is not an element of rank 2$"):
        oracle.holds(one, two)
    with pytest.raises(RankMismatch, match=r"^1\|- is not an element of rank 2$"):
        oracle.holds(two, one)


def test_oracle_rank3_examples():
    oracle = preceq_oracle(3, 1)
    lo = Bipartition.parse("-|1,1,1")
    hi = Bipartition.parse("3|-")
    assert oracle.holds(lo, hi)
    assert not oracle.holds(hi, lo)
    for bp in oracle.bipartitions:
        assert oracle.holds(bp, bp)
    assert oracle.holds(Bipartition.parse("1,1|1"), Bipartition.parse("1|2"))
    assert not oracle.holds(Bipartition.parse("1|2"), Bipartition.parse("1,1|1"))


def test_oracle_families_are_equivalence_classes():
    for n in range(5):
        for b in (0, 1, 2):
            oracle = preceq_oracle(n, b)
            for a in oracle.bipartitions:
                for c in oracle.bipartitions:
                    if kappa(a, b, n).entries == kappa(c, b, n).entries:
                        assert oracle.holds(a, c) and oracle.holds(c, a)


def test_oracle_matches_dominance_small():
    for n in range(7):
        for b in range(n + 2):
            oracle = preceq_oracle(n, b)
            for a in oracle.bipartitions:
                for c in oracle.bipartitions:
                    assert oracle.holds(a, c) == preceq(a, c, b)


def test_oracle_monotone_in_a():
    for n in range(5):
        for b in (0, 1, 2):
            oracle = preceq_oracle(n, b)
            for a in oracle.bipartitions:
                for c in oracle.bipartitions:
                    if oracle.holds(a, c):
                        assert a_value(a, b) >= a_value(c, b)


def test_truncated_shift_of_a():
    for k in range(4):
        for l in (1, 2, 3):
            for b in (0, 1, 2):
                for nu in enumerate_bipartitions(k):
                    for mu in truncated_targets(nu, l, b):
                        assert a_value(mu, b) == a_value(nu, b) + l * (l - 1) // 2


def test_table_kappas_and_move_are_witness_step_inputs():
    # suite_witness, chain and witness_step build witnesses from the family
    # table's kappas and the move read off them; those equal the pair's
    # computed kappas and adjacency_move.  Every adjacent member pair for
    # n <= 7 and b <= n + 1.
    checked = 0
    for a, c, b, lo, hi, move in adjacent_member_pairs(7):
        assert (lo, hi) == _rank_kappas(a, c, b)
        assert move == adjacency_move(a, c, b)
        checked += 1
    assert checked == 5284


def callback_preorder(n, elements_of, lower_rows, targets, classes, transpose):
    """The generated-preorder kernel fed with its steps as callbacks.

    targets(nu, l) is the pair (induced, truncated) of rank-n element sets
    reached from nu, and classes lists the tuples of rank-n elements that
    start mutually related.
    """
    elements = elements_of(n)
    index = {x: i for i, x in enumerate(elements)}
    tr = [index[transpose(x)] for x in elements]

    def bits(indices):
        return sum(1 << i for i in set(indices))

    rows = [0] * len(elements)
    for cls in classes:
        mask = bits(index[x] for x in cls)
        for x in cls:
            rows[index[x]] = mask
    for k in range(n):
        pairs = [targets(nu, n - k) for nu in elements_of(k)]
        ind_masks = [bits(index[x] for x in ind) for ind, _ in pairs]
        trunc_masks = [bits(index[x] for x in trunc) for _, trunc in pairs]
        for sub_row, ind in zip(lower_rows(k), ind_masks):
            union_trunc = 0
            for j in iter_bits(sub_row):
                union_trunc |= trunc_masks[j]
            for x in iter_bits(ind):
                rows[x] |= union_trunc
            t_ind = bits(tr[x] for x in iter_bits(ind))
            for x in iter_bits(union_trunc):
                rows[tr[x]] |= t_ind
    for k, row_k in enumerate(rows):
        for i, row in enumerate(rows):
            if row >> k & 1:
                rows[i] = row | row_k
    return tuple(rows)


@lru_cache(maxsize=None)
def callback_oracle_rows(n, b):
    return callback_preorder(
        n,
        enumerate_bipartitions,
        lambda k: callback_oracle_rows(k, b),
        lambda nu, l: (induction_targets(nu, l, b), truncated_targets(nu, l, b)),
        [f.members for f in family_table(n, b).families],
        Bipartition.transpose,
    )


def combinations_pieri_targets(p, l):
    """Partitions adding one box to l different rows of p, row sets enumerated."""
    base = padded(p, len(p) + l)
    out = set()
    for chosen in combinations(range(len(base)), l):
        q = list(base)
        for r in chosen:
            q[r] += 1
        if all(x >= y for x, y in zip(q, q[1:])):
            out.add(normalize(q))
    return out


@lru_cache(maxsize=None)
def callback_typea_rows(n):
    return callback_preorder(
        n,
        partitions_of,
        callback_typea_rows,
        lambda p, l: (combinations_pieri_targets(p, l), truncated_pieri_targets(p, l)),
        [(p,) for p in partitions_of(n)],
        transpose,
    )


@pytest.mark.parametrize("n", range(8))
def test_kernel_matches_the_callback_kernel_type_b(n):
    # the kernel finds both steps' targets from the kappas; the callback
    # kernel reads them from the public target functions and the families
    for b in range(n + 2):
        assert preorder._oracle_rows(n, b) == callback_oracle_rows(n, b)


def test_kernel_matches_the_callback_kernel_type_a():
    for n in range(11):
        assert _typea_rows(n) == callback_typea_rows(n)


def test_kernel_leaves_equal_vectors_unrelated_when_no_step_reaches_them():
    # x and y share a vector that no step from the rank-0 element e reaches;
    # each row starts as its own element, so only the steps could relate
    # them, and z is e's one target
    elements = {0: ("e",), 1: ("x", "y", "z")}
    vectors = {"e": (0, 0), "x": (3, 3), "y": (3, 3), "z": (1, 0)}
    rows = generated_preorder(
        1, elements.__getitem__, lambda x, n: vectors[x], lambda k: (1,), lambda x: x
    )
    assert rows == (0b001, 0b010, 0b100)
