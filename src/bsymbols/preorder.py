"""The induction preorder on bipartitions and its dominance description.

The preorder is generated by elementary steps: for a decomposition
n = k + l and bipartitions nu, nu' of k already related at rank k, every
bipartition whose kappa arises from kappa(nu) by incrementing l entries is
placed below every bipartition whose kappa arises from kappa(nu') by
incrementing its l largest entries; a second kind of step does the same
through transposition.  No family is assumed: the families are derived.

preceq decides the relation through dominance of kappa vectors, which is
what the order amounts to; preceq_oracle builds the relation from the
elementary steps alone, bottom-up in rank, so the two can be compared on
every pair as an end-to-end check.  The oracle gives the shared kernel
only the kappa at N = n, from which it finds both kinds of target itself;
induction_targets and truncated_targets name the same targets as sets of
bipartitions, read from the rank's family table.
_witness is the one witness builder, called by witness_step, the witness
suite and the chain command's cover memo; a family is its kappa, so it
takes a cover's two kappas and its move.  witness_is_valid recomputes
every kappa through real transposes, so it stays an independent check.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Set

from ._util import GeneratedPreorder, generated_preorder
from .adjacency import _cover_kappas
from .errors import NotAPartition, NotSympartition, WitnessInvalid
from .families import enumerate_bipartitions, family_table
from .partitions import (
    BoxMove, Parts, _is_increment, _shift_largest, _single_move, dominance_leq, format_partition
)
from .symbols import Bipartition, _dual, _rank_kappas, bipartition, from_sympartition, kappa


class InductionWitness(NamedTuple):
    nu: Bipartition
    l: int
    transposed: bool  # certificate goes through the transposed bipartitions


def induction_targets(nu: Bipartition, l: int, b: int) -> Set[Bipartition]:
    """Bipartitions of rank(nu)+l whose kappa adds 1 to l entries of kappa(nu)."""
    if l < 1:
        raise ValueError("l must be >= 1")
    n = nu.rank + l
    base = kappa(nu, b, n).entries
    return {
        bp
        for fam in family_table(n, b).families
        if _is_increment(base, fam.kappa.entries, l)
        for bp in fam.members
    }


def truncated_targets(nu: Bipartition, l: int, b: int) -> Set[Bipartition]:
    """The family obtained by incrementing the l largest entries of kappa(nu)."""
    if l < 1:
        raise ValueError("l must be >= 1")
    n = nu.rank + l
    table = family_table(n, b)
    i = table.index.get(_shift_largest(kappa(nu, b, n).entries, l, 1))
    return set() if i is None else set(table.families[i].members)


def witness_is_valid(w: InductionWitness, a: Bipartition, c: Bipartition, b: int) -> bool:
    """Check the two increment conditions an induction witness must satisfy."""
    if c.rank != a.rank:
        return False
    x, y = (c.transpose(), a.transpose()) if w.transposed else (a, c)
    return _witness_holds(w, *_rank_kappas(x, y, b), b)


def _witness_holds(w: InductionWitness, kx: Parts, ky: Parts, b: int) -> bool:
    """witness_is_valid on the kappas of the pair w certifies: (a, c), or (c', a') when transposed.

    kx and ky are the kappas of that pair at N = n, its rank, so each has
    2n + b entries.  kappa(x) must add 1 to w.l entries of kappa(w.nu) and
    kappa(y) must add 1 to its w.l largest; kappa(w.nu) is recomputed from
    the bipartition.
    """
    n = (len(kx) - b) // 2
    if w.l < 1 or w.nu.rank != n - w.l:
        return False
    base = kappa(w.nu, b, n).entries
    return _is_increment(base, kx, w.l) and ky == _shift_largest(base, w.l, 1)


def _witness(lo: Parts, hi: Parts, b: int, move: BoxMove) -> InductionWitness:
    """witness_step's construction for the cover hi = up(lo, move) at N = rank.

    The transposed branch certifies the transposes' cover on the duals of hi
    and lo, and the check is _witness_holds on the certified kappas.  Raises
    WitnessInvalid naming the cover, chained if the core is no sympartition.
    """
    n = (len(lo) - b) // 2
    plain = lo[move.k2 - 2] != lo[move.k2 - 1]
    kx, ky = (lo, hi) if plain else (_dual(hi, b, n), _dual(lo, b, n))
    l = move.k2 - 1 if plain else _single_move(kx, ky).k1
    try:
        nu = from_sympartition(_shift_largest(ky, l, -1), b, n, n - l)
    except (NotAPartition, NotSympartition, ValueError) as exc:
        cover = f"{format_partition(lo)} -> {format_partition(hi)}"
        raise WitnessInvalid(f"no witness for {cover}: {exc}") from exc
    w = InductionWitness(nu, l, not plain)
    if not _witness_holds(w, kx, ky, b):
        cover = f"{format_partition(lo)} -> {format_partition(hi)}"
        raise WitnessInvalid(f"constructed witness fails its invariants: {w} for {cover}")
    return w


def witness_step(a: Bipartition, c: Bipartition, b: int) -> InductionWitness:
    """The elementary step certifying one adjacent dominance step a -> c.

    When the entry of kappa(a) just above the lowered box is distinct from
    the lowered one, the certificate removes one box from each of the
    k2 - 1 largest entries of kappa(c); otherwise it is built on the
    transposed pair, removing a box from each entry above the raised one.
    Raises NotAdjacent unless kappa(c) covers kappa(a).
    """
    lo, hi = _cover_kappas(a, c, b)
    return _witness(lo, hi, b, _single_move(lo, hi))


def preceq(a: Bipartition, c: Bipartition, b: int) -> bool:
    """Decide the preorder through dominance of the kappa vectors."""
    return dominance_leq(*_rank_kappas(a, c, b))


class PreceqOracle(GeneratedPreorder):
    """The relation generated by the elementary steps at one rank."""

    def __init__(self, n: int, bipartitions: tuple[Bipartition, ...], rows: tuple[int, ...]):
        super().__init__(n, bipartitions, rows, Bipartition.text, lambda bp: bipartition(*bp))
        self.bipartitions = bipartitions


@lru_cache(maxsize=None)
def _oracle_rows(n: int, b: int) -> tuple[int, ...]:
    return generated_preorder(
        n,
        enumerate_bipartitions,
        lambda x, N: kappa(x, b, N).entries,
        lambda k: _oracle_rows(k, b),
        Bipartition.transpose,
    )


def preceq_oracle(n: int, b: int) -> PreceqOracle:
    """Build the relation from the elementary steps alone, bottom-up in rank."""
    if n < 0 or b < 0:
        raise ValueError("n and b must be >= 0")
    return PreceqOracle(n, enumerate_bipartitions(n), _oracle_rows(n, b))
