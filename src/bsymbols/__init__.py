"""Symbols, families and the dominance order for type B Weyl groups.

Bipartitions of rank n label the irreducible representations of the Weyl
group of type B_n; with an integer weight b on the order-2 generator they
acquire two-row symbols whose sorted entry multisets (kappa vectors) cut
out the families, compute the a-function and carry the dominance order.
The package decides that order, decomposes adjacent steps into single box
moves with induction witnesses, and checks the dominance description of
the induction preorder against an independent fixpoint oracle.
"""

__all__ = [
    "AdjacencyFrame",
    "BSymbolsError",
    "Bipartition",
    "BoxMove",
    "EMPTY",
    "Family",
    "FamilyTable",
    "HasseDiagram",
    "InductionWitness",
    "Kappa",
    "NoSingleMove",
    "NotAPartition",
    "NotAdjacent",
    "NotAdmissible",
    "NotComparable",
    "NotStrictlyDominated",
    "NotSympartition",
    "PreceqOracle",
    "PreconditionViolated",
    "RankMismatch",
    "SizeMismatch",
    "Symbol",
    "WitnessInvalid",
    "a_value",
    "a_value_typeA",
    "adjacency_move",
    "adjacent_single_box",
    "bipartition",
    "break_points",
    "clear_caches",
    "dominance_leq",
    "down",
    "enumerate_bipartitions",
    "f_stat",
    "family_hasse",
    "family_members",
    "family_table",
    "format_partition",
    "frame",
    "from_sympartition",
    "gap",
    "induction_targets",
    "is_adjacent",
    "is_sympartition",
    "kappa",
    "min_admissible",
    "n_stat",
    "overlap_count",
    "parse_partition",
    "partitions_of",
    "pieri_targets",
    "preceq",
    "preceq_oracle",
    "preceq_typeA_oracle",
    "saturated_chain",
    "size",
    "symbol",
    "transpose",
    "truncated_pieri_targets",
    "truncated_targets",
    "up",
    "verify_double_break",
    "witness_is_valid",
    "witness_step",
]


def __getattr__(name: str):
    """Load every layer module on the first lookup of a public name.

    `import bsymbols.cli` runs this file, and a process without bytecode
    caches compiles every module it imports, so the package imports nothing
    until a name of `__all__` is looked up; the CLI imports per subcommand.
    That lookup loads every layer module, `verify` among them, and binds all
    the public names at once.  Any other name raises at once: `from bsymbols
    import cli` then imports the submodule.
    """
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .adjacency import (
        AdjacencyFrame,
        adjacency_move,
        frame,
        is_adjacent,
        saturated_chain,
        verify_double_break,
    )
    from .errors import (
        BSymbolsError,
        NoSingleMove,
        NotAdjacent,
        NotAdmissible,
        NotAPartition,
        NotComparable,
        NotStrictlyDominated,
        NotSympartition,
        PreconditionViolated,
        RankMismatch,
        SizeMismatch,
        WitnessInvalid,
    )
    from .families import (
        Family,
        FamilyTable,
        HasseDiagram,
        enumerate_bipartitions,
        family_hasse,
        family_table,
    )
    from .partitions import (
        BoxMove,
        break_points,
        dominance_leq,
        down,
        format_partition,
        gap,
        overlap_count,
        parse_partition,
        partitions_of,
        size,
        transpose,
        up,
    )
    from .preorder import (
        InductionWitness,
        PreceqOracle,
        induction_targets,
        preceq,
        preceq_oracle,
        truncated_targets,
        witness_is_valid,
        witness_step,
    )
    from .symbols import (
        EMPTY,
        Bipartition,
        Kappa,
        Symbol,
        a_value,
        bipartition,
        f_stat,
        family_members,
        from_sympartition,
        is_sympartition,
        kappa,
        min_admissible,
        n_stat,
        symbol,
    )
    from .typea import (
        a_value_typeA,
        adjacent_single_box,
        pieri_targets,
        preceq_typeA_oracle,
        truncated_pieri_targets,
    )
    # verify exports no public name, but a caller that reads the layer
    # modules from sys.modules (a tracer) finds it loaded with the rest
    from .verify import run_suites  # noqa: F401

    public = locals()
    globals().update((key, public[key]) for key in __all__ if key in public)
    return public[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


def clear_caches() -> None:
    """Empty the package's memo tables.

    The rank tables, posets and oracle closures are cached without bound
    for the life of the process; a long-lived caller can drop them here.
    """
    from .adjacency import _poset
    from .families import enumerate_bipartitions, family_table
    from .partitions import partitions_of
    from .preorder import _oracle_rows
    from .typea import _typea_rows

    for cached in (
        family_table,
        _poset,
        _oracle_rows,
        _typea_rows,
        enumerate_bipartitions,
        partitions_of,
    ):
        cached.cache_clear()
