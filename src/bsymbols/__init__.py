"""Symbols, families and the dominance order for type B Weyl groups.

Bipartitions of rank n label the irreducible representations of the Weyl
group of type B_n; with an integer weight b on the order-2 generator they
acquire two-row symbols whose sorted entry multisets (kappa vectors) cut
out the families, compute the a-function and carry the dominance order.
The package decides that order, decomposes adjacent steps into single box
moves with induction witnesses, and checks the dominance description of
the induction preorder against an independent fixpoint oracle.
"""

import importlib
import sys

# each layer module and the public names it defines
_EXPORTS = {
    "adjacency": (
        "AdjacencyFrame", "adjacency_move", "frame", "is_adjacent", "saturated_chain",
        "verify_double_break",
    ),
    "errors": (
        "BSymbolsError", "NoSingleMove", "NotAdjacent", "NotAdmissible", "NotAPartition",
        "NotComparable", "NotStrictlyDominated", "NotSympartition", "PreconditionViolated",
        "RankMismatch", "SizeMismatch", "WitnessInvalid",
    ),
    "families": (
        "Family", "FamilyTable", "HasseDiagram", "enumerate_bipartitions", "family_hasse",
        "family_table",
    ),
    "partitions": (
        "BoxMove", "break_points", "dominance_leq", "down", "format_partition", "gap",
        "overlap_count", "parse_partition", "partitions_of", "size", "transpose", "up",
    ),
    "preorder": (
        "InductionWitness", "PreceqOracle", "induction_targets", "preceq", "preceq_oracle",
        "truncated_targets", "witness_is_valid", "witness_step",
    ),
    "symbols": (
        "EMPTY", "Bipartition", "Kappa", "Symbol", "a_value", "bipartition", "f_stat",
        "family_members", "from_sympartition", "is_sympartition", "kappa", "min_admissible",
        "n_stat", "symbol",
    ),
    "typea": (
        "a_value_typeA", "adjacent_single_box", "pieri_targets", "preceq_typeA_oracle",
        "truncated_pieri_targets",
    ),
    # no public name, but a tracer reads every layer module from sys.modules
    "verify": (),
}

__all__ = sorted([*(name for names in _EXPORTS.values() for name in names), "clear_caches"])


def __getattr__(name: str):
    """Load every layer module on the first lookup of a public name.

    `import bsymbols.cli` runs this file, and a process without bytecode
    caches compiles every module it imports, so the package imports nothing
    until a name of `__all__` is looked up; the CLI imports per subcommand.
    That lookup imports every module of `_EXPORTS` and binds all the public
    names at once.  Any other name raises at once: `from bsymbols import
    cli` then imports the submodule.
    """
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        layer = importlib.import_module(f".{module}", __name__)
        globals().update((key, getattr(layer, key)) for key in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


def clear_caches() -> None:
    """Empty the package's memo tables.

    The rank and text tables, posets, oracle closures and the chain
    command's cover witnesses (cli._cover_witness, each with its step text,
    the cover's lower kappa included) are cached without bound for the life
    of the process; Bipartition.parse's memo holds the last 1,024 texts.  A
    long-lived caller can drop them here.  Every value with a `cache_clear`
    in a loaded `bsymbols` module, the CLI's included, is emptied; a module
    that is not loaded holds no cache.
    """
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == __name__:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
