"""Command-line frontend.

Subcommands: symbol, kappa, families, avalues, compare, chain, verify,
hasse.  All output is deterministic; exit codes are 0 for success, 1 for a
verification failure, 2 for a parse error, 3 for an inadmissible N, 4 when
the two bipartitions of compare or chain have different ranks or a chain's
first kappa is not below its last, 5 for an internal error (a tripwire such
as NoSingleMove or WitnessInvalid, or a MemoryError from a weight or size
too large to build) and 141 when the reader closed stdout early.

The commands read what the process already holds rather than compute it
again, so a warm text chain renders only its last kappa (and a step
inside one family); a chain inside one family loads no preorder.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from .errors import (
    BSymbolsError,
    NotAdmissible,
    NotAPartition,
    NotComparable,
    RankMismatch,
)
from .partitions import _numeral, _single_move, dominance_leq, format_partition
from .symbols import Bipartition, _a, _rank_kappas, kappa, symbol

# The layers past symbols are imported inside the commands that use them: a
# process without bytecode caches compiles every module it imports, and most
# queries (kappa, symbol, compare) need none of them.


def nonnegative_int(text: str) -> int:
    """argparse type for --b, --n, --N and --max-n: ASCII digits, or exit 2.

    Values above sys.maxsize are refused too: ranges and tuples of that
    length raise OverflowError, which is no part of the exit-code contract.
    """
    value = _numeral(text)
    if value > sys.maxsize:
        raise ValueError(text)
    return value


def weight_list(text: str) -> tuple[int, ...]:
    """argparse type for --b-list: one or more weights, sorted and deduplicated."""
    return tuple(sorted({nonnegative_int(v) for v in text.split(",")}))


def _print_json(doc: dict) -> None:
    import json  # only --format json needs it; text output keeps start-up lean

    # indent=2 runs CPython's pure-Python encoder, several times the cost of
    # the text form on a warm chain, but every JSON output's bytes are
    # pinned, so the indent stays
    print(json.dumps(doc, indent=2))


def cmd_symbol(args: argparse.Namespace) -> int:
    bp = Bipartition.parse(args.bipartition)
    s = symbol(bp, args.b, args.N)
    k = kappa(bp, args.b, args.N)
    if args.format == "json":
        _print_json({"b": s.b, "N": s.N, "row1": s.row1, "row2": s.row2, "kappa": k.entries})
    else:
        print(f"b: {s.b}")
        print(f"N: {s.N}")
        print(f"row2: {format_partition(s.row2)}")
        print(f"row1: {format_partition(s.row1)}")
        print(f"kappa: {format_partition(k.entries)}")
    return 0


def cmd_kappa(args: argparse.Namespace) -> int:
    if args.format == "json":
        return cmd_symbol(args)  # the JSON record is symbol's, kappa included
    k = kappa(Bipartition.parse(args.bipartition), args.b, args.N)
    print(format_partition(k.entries))
    return 0


def cmd_families(args: argparse.Namespace) -> int:
    from .families import _texts, family_table

    table = family_table(args.n, args.b)
    texts = _texts(args.n)
    if args.format == "json":
        doc = {
            "n": table.n,
            "b": table.b,
            "N": table.N,
            "families": [
                {
                    "kappa": f.kappa.entries,
                    "a": f.a,
                    "members": list(map(texts.__getitem__, f.members)),
                }
                for f in table.families
            ],
        }
        _print_json(doc)
    else:
        print(
            "\n".join(
                f"{format_partition(f.kappa.entries)}\t{f.a}\t{len(f.members)}\t"
                + ";".join(map(texts.__getitem__, f.members))
                for f in table.families
            )
        )
    return 0


def cmd_avalues(args: argparse.Namespace) -> int:
    from .families import _texts, family_table

    table = family_table(args.n, args.b)
    families, position = table.families, table.position
    # the text table is in textual order, and no two members share a text
    print("\n".join(f"{text}\t{families[position[m]].a}" for m, text in _texts(args.n).items()))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    a = Bipartition.parse(args.bipartition)
    c = Bipartition.parse(args.bipartition2)
    ka, kc = _rank_kappas(a, c, args.b)
    if ka == kc:
        status = "EQ"
    elif dominance_leq(ka, kc):
        status = "LEQ"
    elif dominance_leq(kc, ka):
        status = "GEQ"
    else:
        status = "INCOMPARABLE"
    # the a-value does not depend on N, so it is read off the kappas at N = n
    print(status)
    print(f"a({a.text()}) = {_a(ka, args.b, a.rank)}")
    print(f"a({c.text()}) = {_a(kc, args.b, a.rank)}")
    return 0


@lru_cache(maxsize=None)
def _cover_witness(n: int, b: int, i: int, j: int) -> tuple:
    """The witness of a cover, its move, its nu's text and its step text.

    The cover is i -> j, two family positions of family_table(n, b), the
    lower family first; its two kappas are read off the table only when
    the entry is built, once per process, and the witness is
    preorder._witness's.  The step text is what chain's text output
    appends to the cover's lower element: its kappa, move, nu, l and
    transposed fields.  A WitnessInvalid is raised again on every call, as
    a raise is never stored.
    """
    from . import preorder
    from .families import family_table

    families = family_table(n, b).families
    lo, hi = families[i].kappa.entries, families[j].kappa.entries
    move = _single_move(lo, hi)
    w = preorder._witness(lo, hi, b, move)
    nu = w.nu.text()
    flag = "yes" if w.transposed else "no"
    step = f"\tkappa={format_partition(lo)}\tmove={move}\tnu={nu}\tl={w.l}\ttransposed={flag}"
    return w, move, nu, step


def cmd_chain(args: argparse.Namespace) -> int:
    # importing the modules, not their names, skips a failed __path__
    # lookup on each: on CPython 3.11 about a quarter of the cost
    from . import adjacency, families

    a = Bipartition.parse(args.bipartition)
    c = Bipartition.parse(args.bipartition2)
    table, path, chain = adjacency._walk(a, c, args.b)
    texts = list(map(families._texts(table.n).__getitem__, chain))
    n, fams = table.n, table.families
    # a step inside one family has no cover, so no move and no witness
    covers = [_cover_witness(n, args.b, i, j) if i != j else None for i, j in zip(path, path[1:])]
    if args.format == "json":
        steps = [cover or (None, None, None, None) for cover in covers]
        doc = {
            "b": args.b,
            "chain": texts,
            "steps": [
                {
                    "step": t,
                    "from": texts[t],
                    "to": texts[t + 1],
                    "kappa_before": fams[path[t]].kappa.entries,
                    "kappa_after": fams[path[t + 1]].kappa.entries,
                    "move": move,
                    "nu": nu,
                    "l": None if w is None else w.l,
                    "transposed": None if w is None else w.transposed,
                }
                for t, (w, move, nu, _) in enumerate(steps)
            ],
        }
        _print_json(doc)
    else:
        # each element's text, then its step's text, which starts with its
        # kappa; a step inside one family renders its own, and the last
        # element takes only its kappa
        lines = [
            text + cover[3]
            if cover
            else f"{text}\tkappa={format_partition(fams[i].kappa.entries)}\tmove=-"
            "\twitness=family"
            for text, cover, i in zip(texts, covers, path)
        ]
        lines.append(f"{texts[-1]}\tkappa={format_partition(fams[path[-1]].kappa.entries)}")
        print("\n".join(lines))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suites

    results = run_suites(args.max_n, args.b_list, oracle=args.oracle)
    failed = False
    for r in results:
        if r.ok:
            print(f"PASS {r.name} ({r.detail})")
        else:
            failed = True
            print(f"FAIL {r.name}: {r.detail}")
    print("FAILED" if failed else "OK")
    return 1 if failed else 0


def cmd_hasse(args: argparse.Namespace) -> int:
    from .families import family_hasse, family_table

    table = family_table(args.n, args.b)
    lines = [f"digraph families_n{args.n}_b{args.b} {{", "  rankdir=BT;"]
    lines += (
        f'  k{i} [label="{format_partition(f.kappa.entries)}\\na={f.a}"];'
        for i, f in enumerate(table.families)
    )
    lines += (f"  k{i} -> k{j};" for i, j in family_hasse(table).edges)
    lines.append("}")
    print("\n".join(lines))
    return 0


# Every argument is declared once; a subcommand names the ones it takes.
ARGUMENTS: dict[str, dict] = {
    "bipartition": {"help": "textual form, e.g. 5,1|2,2,1"},
    "bipartition2": {},
    "--n": {"type": nonnegative_int, "required": True},
    "--b": {"type": nonnegative_int, "required": True},
    "--N": {"type": nonnegative_int, "default": None},
    "--max-n": {
        "type": nonnegative_int,
        "default": 6,
        "help": "largest rank checked (default 6); sympartition-roundtrip ignores it and "
        "--b-list, and always checks every sympartition of total <= 30, N <= 6, b <= 8",
    },
    "--b-list": {"type": weight_list, "default": "0,1,2,3"},
    "--oracle": {"action": "store_true"},
}
# The three kinds of query: one bipartition, a pair of them, or a rank n.
POINT = ("bipartition", "--b", "--N")
PAIR = ("bipartition", "bipartition2", "--b")
RANK = ("--n", "--b")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsymbols",
        description="Symbols, families and the dominance order for type B Weyl groups.",
    )
    sub = parser.add_subparsers(required=True)

    def add(name: str, func, names: tuple[str, ...], formats: tuple[str, ...], help: str):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for arg in names:
            p.add_argument(arg, **ARGUMENTS[arg])
        if formats:  # the first choice is the default
            p.add_argument("--format", choices=formats, default=formats[0])

    text = ("text", "json")
    add("symbol", cmd_symbol, POINT, text, "print the (b, N)-symbol and kappa of a bipartition")
    add("kappa", cmd_kappa, POINT, text, "print the kappa vector of a bipartition")
    add("families", cmd_families, RANK, ("tsv", "json"), "group the bipartitions of n into families")
    add("avalues", cmd_avalues, RANK, (), "a-value of every bipartition of n")
    add("compare", cmd_compare, PAIR, (), "compare two bipartitions under dominance")
    add("chain", cmd_chain, PAIR, text, "saturated chain with one witness per step")
    add("verify", cmd_verify, ("--max-n", "--b-list", "--oracle"), (), "run the property suites")
    add("hasse", cmd_hasse, RANK, (), "Hasse diagram of the families as a dot graph")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # bipartitions such as -|1,1,1 start with a dash; hand them to argparse
    # behind the positional separator so they are not read as options
    pipe_args = [t for t in argv if "|" in t]
    if pipe_args and "--" not in argv:
        argv = [t for t in argv if "|" not in t] + ["--"] + pipe_args
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout; with fd 1 on devnull the exit-time flush
        # cannot raise again, and 141 is what a shell reports for SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except NotAPartition as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except NotAdmissible as exc:
        print(f"admissibility error: {exc}", file=sys.stderr)
        return 3
    except (NotComparable, RankMismatch) as exc:
        print(f"incomparable: {exc}", file=sys.stderr)
        return 4
    except (BSymbolsError, MemoryError) as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"internal error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
