"""The exit-code contract of `cli.main` under argv drawn from the CLI's grammar.

Each draw is a well-formed command line, a subcommand with its positionals
and options, and about half the draws then take one near miss: an unknown
subcommand, a repeated, unknown or dangling option, a missing or an extra
positional, a numeral in another script or with `_`, `+`, `-` or spaces,
a `|` text with empty, unsorted, negative or zero parts, a leading dash,
a stray `--`, or the tokens shuffled.

The work is bounded, not the check. Every value that reaches a
computation is a rank n <= 6, a weight b <= 8 or a size N <= 8, and the
only large numerals are at least 2**63, which `nonnegative_int` refuses.
A part that large is drawn only into the bipartition of `symbol` and
`kappa`, whose rows are as long as the parts are many; a pair's rank is
the size N of its kappas, so the near misses of a pair keep their parts
small.

A draw that exits 0 prints what the library gives, checked field by field
against the library call on the arguments of the namespace that cli's
parser built, so no rule of argparse is derived here again.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from bsymbols import cli
from bsymbols.adjacency import saturated_chain
from bsymbols.families import enumerate_bipartitions, family_hasse, family_table
from bsymbols.partitions import format_partition
from bsymbols.preorder import preceq
from bsymbols.symbols import Bipartition, a_value, kappa, symbol
from bsymbols.verify import run_suites

# the exit codes of the contract, 141 (a closed stdout) aside
CODES = {0, 1, 2, 3, 4, 5}

# one past sys.maxsize on a 64-bit build and beyond: refused at parse time
HUGE = st.integers(min_value=2**63, max_value=2**80)


def _script(zero: str):
    """A digit string rewritten in the decimal digits that start at zero."""
    return lambda text: "".join(chr(ord(zero) + int(d)) if d.isdigit() else d for d in text)


NEAR_NUMERALS = [
    lambda t: f" {t}",
    lambda t: f"{t} ",
    lambda t: f"+{t}",
    lambda t: f"-{t}",
    lambda t: f"{t}_0",
    lambda t: f"{t}.0",
    lambda t: "",
    _script("٠"),  # Arabic-Indic
    _script("０"),  # fullwidth
    _script("०"),  # Devanagari
]


def near_numerals(small):
    """A near miss of a small value's numeral, or the numeral of a huge one."""
    near = st.tuples(small.map(str), st.sampled_from(NEAR_NUMERALS)).map(lambda tf: tf[1](tf[0]))
    return st.one_of(near, HUGE.map(str))


def texts(n: int):
    """The text of a bipartition of rank n."""
    return st.sampled_from(enumerate_bipartitions(n)).map(Bipartition.text)


RANK = st.integers(0, 6)
POINT = RANK.flatmap(texts)


@st.composite
def pairs(draw):
    """Two texts of one rank n <= 6, or now and then of two ranks."""
    n = draw(RANK)
    m = draw(st.sampled_from([n, n, n, draw(RANK)]))
    return [draw(texts(n)), draw(texts(m))]


# each option's values that parse; --oracle is a flag
WEIGHT = st.integers(0, 8).map(str)
OPTIONS = {
    "--n": RANK.map(str),
    "--b": WEIGHT,
    "--N": st.integers(0, 8).map(str),
    "--max-n": RANK.map(str),
    "--b-list": st.lists(WEIGHT, min_size=1, max_size=4).map(",".join),
    "--format": st.sampled_from(["text", "json"]),
    "--oracle": None,
}
ONE = POINT.map(lambda t: [t])
NONE = st.just([])
# each subcommand's positionals, required options and optional ones
GRAMMAR = {
    "symbol": (ONE, ("--b",), ("--N", "--format")),
    "kappa": (ONE, ("--b",), ("--N", "--format")),
    "compare": (pairs(), ("--b",), ()),
    "chain": (pairs(), ("--b",), ("--format",)),
    "families": (NONE, ("--n", "--b"), ("--format",)),
    "avalues": (NONE, ("--n", "--b"), ()),
    "hasse": (NONE, ("--n", "--b"), ()),
    "verify": (NONE, (), ("--max-n", "--b-list", "--oracle")),
}
# verify is drawn a third as often as the others: its round-trip suite
# alone takes about 0.4 s, whatever the rank
COMMANDS = [name for name in GRAMMAR if name != "verify"] * 3 + ["verify"]


@st.composite
def well_formed(draw):
    """A subcommand, its positionals and its options, each value one that parses."""
    command = draw(st.sampled_from(COMMANDS))
    positionals, required, optional = GRAMMAR[command]
    tokens = list(draw(positionals))
    for name in (*required, *(name for name in optional if draw(st.booleans()))):
        values = OPTIONS[name]
        tokens += [name] if values is None else [name, draw(values)]
    if command == "families" and "text" in tokens:  # its text format is named tsv
        tokens[tokens.index("text")] = "tsv"
    return [command, *tokens]


@st.composite
def bipartition_near_misses(draw, huge: bool):
    """A `|` text that is no bipartition, or one with zero or (if huge) huge parts."""
    first = list(map(str, draw(st.lists(st.integers(0, 3), max_size=3))))
    second = list(map(str, draw(st.lists(st.integers(0, 3), max_size=3))))
    kind = draw(st.sampled_from(["unsorted", "zero", "empty", "negative", "numeral", "pipes"]))
    if kind == "unsorted":
        first = ["1", "2", *first]
    elif kind == "zero":
        first.append("0")
    elif kind == "empty":
        first.insert(draw(st.integers(0, len(first))), "")
    elif kind == "negative":
        second.append("-1")
    elif kind == "numeral" and first:
        first[0] = draw(st.sampled_from(NEAR_NUMERALS))(first[0])
    elif kind == "pipes":
        return draw(st.sampled_from(["", "|", "||", "1|2|3", "3", "-", "|-", "-|", " 1|- "]))
    if huge and draw(st.booleans()):
        first.insert(0, str(draw(HUGE)))
    text = f"{','.join(first) or '-'}|{','.join(second) or '-'}"
    # every digit run counts, those the parser refuses too, so this bounds the rank
    if not huge and sum(map(int, re.findall(r"\d+", text))) > 6:
        return f"{text}|"  # a third component: refused before its rank is read
    return text


# the near misses of one token, each drawn whole
UNKNOWN_COMMANDS = ["kapa", "KAPPA", "", "-h", "--b", "help"]
UNKNOWN_OPTIONS = [["--bogus", "1"], ["-x"], ["--format", "xml"], ["--nn", "1"]]
DANGLING = ["--n", "--b", "--N", "--max-n", "--b-list", "--format"]
DASHES = ["-", "-1", "-|", "--1", "--"]
MISSES = ["command", "repeat", "unknown", "dangling", "drop", "extra", "numeral", "bipartition",
          "dash", "shuffle"]


@st.composite
def argvs(draw):
    """A well-formed argv, or one near miss of it."""
    command, *tokens = draw(well_formed())
    miss = draw(st.sampled_from(["none"] * 8 + MISSES))
    values = [i for i, t in enumerate(tokens) if not t.startswith("-") and "|" not in t]
    bipartitions = [i for i, t in enumerate(tokens) if "|" in t]
    anywhere = st.integers(0, len(tokens))
    if miss == "command":
        command = draw(st.sampled_from(UNKNOWN_COMMANDS))
    elif miss == "repeat":
        name = draw(st.sampled_from(["--n", "--b", "--N", "--max-n", "--b-list"]))
        tokens += [name, draw(OPTIONS[name])]
    elif miss == "unknown":
        tokens += draw(st.sampled_from(UNKNOWN_OPTIONS))
    elif miss == "dangling":
        tokens.append(draw(st.sampled_from(DANGLING)))
    elif miss == "drop" and tokens:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif miss == "extra":
        tokens.append(draw(POINT))
    elif miss == "numeral" and values:
        tokens[draw(st.sampled_from(values))] = draw(near_numerals(st.integers(0, 8)))
    elif miss == "bipartition" and bipartitions:
        huge = command in ("symbol", "kappa")
        tokens[draw(st.sampled_from(bipartitions))] = draw(bipartition_near_misses(huge))
    elif miss == "dash":
        tokens.insert(draw(anywhere), draw(st.sampled_from(DASHES)))
    elif miss == "shuffle":
        tokens = list(draw(st.permutations(tokens)))
    return [command, *tokens]


def run_main(argv: list[str]) -> tuple[int, str, str, list]:
    """cli.main's exit code, stdout and stderr, and the namespaces its parser built.

    cli.build_parser is wrapped for the call, so a namespace is the one
    main hands to its command.  Any exception but SystemExit escapes, as
    it would escape a process with a traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    build, parsed = cli.build_parser, []

    def recording_parser():
        parser = build()
        parse_args = parser.parse_args

        def recording_parse_args(*args):
            parsed.append(parse_args(*args))
            return parsed[-1]

        parser.parse_args = recording_parse_args
        return parser

    cli.build_parser = recording_parser
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors and -h
                code = exc.code
    finally:
        cli.build_parser = build
    return code, out.getvalue(), err.getvalue(), parsed


def check_library_answer(args, out: str) -> None:
    """Check the stdout of a command that exited 0 against the library on its arguments."""
    command = args.func.__name__.removeprefix("cmd_")
    lines = out.splitlines()
    doc = json.loads(out) if getattr(args, "format", None) == "json" else None
    if command in ("symbol", "kappa"):
        bp = Bipartition.parse(args.bipartition)
        s, k = symbol(bp, args.b, args.N), kappa(bp, args.b, args.N).entries
        if doc is not None:
            assert doc == {"b": s.b, "N": s.N, "row1": [*s.row1], "row2": [*s.row2], "kappa": [*k]}
        else:
            assert lines[-1].removeprefix("kappa: ") == format_partition(k)
    elif command == "compare":
        a, c = Bipartition.parse(args.bipartition), Bipartition.parse(args.bipartition2)
        status = {(True, True): "EQ", (True, False): "LEQ", (False, True): "GEQ"}
        assert lines[0] == status.get((preceq(a, c, args.b), preceq(c, a, args.b)), "INCOMPARABLE")
        assert lines[1:] == [f"a({x.text()}) = {a_value(x, args.b)}" for x in (a, c)]
    elif command == "chain":
        a, c = Bipartition.parse(args.bipartition), Bipartition.parse(args.bipartition2)
        texts = [x.text() for x in saturated_chain(a, c, args.b)]
        assert (doc["chain"] if doc else [line.split("\t")[0] for line in lines]) == texts
    elif command == "hasse":
        edges = family_hasse(family_table(args.n, args.b)).edges
        assert [line for line in lines if "->" in line] == [f"  k{i} -> k{j};" for i, j in edges]
    elif command == "avalues":
        rows = [line.split("\t") for line in lines]
        assert [text for text, _ in rows] == [bp.text() for bp in enumerate_bipartitions(args.n)]
        assert all(int(a) == a_value(Bipartition.parse(text), args.b) for text, a in rows)
    elif command == "families":  # every member once, each with its family's kappa at N = n and a
        if doc is not None:
            rows = [(format_partition(f["kappa"]), f["a"], f["members"]) for f in doc["families"]]
        else:
            fields = (line.split("\t") for line in lines)
            rows = [(k, a, members.split(";")) for k, a, _, members in fields]
        texts = sorted(m for *_, members in rows for m in members)
        assert texts == sorted(bp.text() for bp in enumerate_bipartitions(args.n))
        for k, a, members in rows:
            for bp in map(Bipartition.parse, members):
                assert format_partition(kappa(bp, args.b, args.n).entries) == k
                assert a_value(bp, args.b) == int(a)
    else:
        assert command == "verify", command
        results = run_suites(args.max_n, args.b_list, oracle=args.oracle)
        assert lines == [*(f"PASS {r.name} ({r.detail})" for r in results), "OK"]


@settings(max_examples=100, deadline=None)
@given(argvs())
def test_generated_argv_keeps_the_exit_code_contract(argv):
    code, out, err, parsed = run_main(argv)
    assert code in CODES, (argv, code, err)
    assert "Traceback" not in err
    if code:
        assert out == "", argv
    elif not parsed:  # -h: argparse printed its help and built no namespace
        assert out.startswith("usage: bsymbols"), argv
    else:
        (args,) = parsed
        check_library_answer(args, out)
