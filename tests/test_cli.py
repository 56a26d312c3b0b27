import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bsymbols
from bsymbols import cli, symbols
from bsymbols.preorder import InductionWitness, witness_is_valid
from bsymbols.symbols import Bipartition


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SYMBOL_GOLDEN = """\
b: 2
N: 3
row2: 1,3,4
row1: 0,1,2,4,9
kappa: 9,4,4,3,2,1,1,0
"""

FAMILIES_GOLDEN = """\
6,2,2,1,1,0,0\t0\t1\t3|-
5,3,2,1,1,0,0\t1\t3\t-|3;2,1|-;2|1
4,4,2,1,1,0,0\t2\t1\t1|2
4,3,3,1,1,0,0\t3\t1\t1,1|1
4,3,2,2,1,0,0\t4\t3\t-|2,1;1,1,1|-;1|1,1
3,3,2,2,1,1,0\t9\t1\t-|1,1,1
"""

HASSE_GOLDEN = """\
digraph families_n3_b1 {
  rankdir=BT;
  k0 [label="6,2,2,1,1,0,0\\na=0"];
  k1 [label="5,3,2,1,1,0,0\\na=1"];
  k2 [label="4,4,2,1,1,0,0\\na=2"];
  k3 [label="4,3,3,1,1,0,0\\na=3"];
  k4 [label="4,3,2,2,1,0,0\\na=4"];
  k5 [label="3,3,2,2,1,1,0\\na=9"];
  k1 -> k0;
  k2 -> k1;
  k3 -> k2;
  k4 -> k3;
  k5 -> k4;
}
"""


def test_symbol_golden(capsys):
    code, out, _ = run(capsys, "symbol", "5,1|2,2,1", "--b", "2", "--N", "3")
    assert code == 0
    assert out == SYMBOL_GOLDEN


def test_symbol_default_N_and_json(capsys):
    code, out, _ = run(capsys, "symbol", "5,1|2,2,1", "--b", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "b": 2,
        "N": 3,
        "row1": [0, 1, 2, 4, 9],
        "row2": [1, 3, 4],
        "kappa": [9, 4, 4, 3, 2, 1, 1, 0],
    }


def test_symbol_staircase(capsys):
    code, out, _ = run(capsys, "symbol", "-|-", "--b", "1")
    assert code == 0
    assert "row2: -" in out and "row1: 0" in out


def test_symbol_parse_error(capsys):
    code, _, err = run(capsys, "symbol", "1,2|-", "--b", "1")
    assert code == 2
    assert "parse error" in err


def test_symbol_not_admissible(capsys):
    code, _, err = run(capsys, "symbol", "5,1|2,2,1", "--b", "2", "--N", "2")
    assert code == 3
    assert "admissibility" in err


KAPPA_JSON_GOLDEN = """\
{
  "b": 1,
  "N": 3,
  "row1": [
    0,
    1,
    2,
    4
  ],
  "row2": [
    0,
    1,
    4
  ],
  "kappa": [
    4,
    4,
    2,
    1,
    1,
    0,
    0
  ]
}
"""


def test_kappa_json_golden(capsys):
    code, out, _ = run(capsys, "kappa", "1|2", "--b", "1", "--N", "3", "--format", "json")
    assert code == 0
    assert out == KAPPA_JSON_GOLDEN


def test_kappa_command(capsys):
    code, out, _ = run(capsys, "kappa", "1|2", "--b", "1", "--N", "3")
    assert code == 0
    assert out == "4,4,2,1,1,0,0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("1|2", "--b", "1", "--N", "3"),
        ("5,1|2,2,1", "--b", "2"),
        ("-|1,1,1", "--b", "0", "--N", "4"),
        ("300,2|1", "--b", "3"),
        ("3,1|2", "--b", "1", "--N", "1"),  # inadmissible N: exit 3
        ("1,2|-", "--b", "1"),  # not a partition: exit 2
    ],
)
def test_kappa_json_is_symbol_json(capsys, argv):
    symbol = run(capsys, "symbol", *argv, "--format", "json")
    assert run(capsys, "kappa", *argv, "--format", "json") == symbol
    assert symbol[0] in (0, 2, 3)


# Every subcommand's arguments as (option strings, dest, required, default,
# choices, type name), help first, in the order build_parser adds them.
HELP = (("-h", "--help"), "help", False, "==SUPPRESS==", None, None)
BIPARTITION = ((), "bipartition", True, None, None, None)
BIPARTITION2 = ((), "bipartition2", True, None, None, None)
WEIGHT = (("--b",), "b", True, None, None, "nonnegative_int")
SIZE = (("--N",), "N", False, None, None, "nonnegative_int")
RANK = (("--n",), "n", True, None, None, "nonnegative_int")
TEXT_OR_JSON = (("--format",), "format", False, "text", ("text", "json"), None)
PARSER_CONTRACT = {
    "symbol": [HELP, BIPARTITION, WEIGHT, SIZE, TEXT_OR_JSON],
    "kappa": [HELP, BIPARTITION, WEIGHT, SIZE, TEXT_OR_JSON],
    "families": [HELP, RANK, WEIGHT, (("--format",), "format", False, "tsv", ("tsv", "json"), None)],
    "avalues": [HELP, RANK, WEIGHT],
    "compare": [HELP, BIPARTITION, BIPARTITION2, WEIGHT],
    "chain": [HELP, BIPARTITION, BIPARTITION2, WEIGHT, TEXT_OR_JSON],
    "verify": [
        HELP,
        (("--max-n",), "max_n", False, 6, None, "nonnegative_int"),
        (("--b-list",), "b_list", False, "0,1,2,3", None, "weight_list"),
        (("--oracle",), "oracle", False, False, None, None),
    ],
    "hasse": [HELP, RANK, WEIGHT],
}


def test_parser_contract():
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: [
            (
                tuple(a.option_strings),
                a.dest,
                a.required,
                a.default,
                None if a.choices is None else tuple(a.choices),
                getattr(a.type, "__name__", None),
            )
            for a in p._actions
        ]
        for name, p in sub.choices.items()
    }
    assert got == PARSER_CONTRACT
    assert list(got) == list(PARSER_CONTRACT)


# parts past format_partition's table of 0-255 next to parts inside it
PAST_THE_TABLE_GOLDENS = {
    ("kappa", "300,2|1", "--b", "0"): "301,2,2,0\n",
    ("symbol", "300,2|1", "--b", "3"): (
        "b: 3\nN: 2\nrow2: 0,2\nrow1: 0,1,2,5,304\nkappa: 304,5,2,2,1,0,0\n"
    ),
}


@pytest.mark.parametrize("argv", PAST_THE_TABLE_GOLDENS)
def test_past_the_table_goldens(capsys, argv):
    assert run(capsys, *argv) == (0, PAST_THE_TABLE_GOLDENS[argv], "")


def test_families_golden(capsys):
    code, out, _ = run(capsys, "families", "--n", "3", "--b", "1")
    assert code == 0
    assert out == FAMILIES_GOLDEN


def test_families_asymptotic(capsys):
    code, out, _ = run(capsys, "families", "--n", "3", "--b", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.split("\t")[2] == "1" for line in lines)


def test_families_rank0(capsys):
    code, out, _ = run(capsys, "families", "--n", "0", "--b", "5")
    assert code == 0
    assert out == "4,3,2,1,0\t0\t1\t-|-\n"


# whole stdout at ranks 0 and 1, below the pinned ranks: every line,
# the last one included, ends in exactly one newline
SMALL_RANK_GOLDENS = {
    "families --n 0 --b 0": "-\t0\t1\t-|-\n",
    "families --n 0 --b 2": "1,0\t0\t1\t-|-\n",
    "families --n 1 --b 0": "1,0\t0\t2\t-|1;1|-\n",
    "families --n 1 --b 2": "3,1,0,0\t0\t1\t1|-\n2,1,1,0\t2\t1\t-|1\n",
    "avalues --n 0 --b 0": "-|-\t0\n",
    "avalues --n 0 --b 2": "-|-\t0\n",
    "avalues --n 1 --b 0": "-|1\t0\n1|-\t0\n",
    "avalues --n 1 --b 2": "-|1\t2\n1|-\t0\n",
    "hasse --n 0 --b 0": (
        "digraph families_n0_b0 {\n"
        "  rankdir=BT;\n"
        '  k0 [label="-\\na=0"];\n'
        "}\n"
    ),
    "hasse --n 0 --b 2": (
        "digraph families_n0_b2 {\n"
        "  rankdir=BT;\n"
        '  k0 [label="1,0\\na=0"];\n'
        "}\n"
    ),
    "hasse --n 1 --b 0": (
        "digraph families_n1_b0 {\n"
        "  rankdir=BT;\n"
        '  k0 [label="1,0\\na=0"];\n'
        "}\n"
    ),
    "hasse --n 1 --b 2": (
        "digraph families_n1_b2 {\n"
        "  rankdir=BT;\n"
        '  k0 [label="3,1,0,0\\na=0"];\n'
        '  k1 [label="2,1,1,0\\na=2"];\n'
        "  k1 -> k0;\n"
        "}\n"
    ),
    "chain -|- -|- --b 0": "-|-\tkappa=-\n",
    "chain 1|- 1|- --b 2": "1|-\tkappa=3,1,0,0\n",
    "chain 1|- -|1 --b 0": "1|-\tkappa=1,0\tmove=-\twitness=family\n-|1\tkappa=1,0\n",
}


@pytest.mark.parametrize("argv", SMALL_RANK_GOLDENS)
def test_small_rank_goldens(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (0, SMALL_RANK_GOLDENS[argv], "")


def test_families_json(capsys):
    code, out, _ = run(capsys, "families", "--n", "3", "--b", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3 and doc["b"] == 1 and doc["N"] == 3
    assert len(doc["families"]) == 6
    assert doc["families"][0]["kappa"] == [6, 2, 2, 1, 1, 0, 0]


def test_avalues(capsys):
    code, out, _ = run(capsys, "avalues", "--n", "3", "--b", "1")
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows == {
        "3|-": "0",
        "2,1|-": "1",
        "-|3": "1",
        "2|1": "1",
        "1|2": "2",
        "1,1|1": "3",
        "1,1,1|-": "4",
        "-|2,1": "4",
        "1|1,1": "4",
        "-|1,1,1": "9",
    }


def test_compare_leq(capsys):
    code, out, _ = run(capsys, "compare", "-|1,1,1", "3|-", "--b", "1")
    assert code == 0
    assert out == "LEQ\na(-|1,1,1) = 9\na(3|-) = 0\n"


def test_compare_eq(capsys):
    code, out, _ = run(capsys, "compare", "2,1|-", "-|3", "--b", "1")
    assert code == 0
    assert out.splitlines()[0] == "EQ"


def test_compare_geq(capsys):
    code, out, _ = run(capsys, "compare", "1|2", "1,1|1", "--b", "1")
    assert code == 0
    assert out.splitlines()[0] == "GEQ"


def test_compare_incomparable(capsys):
    code, out, _ = run(capsys, "compare", "-|3,1", "1,1|2", "--b", "1")
    assert code == 0
    assert out.splitlines()[0] == "INCOMPARABLE"


def test_chain_golden(capsys):
    code, out, _ = run(capsys, "chain", "-|1,1,1", "3|-", "--b", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("-|1,1,1\tkappa=3,3,2,2,1,1,0\tmove=Up(1,6)")
    assert lines[-1] == "3|-\tkappa=6,2,2,1,1,0,0"
    for line in lines[:-1]:
        assert "\tnu=" in line and "\tl=" in line and "\ttransposed=" in line


def test_chain_zero_steps(capsys):
    code, out, _ = run(capsys, "chain", "2,1|-", "2,1|-", "--b", "1")
    assert code == 0
    assert out == "2,1|-\tkappa=5,3,2,1,1,0,0\n"


def test_chain_family_hop(capsys):
    code, out, _ = run(capsys, "chain", "2,1|-", "-|3", "--b", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2,1|-\tkappa=5,3,2,1,1,0,0\tmove=-\twitness=family"
    assert lines[1] == "-|3\tkappa=5,3,2,1,1,0,0"


def test_chain_incomparable_exits_4(capsys):
    code, _, err = run(capsys, "chain", "-|3,1", "1,1|2", "--b", "1")
    assert code == 4
    assert "incomparable" in err


@pytest.mark.parametrize("command", ["chain", "compare"])
def test_pair_of_different_ranks_exits_4(capsys, command):
    code, out, err = run(capsys, command, "1|-", "1,1|-", "--b", "1")
    assert (code, out) == (4, "")
    assert err == "incomparable: ranks differ: 1|- has 1, 1,1|- has 2\n"


def test_chain_json(capsys):
    code, out, _ = run(capsys, "chain", "1,1|1", "1|2", "--b", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["chain"] == ["1,1|1", "1|2"]
    step = doc["steps"][0]
    assert step["move"] == [2, 3]
    assert step["kappa_before"] == [4, 3, 3, 1, 1, 0, 0]
    assert step["kappa_after"] == [4, 4, 2, 1, 1, 0, 0]
    assert step["transposed"] is True


def test_hasse_golden(capsys):
    code, out, _ = run(capsys, "hasse", "--n", "3", "--b", "1")
    assert code == 0
    assert out == HASSE_GOLDEN


def test_verify_trivial_scale(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "0", "--b-list", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "OK"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_reports_failing_suite(capsys, monkeypatch):
    from bsymbols import verify as verify_module

    def broken(max_n, b_list):
        return False, "intentional corruption"

    patched = tuple(
        (name, broken if name == "kappa-is-sympartition" else fn)
        for name, fn in verify_module.SUITES
    )
    monkeypatch.setattr(verify_module, "SUITES", patched)
    code, out, err = run(capsys, "verify", "--max-n", "0", "--b-list", "0")
    assert code == 1
    assert "Traceback" not in err
    assert "FAIL kappa-is-sympartition: intentional corruption" in out
    assert out.strip().splitlines()[-1] == "FAILED"


def broken_witness(lo, hi, b, move):
    from bsymbols.errors import WitnessInvalid

    raise WitnessInvalid("intentional tripwire")


def test_chain_tripwire_exits_5(capsys, monkeypatch):
    from bsymbols import preorder

    # an earlier chain may have memoized these covers; empty the memo so the
    # chain reaches the builder
    bsymbols.clear_caches()
    monkeypatch.setattr(preorder, "_witness", broken_witness)
    code, out, err = run(capsys, "chain", "-|1,1,1", "3|-", "--b", "1")
    assert code == 5
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("internal error:") and "intentional tripwire" in err


def test_chain_memoizes_no_failed_cover(capsys, monkeypatch):
    from bsymbols import preorder

    argv = ("chain", "-|1,1,1", "3|-", "--b", "1")
    code, pinned, _ = run(capsys, *argv)
    assert code == 0
    bsymbols.clear_caches()
    with monkeypatch.context() as patch:
        patch.setattr(preorder, "_witness", broken_witness)
        for _ in range(2):  # a raise is not stored, so the tripwire fires every time
            code, out, err = run(capsys, *argv)
            assert (code, out) == (5, "")
            assert "intentional tripwire" in err
            assert cli._cover_witness.cache_info().currsize == 0
    assert run(capsys, *argv) == (0, pinned, "")
    assert cli._cover_witness.cache_info().currsize == 5


GOLDEN = Path(__file__).resolve().parent / "golden"
CHAIN_16 = ("chain", "-|" + ",".join("1" * 16), "16|-")


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("b", [3, 16], ids=["b3", "b16"])
def test_chain_reads_the_same_witnesses_cold_warm_and_cleared(capsys, b, fmt):
    # one process: cold memos, the warm memos, then after clear_caches; at
    # b = 16, 58 of the 100 steps take the transposed witness (46 of 76 at b = 3)
    argv = CHAIN_16 + ("--b", str(b)) + (("--format", "json") if fmt == "json" else ())
    golden = (GOLDEN / f"chain-16-b{b}.{fmt}").read_text()
    bsymbols.clear_caches()
    for clear in (False, False, True):
        if clear:
            bsymbols.clear_caches()
        assert run(capsys, *argv) == (0, golden, "")


def reference_chain(a: Bipartition, c: Bipartition, b: int, covers: dict) -> tuple[str, dict]:
    """chain's text stdout and JSON document for a -> c, from public calls only.

    The elements are saturated_chain's and each kappa is computed at N = n.
    A step between distinct kappas takes adjacency_move and witness_step,
    kept in covers by its two elements; a step inside one family has
    neither.
    """
    from bsymbols import adjacency_move, saturated_chain, witness_step

    def digits(k):
        return ",".join(map(str, k)) or "-"

    chain = saturated_chain(a, c, b)
    kappas = [symbols.kappa(x, b, a.rank).entries for x in chain]
    texts = [x.text() for x in chain]
    lines, steps = [], []
    for t, (x, y) in enumerate(zip(chain, chain[1:])):
        if kappas[t] == kappas[t + 1]:
            move = w = None
            lines.append(f"{texts[t]}\tkappa={digits(kappas[t])}\tmove=-\twitness=family")
        else:
            if (x, y) not in covers:
                covers[x, y] = adjacency_move(x, y, b), witness_step(x, y, b)
            move, w = covers[x, y]
            flag = "yes" if w.transposed else "no"
            lines.append(
                f"{texts[t]}\tkappa={digits(kappas[t])}\tmove=Up({move.k1},{move.k2})"
                f"\tnu={w.nu.text()}\tl={w.l}\ttransposed={flag}"
            )
        steps.append(
            {
                "step": t,
                "from": texts[t],
                "to": texts[t + 1],
                "kappa_before": list(kappas[t]),
                "kappa_after": list(kappas[t + 1]),
                "move": None if move is None else [move.k1, move.k2],
                "nu": None if w is None else w.nu.text(),
                "l": None if w is None else w.l,
                "transposed": None if w is None else w.transposed,
            }
        )
    lines.append(f"{texts[-1]}\tkappa={digits(kappas[-1])}")
    return "\n".join(lines) + "\n", {"b": b, "chain": texts, "steps": steps}


def test_chain_matches_its_public_reference_cold_and_warm():
    # every pair with kappa(a) <= kappa(c), n <= 5 and b <= n + 1, family
    # hops and one-element chains included: chain's text and JSON stdout,
    # first with every memo empty for the (n, b), then warm, against the
    # reference; the chain walks by family position, the reference does
    # not.  The text is compared byte for byte; the JSON is compared as
    # its compact re-dump, which keeps key order, types and values (the
    # indent=2 layout is pinned by the chain goldens).  The walk both share
    # returns its path and its elements, and they agree: the ends are a and
    # c, each inner element is its family's first member, and every
    # element's family is its position on the path
    import io
    from contextlib import redirect_stdout

    from bsymbols import dominance_leq, enumerate_bipartitions
    from bsymbols.adjacency import _walk

    def compact(doc):
        return json.dumps(doc, separators=(",", ":"))

    out = io.StringIO()
    pairs = hops = steps = 0
    for n in range(6):
        members = enumerate_bipartitions(n)
        for b in range(n + 2):
            kappas = {x: symbols.kappa(x, b, n).entries for x in members}
            covers = {}
            cases = []
            for a in members:
                for c in members:
                    if dominance_leq(kappas[a], kappas[c]):
                        table, path, chain = _walk(a, c, b)
                        assert len(chain) == len(path) and (chain[0], chain[-1]) == (a, c)
                        for t in range(1, len(path) - 1):
                            assert chain[t] == table.families[path[t]].members[0]
                        assert [table.position[x] for x in chain] == path
                        text, doc = reference_chain(a, c, b, covers)
                        cases.append((a.text(), c.text(), text, compact(doc)))
                        hops += a != c and kappas[a] == kappas[c]
                        steps += len(doc["steps"])
            pairs += len(cases)
            bsymbols.clear_caches()
            with redirect_stdout(out):
                for _ in ("cold", "warm"):
                    for a, c, text, doc in cases:
                        for fmt in ("text", "json"):
                            ns = argparse.Namespace(bipartition=a, bipartition2=c, b=b, format=fmt)
                            assert cli.cmd_chain(ns) == 0
                            got = out.getvalue()
                            out.seek(0)
                            out.truncate()
                            if fmt == "text":
                                assert got == text, (a, c, b)
                            else:
                                assert compact(json.loads(got)) == doc, (a, c, b)
    assert (pairs, hops, steps) == (6085, 436, 23617)


def test_verify_tripwire_exits_5(capsys, monkeypatch):
    from bsymbols import verify as verify_module
    from bsymbols.errors import NoSingleMove

    def broken(max_n, b_list):
        raise NoSingleMove("intentional tripwire")

    patched = tuple(
        (name, broken if name == "partition-order-axioms" else fn)
        for name, fn in verify_module.SUITES
    )
    monkeypatch.setattr(verify_module, "SUITES", patched)
    code, out, err = run(capsys, "verify", "--max-n", "0", "--b-list", "0")
    assert code == 5
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("internal error:") and "intentional tripwire" in err


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--max-n", "2", "--b-list", "0,1", "--oracle")
    code2, out2, _ = run(capsys, "verify", "--max-n", "2", "--b-list", "0,1", "--oracle")
    assert code1 == code2 == 0
    assert out1 == out2


def test_commands_byte_identical_across_runs(capsys):
    for argv in (
        ["families", "--n", "4", "--b", "2"],
        ["hasse", "--n", "4", "--b", "1"],
        ["chain", "-|1,1,1", "3|-", "--b", "1"],
        ["avalues", "--n", "4", "--b", "0"],
    ):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["families", "--n", "7", "--b", "2"],
        ["families", "--n", "7", "--b", "2", "--format", "json"],
        ["avalues", "--n", "7", "--b", "2"],
    ],
    ids=["families-tsv", "families-json", "avalues"],
)
def test_rank_tables_print_the_same_with_the_text_table_cold_warm_and_cleared(capsys, argv):
    # the member texts come from one table per rank, shared by every b
    import bsymbols
    from bsymbols.families import _texts, family_table

    bsymbols.clear_caches()
    cold = run(capsys, *argv)
    assert _texts.cache_info().currsize == 1
    warm = run(capsys, *argv)
    bsymbols.clear_caches()
    run(capsys, "avalues", "--n", "7", "--b", "5")  # the table warmed at another b
    other_b = run(capsys, *argv)
    bsymbols.clear_caches()
    cleared = run(capsys, *argv)
    assert cold == warm == other_b == cleared
    assert cold[0] == 0 and cold[2] == ""
    # (text, a) of every bipartition, each rendered afresh, in textual order
    rows = sorted((m.text(), f.a) for f in family_table(7, 2).families for m in f.members)
    if argv[0] == "avalues":
        assert cold[1] == "".join(f"{text}\t{a}\n" for text, a in rows)
    elif "json" in argv:
        members = [m for f in json.loads(cold[1])["families"] for m in f["members"]]
        assert sorted(members) == [text for text, _ in rows]
    else:
        members = [m for line in cold[1].splitlines() for m in line.split("\t")[3].split(";")]
        assert sorted(members) == [text for text, _ in rows]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["kappa", "1|2", "--b", "1"], 0),
        (["verify", "--max-n", "0", "--b-list", "1,0,1"], 0),
        # the contract probes: negative integers and an empty weight list
        (["kappa", "1|2", "--b", "-1"], 2),
        (["families", "--n", "-1", "--b", "1"], 2),
        (["families", "--n", "3", "--b", "-2"], 2),
        (["verify", "--b-list", ""], 2),
        (["verify", "--b-list", "1,x"], 2),
        (["verify", "--max-n", "-1"], 2),
        (["families", "--n", "x", "--b", "1"], 2),
        (["symbol", "5,1|2,2,1", "--b", "2", "--N", "-1"], 2),
        (["symbol", "1,2|-", "--b", "1"], 2),
        (["kappa", "1|2", "--b", "1", "--N", "0"], 3),
        (["chain", "-|3,1", "1,1|2", "--b", "1"], 4),
        (["chain", "1|1", "1|2", "--b", "1"], 4),
        (["compare", "1|-", "1,1|-", "--b", "0"], 4),
        # a number is ASCII digits alone, the only numerals format_partition
        # prints; leading zeros and blanks around a whole component are kept
        (["kappa", "1_0|-", "--b", "0"], 2),
        (["kappa", "\u0663|-", "--b", "0"], 2),  # an Arabic-Indic digit
        (["kappa", "\uff11|-", "--b", "0"], 2),  # a fullwidth digit
        (["kappa", "+1|-", "--b", "0"], 2),
        (["kappa", "1, 1|-", "--b", "0"], 2),
        (["kappa", "1|-", "--b", "1_0"], 2),
        (["kappa", "1|-", "--b", "\u0663"], 2),
        (["kappa", "1|-", "--b", " 3"], 2),
        (["kappa", "1|-", "--b", "+3"], 2),
        (["verify", "--b-list", "1_0,\u0662"], 2),
        (["kappa", " 01,1 |-", "--b", "03"], 0),
        (["verify", "--max-n", "00", "--b-list", "00,01"], 0),
    ],
)
def test_exit_code_contract(capsys, argv, code):
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        got = exc.code
    out = capsys.readouterr()
    assert got == code
    assert "Traceback" not in out.err
    if code:
        assert out.out == ""


# one past the largest length a range or tuple may have; as a weight or a
# rank it used to escape as an OverflowError traceback with exit 1
HUGE = str(sys.maxsize + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["symbol", "1|2", "--b", HUGE],
        ["symbol", "1|2", "--b", "1", "--N", HUGE],
        ["kappa", "1|2", "--b", HUGE],
        ["kappa", "1|2", "--b", "1", "--N", HUGE],
        ["kappa", "1|2", "--b", "99999999999999999999"],
        ["families", "--n", HUGE, "--b", "1"],
        ["families", "--n", "3", "--b", HUGE],
        ["avalues", "--n", HUGE, "--b", "1"],
        ["avalues", "--n", "3", "--b", HUGE],
        ["compare", "1|-", "-|1", "--b", HUGE],
        ["chain", "-|1", "1|-", "--b", HUGE],
        ["hasse", "--n", HUGE, "--b", "1"],
        ["hasse", "--n", "3", "--b", HUGE],
        ["verify", "--max-n", HUGE],
        ["verify", "--b-list", f"0,{HUGE}"],
    ],
)
def test_integer_past_maxsize_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert "Traceback" not in out.err and "invalid" in out.err


# just below sys.maxsize: the value passes nonnegative_int, and CPython
# refuses a list or tuple of that length before it allocates anything
BIG = str(sys.maxsize - 1000)


@pytest.mark.parametrize(
    "argv",
    [
        ["symbol", "1|2", "--b", BIG],
        ["symbol", "1|2", "--b", "1", "--N", BIG],
        ["kappa", "1|2", "--b", BIG],
        ["kappa", "1|2", "--b", "1", "--N", BIG],
        ["families", "--n", "3", "--b", BIG],
        ["avalues", "--n", "3", "--b", BIG],
        ["compare", "1|-", "-|1", "--b", BIG],
        ["chain", "-|1", "1|-", "--b", BIG],
        ["hasse", "--n", "3", "--b", BIG],
        ["verify", "--max-n", "1", "--b-list", f"0,{BIG}"],
    ],
)
def test_memory_error_exits_5(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (5, "", "internal error: MemoryError\n")


def test_nonnegative_int_bounds():
    assert cli.nonnegative_int("0") == 0
    assert cli.nonnegative_int("007") == 7
    assert cli.nonnegative_int(str(sys.maxsize)) == sys.maxsize
    for text in ("-1", HUGE, "", "1_0", "\u0663", "\uff11", " 3", "3 ", "+3", "3.0"):
        with pytest.raises(ValueError):
            cli.nonnegative_int(text)


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


SRC = str(Path(__file__).resolve().parent.parent / "src")


def fresh(probe: str, *argv: str) -> str:
    """stdout of probe run by a new interpreter on this checkout's src."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True
    ).stdout


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", "1|-", "--b", "0"],
        ["avalues", "--n", "16", "--b", "3"],  # 106 KB, more than a pipe buffer
        ["verify", "--max-n", "2", "--b-list", "0"],
    ],
    ids=["kappa", "avalues", "verify"],
)
def test_closed_stdout_exits_141_quietly(argv, buffered):
    # a reader that closed the pipe before the process wrote: a buffered
    # stdout fails at the flush, an unbuffered one at the first print
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    if buffered:
        del env["PYTHONUNBUFFERED"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from bsymbols.cli import main; sys.exit(main())", *argv],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


CORE ={"bsymbols", "bsymbols.cli", "bsymbols.errors", "bsymbols.partitions", "bsymbols.symbols"}
RANK_POSET = CORE | {"bsymbols.families", "bsymbols.adjacency"}


def test_each_subcommand_loads_only_its_modules():
    # every CLI process compiles what it imports when there is no bytecode
    # cache, so a query loads only the layers its command runs; json is
    # imported only when --format json asks for it
    probe = (
        "import io, sys; from bsymbols.cli import main; out, sys.stdout = sys.stdout, io.StringIO(); "
        "code = main(sys.argv[1:]); sys.stdout = out; print(code, *sorted(sys.modules))"
    )
    for argv, code, expected in (
        (["kappa", "1|2", "--b", "1"], 0, CORE),
        (["symbol", "5,1|2,2,1", "--b", "2"], 0, CORE),
        (["compare", "1|-", "-|1", "--b", "0"], 0, CORE),
        (["kappa", "1,2|-", "--b", "1"], 2, CORE),
        (["families", "--n", "3", "--b", "1"], 0, CORE | {"bsymbols.families"}),
        (["avalues", "--n", "3", "--b", "1"], 0, CORE | {"bsymbols.families"}),
        (["hasse", "--n", "3", "--b", "1"], 0, CORE | {"bsymbols.families"}),
        # only a chain that crosses families builds witnesses
        (
            ["chain", "-|1,1,1", "3|-", "--b", "1"],
            0,
            RANK_POSET | {"bsymbols.preorder", "bsymbols._util"},
        ),
        (["chain", "1|-", "-|1", "--b", "0"], 0, RANK_POSET),
    ):
        got, *loaded = fresh(probe, *argv).split()
        assert int(got) == code, argv
        package = {m for m in loaded if m.split(".")[0] == "bsymbols"}
        assert package == expected, argv
        assert not set(loaded) & {"dataclasses", "json"}, argv


def test_package_namespace_is_complete_on_first_lookup():
    # importing the package loads no layer; the first public name looked up
    # loads them all, verify among them, as the benchmark's tracer expects
    probe = """
import json, sys
import bsymbols
on_import = sorted(m for m in sys.modules if m.startswith("bsymbols"))
bsymbols.family_table
on_lookup = sorted(m for m in sys.modules if m.startswith("bsymbols"))
unresolved = [name for name in bsymbols.__all__ if getattr(bsymbols, name, None) is None]
star = {}
exec("from bsymbols import *", star)
try:
    bsymbols.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
from bsymbols import cli
print(json.dumps({
    "on_import": on_import,
    "on_lookup": on_lookup,
    "unresolved": unresolved,
    "star": sorted(set(star) - {"__builtins__"}),
    "all": sorted(bsymbols.__all__),
    "dir": dir(bsymbols),
    "unknown": unknown,
    "cli": cli.__name__,
}))
"""
    doc = json.loads(fresh(probe))
    assert doc["on_import"] == ["bsymbols"]
    layers = {"symbols", "families", "adjacency", "preorder", "typea", "verify"}
    assert {f"bsymbols.{m}" for m in layers} <= set(doc["on_lookup"])
    assert doc["unresolved"] == []
    assert doc["star"] == doc["all"]
    assert "__all__" in doc["dir"] and set(doc["all"]) <= set(doc["dir"])
    assert doc["unknown"] is not None and "no_such_name" in doc["unknown"]
    assert doc["cli"] == "bsymbols.cli"


def test_export_table_is_honest():
    # each row's names are defined in that row's module, no name sits in two
    # rows, and __all__ is the sorted union with clear_caches
    import importlib

    import bsymbols

    exported = []
    for module, names in bsymbols._EXPORTS.items():
        layer = importlib.import_module(f"bsymbols.{module}")
        for name in names:
            assert getattr(layer, name).__module__ == layer.__name__, name
        exported += names
    assert len(exported) == len(set(exported))
    assert bsymbols.__all__ == sorted(set(bsymbols.__all__))
    assert set(bsymbols.__all__) == {*exported, "clear_caches"}


PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"


def test_pinned_chains_replay_with_valid_witnesses(capsys):
    # every pinned chain, rebuilt in-process: its text output matches the
    # pin and agrees with its JSON form on every element, kappa, nu, l and
    # transposed flag, and each JSON step passes the public witness_is_valid
    pins = json.loads(PINS.read_text())["pools"]["chain"]
    steps = []
    for pin in pins:
        argv = pin["argv"]
        code, out, _ = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (pin["rc"], pin["sha256"])
        lines = out.splitlines()
        code, out, _ = run(capsys, argv[0], "--format", "json", *argv[1:])
        doc = json.loads(out)
        assert code == 0 and [doc["chain"][0], doc["chain"][-1]] == argv[-2:]
        # the text output says what the JSON says, step by step
        assert [row.split("\t")[0] for row in lines] == doc["chain"]
        for row, step in zip(lines, doc["steps"]):
            fields = dict(field.split("=") for field in row.split("\t")[1:])
            assert fields["kappa"] == ",".join(map(str, step["kappa_before"]))
            if step["nu"] is None:
                assert fields["witness"] == "family" and step["l"] is None
                continue
            transposed = {"yes": True, "no": False}[fields["transposed"]]
            assert (fields["nu"], int(fields["l"]), transposed) == (
                step["nu"], step["l"], step["transposed"]
            )
            w = InductionWitness(Bipartition.parse(step["nu"]), step["l"], step["transposed"])
            a, c = Bipartition.parse(step["from"]), Bipartition.parse(step["to"])
            assert witness_is_valid(w, a, c, doc["b"]), (argv, step)
            steps.append(w.transposed)
    assert (len(pins), len(steps), sum(steps)) == (96, 784, 497)


def counted_calls(monkeypatch, original, name: str, holders: set) -> list:
    """Count the calls of original in every bsymbols module that holds it as name.

    holders names modules that must be among them.
    """
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    found = [
        module
        for module, mod in list(sys.modules.items())
        if module.split(".")[0] == "bsymbols" and vars(mod).get(name) is original
    ]
    assert holders <= set(found)
    for module in found:
        monkeypatch.setattr(sys.modules[module], name, counted)
    return calls


def counted_kappa(monkeypatch) -> list:
    """Count the calls of kappa in every bsymbols module that holds it."""
    holders = {"bsymbols.symbols", "bsymbols.cli", "bsymbols.preorder"}
    return counted_calls(monkeypatch, symbols.kappa, "kappa", holders)


def warm_pinned_chains(capsys) -> tuple[list, list]:
    """The pinned chains and their parsed queries, after one in-process pass."""
    pins = json.loads(PINS.read_text())["pools"]["chain"]
    parser = cli.build_parser()
    queries = [parser.parse_args(pin["argv"]) for pin in pins]
    for ns in queries:
        ns.func(ns)
    capsys.readouterr()
    return pins, queries


def replay(capsys, pins, queries):
    for pin, ns in zip(pins, queries):
        assert ns.func(ns) == pin["rc"] == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"], pin["argv"]


def test_a_warm_pass_of_the_pinned_chains_computes_no_kappa(capsys, monkeypatch):
    # every element of a chain is a member of its rank's family table, so a
    # chain whose table, poset and witnesses are built reads every kappa
    pins, queries = warm_pinned_chains(capsys)
    calls = counted_kappa(monkeypatch)
    replay(capsys, pins, queries)
    assert (len(pins), len(calls)) == (96, 0)


def test_a_warm_pass_of_the_pinned_chains_renders_no_member_and_builds_no_witness(
    capsys, monkeypatch
):
    # each element's text is in its rank's text table and each cover's
    # witness, move and nu text in the cover memo
    from bsymbols import preorder

    pins, queries = warm_pinned_chains(capsys)
    texts, witnesses = [], []
    text, witness = Bipartition.text, preorder._witness
    monkeypatch.setattr(Bipartition, "text", lambda bp: texts.append(bp) or text(bp))
    monkeypatch.setattr(
        preorder, "_witness", lambda *args: witnesses.append(args) or witness(*args)
    )
    replay(capsys, pins, queries)
    assert (len(pins), len(texts), len(witnesses)) == (96, 0, 0)


def test_a_warm_pass_of_the_pinned_chains_parses_nothing_and_renders_only_each_last_kappa(
    capsys, monkeypatch
):
    # the endpoints are in the parse memo and each cover's step text, its
    # lower kappa's included, in the cover memo, so a warm text chain renders
    # only its last element's kappa and a warm JSON chain renders nothing;
    # no pinned chain stays inside one family, whose step would be rendered
    from bsymbols import partitions

    pins, queries = warm_pinned_chains(capsys)
    parser = cli.build_parser()
    as_json = [parser.parse_args([p["argv"][0], "--format", "json", *p["argv"][1:]]) for p in pins]
    docs = []
    for ns in as_json:
        assert ns.func(ns) == 0
        docs.append(capsys.readouterr().out)
    # each chain's last element, whose kappa it prints at N = n, the rank
    lasts = [(ns.b, Bipartition.parse(ns.bipartition2)) for ns in queries]
    last_kappas = [(symbols.kappa(c, b, c.rank).entries,) for b, c in lasts]
    parses = counted_calls(
        monkeypatch, partitions.parse_partition, "parse_partition", {"bsymbols.symbols"}
    )
    renders = counted_calls(
        monkeypatch, partitions.format_partition, "format_partition", {"bsymbols.cli"}
    )
    moves = []
    move_text = partitions.BoxMove.__str__
    monkeypatch.setattr(partitions.BoxMove, "__str__", lambda m: moves.append(m) or move_text(m))
    replay(capsys, pins, queries)
    assert (len(pins), len(parses), len(moves)) == (96, 0, 0)
    assert renders == last_kappas
    for ns, doc in zip(as_json, docs):
        assert ns.func(ns) == 0
        assert capsys.readouterr().out == doc
    assert (len(parses), len(renders), len(moves)) == (0, len(pins), 0)


def test_compare_computes_each_kappa_once(capsys, monkeypatch):
    # the order and both a-values are read off the two kappas at N = n
    calls = counted_kappa(monkeypatch)
    code, out, _ = run(capsys, "compare", "5,1|2,2,1", "3,3|2,2,1", "--b", "2")
    assert code == 0
    assert len(calls) == 2
    a, c = map(Bipartition.parse, ("5,1|2,2,1", "3,3|2,2,1"))
    assert out == (
        f"GEQ\na(5,1|2,2,1) = {symbols.a_value(a, 2)}\n"
        f"a(3,3|2,2,1) = {symbols.a_value(c, 2)}\n"
    )
