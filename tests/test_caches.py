import subprocess
import sys
from pathlib import Path

import bsymbols
from bsymbols.adjacency import _poset
from bsymbols.cli import _cover_witness
from bsymbols.families import _texts, family_table
from bsymbols.partitions import partitions_of
from bsymbols.preorder import _oracle_rows, preceq_oracle
from bsymbols.symbols import Bipartition, _parsed
from bsymbols.typea import _typea_rows, preceq_typeA_oracle

CACHES = (
    family_table,
    _poset,
    _oracle_rows,
    _cover_witness,
    _typea_rows,
    _texts,
    partitions_of,
    _parsed,
)


def test_the_listed_caches_are_every_cache_of_the_package():
    assert len(CACHES) == 8
    found = {
        id(value)
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "bsymbols"
        for value in vars(mod).values()
        if callable(getattr(value, "cache_clear", None))
    }
    assert found == {id(c) for c in CACHES}


def test_clear_caches_empties_every_cache():
    table = family_table(5, 2)
    poset = _poset(5, 2)
    oracle = preceq_oracle(4, 1)
    typea = preceq_typeA_oracle(4)
    texts = _texts(5)
    witness = _cover_witness(3, 1, 1, 0)  # the second-largest kappa is covered by the largest
    parsed = Bipartition.parse("3,2|1")
    assert all(c.cache_info().currsize > 0 for c in CACHES)
    bsymbols.clear_caches()
    assert [c.cache_info().currsize for c in CACHES] == [0] * len(CACHES)
    again = family_table(5, 2)
    assert again == table and again is not table
    assert _poset(5, 2) == poset
    assert preceq_oracle(4, 1).rows == oracle.rows
    assert preceq_typeA_oracle(4).rows == typea.rows
    assert _texts(5) == texts
    assert _cover_witness(3, 1, 1, 0) == witness
    reparsed = Bipartition.parse("3,2|1")
    assert reparsed == parsed and reparsed is not parsed


def test_the_line_counter_counts_every_cache():
    # tests/code_lines.py prints the figures the roadmap tracks for
    # src/bsymbols/; its lru_cache count is the caches listed here
    script = Path(__file__).resolve().parent / "code_lines.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, check=True)
    counts = dict(line.rsplit(": ", 1) for line in out.stdout.splitlines())
    assert list(counts) == ["lines", "code lines", "lru_caches"]
    assert 0 < int(counts["code lines"]) < int(counts["lines"])
    assert int(counts["lru_caches"]) == len(CACHES)
