import sys

import bsymbols
from bsymbols.adjacency import _poset
from bsymbols.families import _texts, family_table
from bsymbols.partitions import partitions_of
from bsymbols.preorder import _cover_witness, _oracle_rows, preceq_oracle
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
    hi, lo = (f.kappa.entries for f in family_table(3, 1).families[:2])  # a cover
    witness = _cover_witness(lo, hi, 1)
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
    assert _cover_witness(lo, hi, 1) == witness
    reparsed = Bipartition.parse("3,2|1")
    assert reparsed == parsed and reparsed is not parsed
