"""Every input check of the library raises its exception with its message."""

import pytest

from bsymbols.adjacency import frame
from bsymbols.errors import NotAdjacent, NotAPartition, NotComparable, SizeMismatch
from bsymbols.families import _texts, enumerate_bipartitions, family_table
from bsymbols.partitions import (
    as_partition,
    break_points,
    gap,
    overlap_count,
    padded,
    parse_partition,
    partitions_of,
)
from bsymbols.preorder import induction_targets, preceq_oracle, truncated_targets
from bsymbols.symbols import (
    EMPTY,
    Bipartition,
    Kappa,
    bipartition,
    from_sympartition,
    is_sympartition,
)
from bsymbols.typea import (
    adjacent_single_box,
    pieri_targets,
    preceq_typeA_oracle,
    truncated_pieri_targets,
)

INPUT_CHECKS = {
    "frame-parameters": (
        lambda: frame(Kappa((1, 0), 0, 1), Kappa((1, 0, 0), 1, 1)),
        NotComparable,
        "different parameters: (0,1) vs (1,1)",
    ),
    "frame-size": (
        lambda: frame(Kappa((2, 0), 0, 1), Kappa((1, 0), 0, 1)),
        SizeMismatch,
        "|(2, 0)| != |(1, 0)|",
    ),
    "enumerate_bipartitions": (
        lambda: enumerate_bipartitions(-1),
        ValueError,
        "n must be >= 0",
    ),
    "_texts": (lambda: _texts(-1), ValueError, "n must be >= 0"),
    "family_table": (lambda: family_table(1, -1), ValueError, "weight b must be >= 0"),
    "padded": (lambda: padded((1, 1, 1), 2), ValueError, "(1, 1, 1) is longer than 2"),
    "overlap_count": (lambda: overlap_count((1,), 0), ValueError, "run length must be >= 1"),
    "gap": (lambda: gap((1,), -1), ValueError, "gap index must be >= 0"),
    "break_points": (
        lambda: break_points((1,), 0, 1),
        ValueError,
        "break point range is 1-based",
    ),
    "partitions_of": (lambda: partitions_of(-1), ValueError, "n must be >= 0"),
    "parse_partition": (
        lambda: parse_partition("x"),
        NotAPartition,
        "cannot parse partition 'x'",
    ),
    # only ASCII digits: no underscore, sign, inner blank or other script's digit
    "parse_partition-underscore": (
        lambda: parse_partition("1_0"),
        NotAPartition,
        "cannot parse partition '1_0'",
    ),
    "parse_partition-arabic-indic": (
        lambda: parse_partition("\u0663"),
        NotAPartition,
        "cannot parse partition '\u0663'",
    ),
    "parse_partition-fullwidth": (
        lambda: parse_partition("\uff11"),
        NotAPartition,
        "cannot parse partition '\uff11'",
    ),
    "parse_partition-plus": (
        lambda: parse_partition("+1"),
        NotAPartition,
        "cannot parse partition '+1'",
    ),
    "parse_partition-inner-blank": (
        lambda: parse_partition("1, 1"),
        NotAPartition,
        "cannot parse partition '1, 1'",
    ),
    "as_partition-float": (
        lambda: as_partition([2.5, 1]),
        NotAPartition,
        "non-integer part in [2.5, 1]",
    ),
    "as_partition-str": (
        lambda: as_partition("321"),
        NotAPartition,
        "non-integer part in '321'",
    ),
    "bipartition-float": (
        lambda: bipartition((2.0,), (1,)),
        NotAPartition,
        "non-integer part in (2.0,)",
    ),
    "is_sympartition-str": (
        lambda: is_sympartition("110", 1, 1, 1),
        NotAPartition,
        "non-integer part in '110'",
    ),
    "from_sympartition-float": (
        lambda: from_sympartition((1, 1.0, 0), 1, 1, 1),
        NotAPartition,
        "non-integer part in (1, 1.0, 0)",
    ),
    "Bipartition.parse": (
        lambda: Bipartition.parse("1"),
        NotAPartition,
        "expected '<first>|<second>', got '1'",
    ),
    "induction_targets-b": (
        lambda: induction_targets(EMPTY, 1, -1),
        ValueError,
        "weight b must be >= 0",
    ),
    "truncated_targets-l": (
        lambda: truncated_targets(EMPTY, 0, 0),
        ValueError,
        "l must be >= 1",
    ),
    "truncated_targets-b": (
        lambda: truncated_targets(EMPTY, 1, -1),
        ValueError,
        "weight b must be >= 0",
    ),
    "preceq_oracle": (lambda: preceq_oracle(-1, 0), ValueError, "n and b must be >= 0"),
    "pieri_targets": (lambda: pieri_targets((1,), 0), ValueError, "l must be >= 1"),
    "truncated_pieri_targets": (
        lambda: truncated_pieri_targets((1,), 0),
        ValueError,
        "l must be >= 1",
    ),
    "preceq_typeA_oracle": (lambda: preceq_typeA_oracle(-1), ValueError, "n must be >= 0"),
    "adjacent_single_box-size": (
        lambda: adjacent_single_box((2,), (1,)),
        SizeMismatch,
        "|(2,)| != |(1,)|",
    ),
    "adjacent_single_box-not-below": (
        lambda: adjacent_single_box((2,), (1, 1)),
        NotAdjacent,
        "(2,) is not strictly dominated by (1, 1)",
    ),
}


@pytest.mark.parametrize("call, error, message", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_input_check_raises_its_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
