import enum
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlperm.graphview import control_graph, to_dot
from ctrlperm.specio import canonical_json, report_to_dict, spec_to_dict
from ctrlperm.systems import SystemSpec, analyze


def reference(doc):
    """The definition of the canonical form."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


texts = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f é€😀'))
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    texts,
)


class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    pass


def _insert(items, extra, at):
    """``items`` with ``extra``, if given, inserted before item ``at`` (mod len + 1)."""
    items = list(items)
    if extra is not None:
        items.insert(at % (len(items) + 1), extra)
    return items


# Lists that reach the bulk string path: printable ASCII labels, at times
# with one item that needs an escape or is not a plain str.
ascii_texts = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\')
)
label_lists = st.builds(
    _insert,
    st.lists(ascii_texts, min_size=1, max_size=8),
    st.sampled_from(
        [None, None, None, '"', 'a"b', "\\", "c\\d", "\x1f", "\x7f", "\n", "é", "😀"]
        + [Tag("t"), Tag('"')]
    ),
    st.integers(min_value=0, max_value=8),
)


def _spoil(rows, defect, at):
    """``rows`` with one defect: an empty or a ragged row, or a cell that is not a plain int."""
    rows = list(rows)
    at %= len(rows)
    if defect == "empty":
        rows.insert(at, [])
    elif defect == "ragged":
        rows.insert(at, [*rows[at], 7])
    elif defect is not None:
        row = list(rows[at])
        row[at % len(row)] = defect
        rows[at] = row
    return rows


# Lists that reach the bulk row path: equal-length rows of ints, as lists
# and tuples, with big and negative values, at times with one defect.
row_cells = st.integers(min_value=-(2**70), max_value=2**70) | st.integers(
    min_value=2**64, max_value=2**200
)


def _int_rows(width):
    row = st.lists(row_cells, min_size=width, max_size=width)
    return st.lists(row | row.map(tuple), min_size=1, max_size=6)


row_lists = st.builds(
    _spoil,
    st.integers(min_value=1, max_value=3).flatmap(_int_rows),
    st.sampled_from([None, None, "empty", "ragged", True, False, Level.LOW]),
    st.integers(min_value=0, max_value=8),
)
documents = st.recursive(
    scalars
    | st.lists(st.integers(), max_size=6)
    | st.lists(texts, max_size=6)
    | label_lists
    | row_lists,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(texts, inner, max_size=6),
    ),
    max_leaves=15,
)


@settings(max_examples=150)
@given(documents)
def test_canonical_json_is_json_dumps(doc):
    assert canonical_json(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [1, True, 2, False],
        [Level.LOW, 2],
        {"level": Level.LOW, "levels": [Level.LOW, Level.LOW]},
        [Tag("a"), "b"],
        ['"', "a"],
        ["a", "b\\c"],
        ["x\x1f", "y"],
        ["\x7f"],
        ["é", "a"],
        [Tag('"'), "a"],
        ["rot(1,2)", "rot(1,10)", "", " "],
        # str subclasses take the joined path, written as their text
        [Tag("c"), Tag("d")],
        (Tag("x"), "y"),
        [Tag("é"), Tag("\n"), "z"],
        # a failed join sends a list to the item-by-item path
        ["a", 1],
        ["a", True],
        ["a", None],
        ["a", [1, 2]],
        ("a", "b"),
        # items that need an escape or are not ASCII
        ["tab\t", "quote\"", "nul\x00"],
        ("\\", "/"),
        ["ü", "€", "😀"],
        ["a", "\u2028"],
        [[1, 2], [True, 3]],
        [(1, 2), [3, Level.LOW]],
        [[1, 2], []],
        [[1, 2], [3]],
        [[-1, 2**70], (2**65, -(2**64))],
        ([0], (7,), [-3]),
        {Tag("k"): [Tag("v")]},
        {"x": 1.5, "y": [float("nan"), float("inf"), -0.0, 1e300]},
        {"ints": {3: [1], 1: {"a": [2.5, {}]}}, "z": [[], {}, ()]},
        {"bools": {True: 1, False: [2]}, "none": {None: [[]]}},
        0.1,
        "",
        [],
    ],
    ids=repr,
)
def test_canonical_json_edge_cases(doc):
    assert canonical_json(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {1, 2},
        {"a": [1, b"bytes"]},
        [Fraction(1, 2)],
        {"k": {(1, 2): 3}},
        {"a": 1, 2: "b"},
        ["a", b"x"],
        ("a", "b", {1, 2}),
    ],
    ids=repr,
)
def test_canonical_json_rejects_what_json_dumps_rejects(doc):
    with pytest.raises(TypeError) as expected:
        reference(doc)
    with pytest.raises(TypeError) as raised:
        canonical_json(doc)
    assert str(raised.value) == str(expected.value)


REPORT_SPECS = [
    SystemSpec("so_n", 6, frozenset([(1, 2), (2, 3), (4, 5)])),
    SystemSpec("so_n", 4, frozenset([(1, 2), (2, 3), (3, 4)])),
    SystemSpec("sphere", 5, frozenset([(1, 2), (3, 4)]), drift=(2, 3)),
    SystemSpec("multi_agent", 5, frozenset([(1, 2), (3, 4)]), drift=(4, 5)),
    SystemSpec("multi_agent", 4, frozenset([(1, 2), (2, 3)]), agent_space_dim=3),
    SystemSpec(
        "markov", 5, frozenset([(1, 2), (4, 5)]),
        initial_distribution=tuple(Fraction(1, 5) for _ in range(5)),
    ),
    SystemSpec(
        "markov", 4, frozenset([(1, 2)]), drift=(2, 3),
        initial_distribution=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(0)),
    ),
    SystemSpec("markov", 3, frozenset()),
]


@pytest.mark.parametrize("spec", REPORT_SPECS, ids=lambda spec: f"{spec.family}-{spec.n}")
@pytest.mark.parametrize("oracle", [False, True], ids=["plain", "oracle"])
def test_canonical_json_of_real_reports(spec, oracle):
    report = analyze(spec, with_oracle=oracle)
    doc = report_to_dict(report)
    assert canonical_json(doc) == reference(doc)
    doc["dot"] = to_dot(control_graph(spec))
    if oracle:
        doc["closure_basis"] = [m.format_grid() for m in report.oracle.closure.basis]
    assert canonical_json(doc) == reference(doc)
    assert canonical_json(spec_to_dict(spec)) == reference(spec_to_dict(spec))
