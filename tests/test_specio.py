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
documents = st.recursive(
    scalars | st.lists(st.integers(), max_size=6) | st.lists(texts, max_size=6),
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


class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    pass


@pytest.mark.parametrize(
    "doc",
    [
        [1, True, 2, False],
        [Level.LOW, 2],
        {"level": Level.LOW, "levels": [Level.LOW, Level.LOW]},
        [Tag("a"), "b"],
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
    [{1, 2}, {"a": [1, b"bytes"]}, [Fraction(1, 2)], {"k": {(1, 2): 3}}, {"a": 1, 2: "b"}],
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
    doc = report_to_dict(report, spec, oracle_ran=oracle)
    assert canonical_json(doc) == reference(doc)
    doc["dot"] = to_dot(control_graph(spec))
    if oracle:
        doc["closure_basis"] = [m.format_grid() for m in report.oracle.closure.basis]
    assert canonical_json(doc) == reference(doc)
    assert canonical_json(spec_to_dict(spec)) == reference(spec_to_dict(spec))
