import hashlib
import json
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlperm.graphview import control_graph, to_dot
from ctrlperm import systems
from ctrlperm._textreport import _text_report
from ctrlperm.specio import (
    _report_text,
    _spec_text,
    canonical_json,
    report_to_dict,
    spec_digest,
    spec_to_dict,
)
from ctrlperm.monoid import OrbitPartition
from ctrlperm.systems import FAMILIES, SystemSpec, analyze, oracle_check
from helpers import reference_report_dict, reference_spec_dict, reference_text


def test_canonical_json_pins_its_definition():
    # keys sorted at every level, a two-space indent, non-ASCII text
    # escaped, and a final newline
    doc = {"z": [1, {"b": "é", "a": None}], "a": {"y": True, "x": "rot(1,2)"}}
    assert canonical_json(doc) == (
        "{\n"
        '  "a": {\n'
        '    "x": "rot(1,2)",\n'
        '    "y": true\n'
        "  },\n"
        '  "z": [\n'
        "    1,\n"
        "    {\n"
        '      "a": null,\n'
        '      "b": "\\u00e9"\n'
        "    }\n"
        "  ]\n"
        "}\n"
    )


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
    # a value with no canonical JSON form is refused, never stringified
    with pytest.raises(TypeError):
        canonical_json(doc)


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


# ------------------------------------------------ the CLI's one-pass writers


def _written_both_ways(report, **extras):
    """The writer's text of ``report``, asserted equal to the reference dict's.

    The public dict form, the writer's text parsed back, must equal the
    reference too, and the ``--text`` report, with the same extras, the
    reference one.
    """
    reference = reference_report_dict(report)
    text = _report_text(report, **extras)
    assert text == canonical_json({**reference, **extras}), extras
    assert report_to_dict(report) == reference
    assert _text_report(report, **extras) == reference_text(report, **extras)
    return text


def _random_spec(rng, family):
    """A spec of ``family`` on at most 7 letters, within both oracle guards."""
    n = rng.randint(2, 7)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    drift = rng.choice([None, rng.choice(pairs)])
    low = 0 if family == "markov" or drift is not None else 1
    controls = frozenset(rng.sample(pairs, rng.randint(low, min(len(pairs), n))))
    optional = {}
    if family == "multi_agent" and rng.random() < 0.5:
        optional["agent_space_dim"] = rng.randint(1, 4)
    if family == "markov" and rng.random() < 0.7:
        weights = [rng.randint(0, 3) for _ in range(n)]
        weights[rng.randrange(n)] += 1
        optional["initial_distribution"] = tuple(Fraction(w, sum(weights)) for w in weights)
    return SystemSpec(family, n, controls, drift=drift, **optional)


@pytest.mark.parametrize("family", FAMILIES)
def test_report_text_is_the_canonical_report_dict(family):
    rng = random.Random(f"report-text-{family}")
    seen = set()
    for _ in range(16):
        spec = _random_spec(rng, family)
        seen.add((spec.drift is not None, spec.agent_space_dim, spec.initial_distribution))
        dot = to_dot(control_graph(spec))
        for oracle in (False, True):
            report = analyze(spec, with_oracle=oracle)
            closure = (report.oracle or oracle_check(spec, report.method_class)).closure
            basis = [m.format_grid() for m in closure.basis]
            _written_both_ways(report)
            _written_both_ways(report, dot=dot)
            _written_both_ways(report, closure_basis=basis)
            text = _written_both_ways(report, dot=dot, closure_basis=basis)
            doc = json.loads(text)
            assert doc["provenance"]["spec_digest"] == spec_digest(spec)
            assert doc["provenance"]["oracle_ran"] is oracle
    # the draws cover a drift pair and none, and each family's optional field
    assert {drift for drift, _, _ in seen} == {False, True}
    if family == "multi_agent":
        assert len({dim for _, dim, _ in seen}) > 1
    if family == "markov":
        assert {dist is None for _, _, dist in seen} == {False, True}


def test_report_text_of_markov_frozen_states():
    spec = SystemSpec(
        "markov", 5, frozenset([(1, 2)]),
        initial_distribution=(Fraction(1, 3), Fraction(1, 6), Fraction(0), Fraction(1, 2), Fraction(0)),
    )
    for oracle in (False, True):
        doc = json.loads(_written_both_ways(analyze(spec, with_oracle=oracle)))
        assert doc["submanifold"]["frozen_states"] == [
            {"state": 3, "value": "0"}, {"state": 4, "value": "1/2"}, {"state": 5, "value": "0"},
        ]
        assert doc["submanifold"]["conserved_sums"] == [{"orbit": [1, 2], "value": "1/2"}]


def _rebuilt(report, components=None, total_dim=None, **fields):
    """``report`` with the given fields, its submanifold's components or total_dim replaced."""
    sub = report.submanifold
    sub = systems.SubmanifoldDescription(
        sub.components if components is None else components,
        sub.total_dim if total_dim is None else total_dim,
        sub.state_space, sub.conserved_sums, sub.frozen_states,
    )
    values = {name: getattr(report, name) for name in systems.ControllabilityReport._slots}
    return systems.ControllabilityReport(**{**values, "submanifold": sub, **fields})


def test_report_text_of_hand_built_reports():
    report = analyze(SystemSpec("so_n", 3, frozenset([(1, 2)])), with_oracle=True)
    # a component built from its tuple is written as the one from the builder
    built = _rebuilt(report, (systems.SubmanifoldComponent((1, 2), ("rot(1,2)",), 1),))
    assert "  {1,2}  dim 1  rot(1,2)\n" in _text_report(built)
    assert _written_both_ways(built) == _written_both_ways(report)
    # labels given by hand may need an escape
    labels = ('a"b', "c\\d", "é", "ctl\x01", "")
    odd = _rebuilt(report, (systems.SubmanifoldComponent((1, 2), labels, None),))
    text = _written_both_ways(odd, dot="graph G {\n}\n", closure_basis=['[["0", "1"]]'])
    assert text.isascii()
    assert json.loads(text)["submanifold"]["components"][0]["generators"] == list(labels)
    # a label that is not a string has no JSON text; both writers refuse it
    for bad in (3, None, b"rot"):
        mixed = _rebuilt(report, (systems.SubmanifoldComponent((1, 2), ("rot(1,2)", bad), 1),))
        for writer in (_report_text, report_to_dict):
            with pytest.raises(TypeError):
                writer(mixed)
    # nor has a count that is not an exact int or None, a bool included, in
    # either layout
    oracle = report.oracle
    for bad in ("one", True, False, 1.0, Fraction(1)):
        component = systems.SubmanifoldComponent((1, 2), ("rot(1,2)",), bad)
        odd_oracle = systems.OracleResult(bad, oracle.controllable, oracle.orbits, oracle.agrees, None)
        for field, odd in (
            ("a component dim", _rebuilt(report, (component,))),
            ("total_dim", _rebuilt(report, total_dim=bad)),
            ("the oracle dim", _rebuilt(report, oracle=odd_oracle)),
        ):
            message = re.escape(f"{field} must be an int or None, got {bad!r}")
            for writer in (_report_text, report_to_dict, _text_report):
                with pytest.raises(TypeError, match=f"^{message}$"):
                    writer(odd)
    assert json.loads(_written_both_ways(_rebuilt(report, (
        systems.SubmanifoldComponent((1, 2), (), 1),
    ))))["submanifold"]["components"][0]["generators"] == []
    # no components
    assert json.loads(_written_both_ways(_rebuilt(report, ())))["submanifold"]["components"] == []
    # a markov chain with every rate frozen has no pairs, no orbits and no components
    frozen = SystemSpec("markov", 3, frozenset(), initial_distribution=(1, 0, 0))
    for oracle in (False, True):
        doc = json.loads(_written_both_ways(analyze(frozen, with_oracle=oracle)))
        assert doc["controls"] == doc["orbits"] == doc["submanifold"]["components"] == []
        assert doc["method_class"] == "{}"


def test_hand_built_reports_write_their_own_letters():
    # the writers write each orbit's letters once and reuse the text; a report
    # whose parts do not share the report's orbits must still write its own
    report = analyze(SystemSpec("so_n", 7, frozenset([(1, 2), (2, 3), (5, 6)])), with_oracle=True)
    assert report.orbits == ((1, 2, 3), (5, 6)) and report.fixed_points == (4, 7)
    other = analyze(SystemSpec("so_n", 7, frozenset([(1, 4), (6, 7), (5, 6)])))
    own = report.submanifold.components
    given = tuple(
        systems.SubmanifoldComponent(c.orbit, c.generators, c.dim) for c in other.submanifold.components
    )
    cases = {
        # components of another spec's orbits, each with its label builder
        "other components": _rebuilt(report, other.submanifold.components),
        "other components from tuples": _rebuilt(report, given),
        # the report's own components, each at another orbit's index, or one more
        "reordered": _rebuilt(report, own[::-1]),
        "one more": _rebuilt(report, own + other.submanifold.components[:1]),
        # an orbit equal to the report's, but a list
        "list orbit": _rebuilt(report, (systems.SubmanifoldComponent([1, 2, 3], own[0].generators, 3),)),
        # a method class with other orbits, or equal orbits that are another tuple
        "other class": _rebuilt(report, method_class=other.method_class),
        "equal class": _rebuilt(report, method_class=OrbitPartition(7, report.orbits)),
        # orbits of another spec, shared with the method class: letters of the
        # control pairs that no orbit holds
        "other orbits": _rebuilt(report, method_class=other.method_class, orbits=other.orbits),
        # no orbits at all, in the class and the report
        "no orbits": _rebuilt(
            report, method_class=OrbitPartition(7, ()), orbits=OrbitPartition(7, ()).orbits
        ),
        "fixed points": _rebuilt(report, fixed_points=(1, 4, 10**30)),
    }
    for name, case in cases.items():
        doc = json.loads(_written_both_ways(case))
        assert doc["method_class"] == str(case.method_class), name
    doc = json.loads(_written_both_ways(cases["no orbits"]))
    assert doc["method_class"] == "{}" and doc["orbits"] == []
    assert doc["controls"] == [[1, 2], [2, 3], [5, 6]]
    assert [c["orbit"] for c in json.loads(_written_both_ways(cases["reordered"]))[
        "submanifold"]["components"]] == [[5, 6], [1, 2, 3]]


def test_writers_build_nothing_sized_by_n():
    # n up to sys.maxsize - 1 is a valid spec: a table over the letters 1..n
    # could not be built, so a hand-built report on 2**62 letters is written
    # at once (analyze itself still lists the fixed points)
    spec = SystemSpec("so_n", 2**62, frozenset([(1, 2)]))
    partition = OrbitPartition(spec.n, [(1, 2)])
    fixed = (3, 4, 2**62)
    report = systems.ControllabilityReport(
        spec, False, partition, partition.orbits, fixed, False, None,
        systems._submanifold(spec, partition.orbits, fixed, None),
    )
    start = time.perf_counter()
    doc = json.loads(_written_both_ways(report))
    assert time.perf_counter() - start < 1.0
    assert doc["n"] == 2**62 and doc["method_class"] == "{1,2}"
    assert doc["submanifold"]["components"] == [{"dim": 1, "generators": ["rot(1,2)"], "orbit": [1, 2]}]


@st.composite
def specs(draw):
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(min_value=2, max_value=40) | st.integers(min_value=2, max_value=2**62))
    letters = st.integers(min_value=1, max_value=n)
    pair = st.tuples(letters, letters).filter(lambda p: p[0] != p[1]).map(sorted).map(tuple)
    drift = draw(st.none() | pair)
    low = 0 if family == "markov" or drift is not None else 1
    controls = frozenset(draw(st.lists(pair, min_size=low, max_size=12)))
    optional = {}
    if family == "multi_agent" and draw(st.booleans()):
        optional["agent_space_dim"] = draw(st.integers(min_value=1, max_value=10**20))
    if family == "markov" and n <= 40 and draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 10**12), min_size=n, max_size=n))
        weights[0] += 1
        optional["initial_distribution"] = tuple(Fraction(w, sum(weights)) for w in weights)
    return SystemSpec(family, n, controls, drift=drift, **optional)


@settings(max_examples=200)
@given(specs())
def test_spec_text_is_the_canonical_spec_dict(spec):
    doc = reference_spec_dict(spec)
    text = canonical_json(doc)
    assert _spec_text(spec) == text
    assert spec_to_dict(spec) == doc
    assert spec_digest(spec) == hashlib.sha256(text.encode()).hexdigest()
