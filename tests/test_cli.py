import bisect
import contextlib
import copy
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctrlperm
from ctrlperm import _commands, cli, specio, systems
from ctrlperm.cli import main
from ctrlperm.graphview import control_graph, to_dot
from ctrlperm.permutation import check_pair
from ctrlperm.specio import (
    SpecFormatError,
    canonical_json,
    parse_probe,
    parse_spec,
    spec_digest,
    spec_to_dict,
)
from ctrlperm.systems import FAMILIES, SystemSpec, analyze, oracle_check, probe_nonstandard
from helpers import (
    reference_grid,
    reference_parser,
    reference_read,
    reference_report_dict,
    reference_spec_dict,
    reference_text,
    sample_pairs,
)
from test_specio import REPORT_SPECS, _random_spec

CHAIN5 = '{"family": "so_n", "n": 5, "controls": [[1,2],[2,3],[3,4],[4,5]]}'
SPLIT5 = '{"family": "so_n", "n": 5, "controls": [[1,2],[2,3],[4,5]]}'
FROZEN3 = '{"family": "markov", "n": 3, "controls": []}'
PROBE4 = json.dumps(
    {
        "n": 4,
        "generators": [
            [["0", "1", "0", "0"], ["-1", "0", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "-1", "0"]],
            [["0", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "-1", "0", "0"], ["0", "0", "0", "0"]],
        ],
    }
)


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


# ------------------------------------------------------------ spec io


def test_parse_spec_round_trip():
    spec = parse_spec(CHAIN5)
    assert spec == SystemSpec("so_n", 5, frozenset([(1, 2), (2, 3), (3, 4), (4, 5)]))
    assert parse_spec(canonical_json(spec_to_dict(spec))) == spec


def test_parse_spec_rejects_bad_documents():
    with pytest.raises(SpecFormatError):
        parse_spec("not json")
    with pytest.raises(SpecFormatError):
        parse_spec('{"family": "so_n", "n": 5}')
    with pytest.raises(SpecFormatError):
        parse_spec('{"family": "so_n", "n": 5, "controls": [[0, 1]]}')
    with pytest.raises(SpecFormatError):
        parse_spec('{"family": "so_n", "n": 5, "controls": [[1, 2]], "extra": 1}')
    with pytest.raises(SpecFormatError):
        parse_spec('{"family": "sixfold", "n": 5, "controls": [[1, 2]]}')
    # floats would silently lose exactness
    with pytest.raises(SpecFormatError):
        parse_spec(
            '{"family": "markov", "n": 2, "controls": [[1, 2]],'
            ' "initial_distribution": [0.5, 0.5]}'
        )


@pytest.mark.parametrize(
    "pair",
    ["[1, true]", "[false, 2]", "[1.0, 2]", '["1", 2]', "[1]", "[1, 2, 3]", "[[1], [2]]"]
    + ['"12"', "{}", "[null, 2]"],
)
def test_parse_spec_needs_pairs_of_integers(pair):
    head = '{"family": "so_n", "n": 5, "controls": [[1, 2]'
    for text in (f"{head}, {pair}]}}", f'{head}], "drift": {pair}}}'):
        with pytest.raises(SpecFormatError, match="must be a pair of integers"):
            parse_spec(text)


# malformed control lists; where several pairs are bad, the message names one
_MALFORMED_CONTROLS = [
    [[1, 2], [True, 3]],
    [[1, 2], [2, 3.0]],
    [[1, 2], [3]],
    [[1, 2], [3, 4, 5]],
    [[1, 2], [3], [3, 4, 5]],
    [[1, 2], [[3], [4]]],
    [[1, 2], [4, 3]],
    [[3, 3]],
    [[1, 2], [0, 3]],
    [[1, 2], [4, 6]],
    [[1, 2], [2, 5], [4, 9], [0, 1], [5, 4]],
    [[1, 2], 7],
    [[1, 2], "34"],
    [[1, 2], {"3": 4, "4": 5}],
    [[1, 2], None],
    [[1.0, 2.0]],
    [[True, False]],
]


@pytest.mark.parametrize("controls", _MALFORMED_CONTROLS, ids=json.dumps)
def test_parse_spec_raises_what_the_per_pair_checks_raise(controls):
    # the JSON types of each pair, in document order, then the range of each
    # pair of the set that SystemSpec receives, in its order
    try:
        pairs = [specio._as_pair(p, "control pair") for p in controls]
        frozenset(check_pair(p, 5) for p in frozenset(pairs))
    except ValueError as exc:
        expected = str(exc)
    text = json.dumps({"family": "so_n", "n": 5, "controls": controls})
    with pytest.raises(SpecFormatError) as raised:
        parse_spec(text)
    assert str(raised.value) == expected


def test_parse_spec_routes_probe_documents_away():
    with pytest.raises(SpecFormatError, match="probe subcommand"):
        parse_spec(PROBE4)


def test_spec_digest_ignores_formatting():
    a = parse_spec(CHAIN5)
    b = parse_spec('{"n": 5, "controls": [[4,5],[3,4],[2,3],[1,2]], "family": "so_n"}')
    assert spec_digest(a) == spec_digest(b)


def test_parse_probe():
    n, gens = parse_probe(PROBE4)
    assert n == 4 and len(gens) == 2
    with pytest.raises(SpecFormatError):
        parse_probe('{"n": 4}')
    with pytest.raises(SpecFormatError):
        parse_probe('{"n": 2, "generators": [[["0"]]]}')
    # n below 1 is refused before any grid is read
    for n in (0, -2):
        with pytest.raises(SpecFormatError) as err:
            parse_probe('{"n": %d, "generators": [[]]}' % n)
        assert str(err.value) == f"probe n must be at least 1, got {n}"


def test_parse_probe_entry_types():
    n, (g,) = parse_probe('{"n": 2, "generators": [[[0, 1], ["-1", "1/2"]]]}')
    assert g.rows == ((0, 1), (-1, Fraction(1, 2)))
    assert [type(x) for row in g.rows for x in row] == [int, int, int, Fraction]
    for bad in ("true", "1.0", "null", "[1]"):
        with pytest.raises(SpecFormatError) as err:
            parse_probe('{"n": 1, "generators": [[[%s]]]}' % bad)
        assert str(err.value) == (
            "generator 0 entry must be an integer or a rational string, got "
            + repr(json.loads(bad))
        )
    with pytest.raises(SpecFormatError, match="is not a rational: '1/0'"):
        parse_probe('{"n": 1, "generators": [[["1/0"]]]}')


@pytest.mark.parametrize("entry", ["0e5000", "1e-5000", "1E+4301", "2e1_0000"])
def test_rational_exponents_beyond_the_bound_are_refused(entry, write, capsys):
    # Fraction would compute 10**exponent first: "0e10000000" took 10 s to
    # read as 0; the bound is checked before Fraction sees the string
    message = f"entry has an exponent beyond 4300: {entry!r}"
    spec = {"family": "markov", "n": 2, "controls": [[1, 2]], "initial_distribution": [entry, "1"]}
    with pytest.raises(SpecFormatError, match=re.escape("initial_distribution " + message)):
        parse_spec(json.dumps(spec))
    probe = {"n": 2, "generators": [[["0", "1"], ["-1", entry]]]}
    with pytest.raises(SpecFormatError, match=re.escape("generator 0 " + message)):
        parse_probe(json.dumps(probe))
    assert main(["analyze", "--text", write("m.json", json.dumps(spec))]) == 2
    assert main(["probe", write("p.json", json.dumps(probe))]) == 2
    assert capsys.readouterr().err.count(message) == 2


def test_rational_exponents_within_the_bound_are_read():
    n, (g,) = parse_probe('{"n": 2, "generators": [[["1/5", "0.25"], ["3e2", "-1e-4300"]]]}')
    assert g.rows == ((Fraction(1, 5), Fraction(1, 4)), (300, Fraction(-1, 10**4300)))


@pytest.mark.parametrize(
    "dist, message",
    [
        # the sum's denominator, (10**4299 + 1)(10**4299 + 3), has 8599 digits
        ([f"1/{10**4299 + 1}", f"1/{10**4299 + 3}"], "initial_distribution must sum to 1"),
        # sums to 1, but 10**4300 has 4301 digits, one more than str writes: the
        # JSON report, which writes the entries back, once failed where --text passed
        (
            ["1e-4300", "9" * 4300 + "e-4300"],
            "initial_distribution entry 0 has more digits than can be written",
        ),
    ],
    ids=["unwritable sum", "unwritable entry"],
)
def test_distributions_the_report_cannot_write_are_refused(dist, message, write, capsys):
    spec = {"family": "markov", "n": 2, "controls": [[1, 2]], "initial_distribution": dist}
    path = write("m.json", json.dumps(spec))
    for fmt in ([], ["--text"]):
        assert main(["analyze", path, *fmt]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_letter_counts_no_list_can_hold_are_refused(write, capsys):
    path = write("n.json", json.dumps({"family": "so_n", "n": 10**30, "controls": [[1, 2]]}))
    for flags in ([], ["--text"], ["--dot"]):
        assert main(["analyze", path, *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: n is larger than ") and err.count("\n") == 1


# 10**4299 + 1 and + 3: each entry below is within Python's 4300-digit limit,
# and they sum to 1, but the sum over orbit {1,2} has an 8599-digit denominator
Q3, Q4 = 10**4299 + 1, 10**4299 + 3
UNWRITABLE_SUMS = json.dumps(
    {
        "family": "markov",
        "n": 4,
        "controls": [[1, 2], [3, 4]],
        "initial_distribution": [f"1/{Q3}", f"1/{Q4}"]
        + [str(Fraction(1, 2) - Fraction(1, q)) for q in (Q3, Q4)],
    }
)


def test_conserved_sums_the_report_cannot_write_are_refused(write, capsys):
    path = write("m.json", UNWRITABLE_SUMS)
    message = "error: the conserved sum of orbit {1,2} has more digits than can be written\n"
    for fmt in ([], ["--text"], ["--dot"], ["--text", "--dot"]):
        assert main(["analyze", path, *fmt]) == 2
        assert capsys.readouterr() == ("", message)
    # the library still answers: only the writers refuse
    assert not analyze(parse_spec(UNWRITABLE_SUMS)).controllable


@pytest.mark.parametrize("kind", ["spec", "probe"])
def test_integer_literals_too_long_to_read_are_refused(kind, write, capsys):
    # json.loads raises a plain ValueError past Python's 4300-digit limit
    huge = "9" * 5000
    if kind == "spec":
        text, parse = '{"family": "so_n", "n": 3, "controls": [[1, %s]]}' % huge, parse_spec
    else:
        text, parse = '{"n": 2, "generators": [[[0, %s], [0, 0]]]}' % huge, parse_probe
    with pytest.raises(SpecFormatError, match=f"^{kind} document holds a number that cannot"):
        parse(text)
    assert main(["analyze" if kind == "spec" else "probe", write("h.json", text)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {kind} document ") and "Traceback" not in err


def _path_spec(family, n):
    """A path over n letters: one orbit, whose report lists every label of n letters."""
    doc = {"family": family, "n": n, "controls": [[i, i + 1] for i in range(1, n)]}
    if family == "markov":
        doc["initial_distribution"] = ["1"] + ["0"] * (n - 1)
    return doc


def _refuse_labels(monkeypatch):
    """Make every label builder fail if it is called."""

    def refused(*args):
        raise AssertionError("a generator label was built")

    monkeypatch.setattr(systems, "_pair_rows", refused)
    for kind, row in systems._REPORTS.items():
        monkeypatch.setitem(systems._REPORTS, kind, (refused, *row[1:]))


def test_reports_past_the_label_cap_are_refused_before_any_label(write, capsys, monkeypatch):
    # about 10 KB of spec, whose report would list C(1000,2) + C(1000,3) labels
    path = write("agents.json", json.dumps(_path_spec("multi_agent", 1000)))
    _refuse_labels(monkeypatch)
    message = (
        "error: the report would list 166666500 generator labels, more than the cap of 10000000\n"
    )
    for flags in ([], ["--text"], ["--dot"], ["--text", "--dot"]):
        assert main(["analyze", path, *flags]) == 2
        assert capsys.readouterr() == ("", message)
    # the library still answers: only the writers refuse
    report = analyze(parse_spec(Path(path).read_text()))
    assert report.controllable and systems._label_count(report) == 166666500


@pytest.mark.parametrize(
    ("family", "labels"),
    [("so_n", 1 + 6), ("sphere", 1 + 6), ("multi_agent", 1 + 6 + 4), ("markov", 1 + 6 + 4)],
)
def test_label_cap_counts_every_orbit(family, labels, write, capsys, monkeypatch):
    # orbits of 2 and 4 letters: C(2,2) + C(4,2) pair labels, and an agent
    # family's C(4,3) triple labels
    doc = {"family": family, "n": 7, "controls": [[1, 2], [3, 4], [4, 5], [5, 6]]}
    path = write("two.json", json.dumps(doc))
    assert systems._label_count(analyze(parse_spec(json.dumps(doc)))) == labels
    monkeypatch.setattr(cli, "REPORT_MAX_LABELS", labels)
    assert main(["analyze", path]) == 1
    assert json.loads(capsys.readouterr().out)["submanifold"]["components"][1]["generators"]
    monkeypatch.setattr(cli, "REPORT_MAX_LABELS", labels - 1)
    _refuse_labels(monkeypatch)
    assert main(["analyze", path, "--text"]) == 2
    assert capsys.readouterr() == (
        "", f"error: the report would list {labels} generator labels, more than the cap of"
        f" {labels - 1}\n"
    )


# ------------------------------------------------------------ spec read

_LF_SPEC = '{\n  "family": "so_n",\n  "n": 5,\n  "controls": [[1, 2], [2, 3], [4, 5]]\n}\n'
# a comma missing on the fourth line
_LF_BAD = '{\n  "family": "so_n",\n  "n": 5,\n  "controls": [[1, 2] [2, 3]]\n}\n'
# invalid UTF-8 past the first 8 KB, and after carriage returns
_PADDED = b'{"family": "so_n",' + b" " * 9000 + b'"n": 5, "controls": [[1, 2]], "x": "\xff"}'

_READ_CASES = {
    "crlf": _LF_SPEC.replace("\n", "\r\n").encode(),
    "cr": _LF_SPEC.replace("\n", "\r").encode(),
    "crlf syntax error": _LF_BAD.replace("\n", "\r\n").encode(),
    "cr syntax error": _LF_BAD.replace("\n", "\r").encode(),
    "cr cr lf": _LF_BAD.replace("\n", "\r\r\n").encode(),
    "cr in a string": b'{"family": "so\r_n", "n": 5, "controls": [[1, 2]]}',
    "bom": b"\xef\xbb\xbf" + _LF_SPEC.encode(),
    "bom crlf": b"\xef\xbb\xbf" + _LF_SPEC.replace("\n", "\r\n").encode(),
    "invalid utf-8 past 8 KB": _PADDED,
    "invalid utf-8 after crlf": _PADDED.replace(b" ", b"\r\n"),
    "truncated utf-8": b'{"family": "\xc3',
    "empty": b"",
}


def _outcome(argv):
    """Exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("data", _READ_CASES.values(), ids=_READ_CASES)
def test_spec_files_read_as_text_mode_reads_them(data, tmp_path, monkeypatch):
    # a CRLF or CR spec reads as its LF twin, so its JSON errors point at the
    # same line, column and char; an invalid byte is named at its position in
    # the file; every command that reads a file reads it the same way
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    try:
        spec, error = parse_spec(reference_read(path)), None
    except ValueError as exc:
        spec, error = None, f"error: {exc}\n"
    for argv in (["analyze", str(path)], ["analyze", "--text", str(path)], ["probe", str(path)]):
        outcome = _outcome(argv)
        if argv[0] == "analyze" and error is not None:
            assert outcome == (2, "", error), argv
        elif argv[0] == "analyze":
            assert outcome[::2] == (0 if analyze(spec).controllable else 1, ""), argv
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_read", reference_read)
            assert outcome == _outcome(argv), argv
    if data is _PADDED:
        assert "in position %d:" % data.index(b"\xff") in error


def test_crlf_specs_give_the_bytes_and_errors_of_their_lf_twins(tmp_path):
    outcomes = []
    for text in (_LF_SPEC, _LF_BAD):
        for newline in ("\n", "\r\n", "\r"):
            path = tmp_path / "spec.json"
            path.write_bytes(text.replace("\n", newline).encode())
            outcomes.append(_outcome(["analyze", str(path)]))
    good, bad = outcomes[:3], outcomes[3:]
    assert good[0][0] == 1 and good[0][1].startswith("{") and good.count(good[0]) == 3
    assert bad[0] == (
        2, "", "error: not valid JSON: Expecting ',' delimiter: line 4 column 23 (char 54)\n"
    )
    assert bad.count(bad[0]) == 3


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_paths_are_refused_as_before(kind, tmp_path, monkeypatch):
    path = tmp_path / "missing.json" if kind == "missing" else tmp_path
    with pytest.raises(OSError) as raised:
        open(path, encoding="utf-8")
    expected = f"error: cannot read {path}: {raised.value}\n"
    for argv in (["analyze", str(path)], ["compare", str(path)], ["probe", str(path)]):
        outcome = _outcome(argv)
        assert outcome == (2, "", expected), argv
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_read", reference_read)
            assert _outcome(argv) == outcome


# line ends, JSON text, a two-byte character, a lone lead byte, an invalid byte, a BOM
_BYTES = [b"\r", b"\n", b"\r\n", b" ", b"{", b"}", b'"', b"1", b"\xc3\xa9", b"\xc3", b"\xff", b"\xef\xbb\xbf"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_BYTES), max_size=40))
def test_read_gives_the_text_of_a_text_mode_read(tmp_path_factory, pieces):
    path = tmp_path_factory.mktemp("read") / "any.json"
    path.write_bytes(b"".join(pieces))

    def outcome(read):
        try:
            return read(str(path))
        except ValueError as exc:
            return "error", str(exc)

    assert outcome(cli._read) == outcome(reference_read)


# ---------------------------------------------------------- analyze


def test_analyze_exit_codes(write, capsys):
    assert main(["analyze", write("a.json", CHAIN5)]) == 0
    capsys.readouterr()
    assert main(["analyze", write("b.json", SPLIT5)]) == 1
    capsys.readouterr()
    bad = write("c.json", '{"family": "so_n", "n": 5, "controls": [[0, 1]]}')
    assert main(["analyze", bad]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["analyze", str(write("d.json", CHAIN5)) + ".missing"]) == 2


def test_analyze_json_report_content(write, capsys):
    code = main(["analyze", write("a.json", SPLIT5), "--oracle"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["controllable"] is False
    assert doc["oracle"] == {
        "dim": 4,
        "controllable": False,
        "orbits": [[1, 2, 3], [4, 5]],
        "agrees": True,
    }
    assert doc["method_class"] == "{1,2,3}{4,5}"
    assert doc["provenance"]["oracle_ran"] is True
    assert doc["submanifold"]["total_dim"] == 4


def test_analyze_report_is_byte_deterministic(write, capsys):
    path = write("a.json", SPLIT5)
    main(["analyze", path, "--oracle"])
    first = capsys.readouterr().out
    main(["analyze", path, "--oracle"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("spec", REPORT_SPECS, ids=lambda spec: f"{spec.family}-{spec.n}")
def test_json_report_writes_what_the_public_path_writes(spec, write, capsys):
    # the CLI writes its report through specio._report_text; the bytes must be
    # those of the reference dict, which holds JSON lists
    path = write("s.json", canonical_json(reference_spec_dict(spec)))
    runs = [([], False), (["--dot"], False)]
    try:
        systems.check_oracle_size(spec.family, spec.n)
        runs.append((["--oracle", "--dump-basis"], True))
    except systems.OracleSizeError:
        pass
    for flags, oracle in runs:
        report = analyze(spec, with_oracle=oracle)
        doc = reference_report_dict(report)
        if "--dot" in flags:
            doc["dot"] = to_dot(control_graph(spec))
        if oracle:
            doc["closure_basis"] = [m.format_grid() for m in report.oracle.closure.basis]
        main(["analyze", path, *flags])
        assert capsys.readouterr() == (canonical_json(doc), ""), flags


@pytest.mark.parametrize("family", FAMILIES)
def test_dump_basis_writes_the_dense_grid_of_each_basis_matrix(family, write, capsys):
    # the dump writes its grids from the span's echelon rows, building no matrix
    rng = random.Random(f"dump-basis-{family}")
    for _ in range(8):
        spec = _random_spec(rng, family)
        basis = oracle_check(spec, spec.orbit_class()).closure.basis
        grids = [m.format_grid() for m in basis]
        assert grids == [reference_grid(m.rows) for m in basis]
        path = write("s.json", canonical_json(spec_to_dict(spec)))
        main(["analyze", path, "--dump-basis"])
        assert json.loads(capsys.readouterr().out)["closure_basis"] == grids
        main(["analyze", path, "--dump-basis", "--text"])
        text = capsys.readouterr().out.split("closure basis:\n")[1]
        assert text == "".join(grid + "\n\n" for grid in grids)


def test_analyze_text_dot_and_basis(write, capsys):
    code = main(["analyze", write("a.json", SPLIT5), "--text", "--dot", "--dump-basis"])
    assert code == 1
    out = capsys.readouterr().out
    assert "not controllable" in out
    assert "graph G {" in out and "4 -- 5;" in out
    assert "closure basis:" in out
    code = main(["analyze", write("b.json", SPLIT5), "--dot", "--dump-basis"])
    doc = json.loads(capsys.readouterr().out)
    assert "1 -- 2;" in doc["dot"]
    assert len(doc["closure_basis"]) == 4


@pytest.mark.parametrize("family", FAMILIES)
def test_text_report_with_every_extra_is_the_reference_text(family, write, capsys):
    # the whole --text output: the report, then the DOT text, then the basis grids
    rng = random.Random(f"text-extras-{family}")
    spec = _random_spec(rng, family)
    while family == "markov" and spec.initial_distribution is None:
        spec = _random_spec(rng, family)
    path = write("s.json", canonical_json(reference_spec_dict(spec)))
    report = analyze(spec, with_oracle=True)
    grids = [reference_grid(m.rows) for m in report.oracle.closure.basis]
    expected = reference_text(report, to_dot(control_graph(spec)), grids)
    code = main(["analyze", path, "--text", "--oracle", "--dot", "--dump-basis"])
    assert capsys.readouterr() == (expected, "")
    assert code == (0 if report.controllable else 1)


def test_analyze_markov_report(write, capsys):
    spec = json.dumps(
        {
            "family": "markov",
            "n": 5,
            "controls": [[1, 2], [4, 5]],
            "initial_distribution": ["1/5"] * 5,
        }
    )
    main(["analyze", write("m.json", spec)])
    doc = json.loads(capsys.readouterr().out)
    assert doc["submanifold"]["frozen_states"] == [{"state": 3, "value": "1/5"}]
    assert doc["submanifold"]["conserved_sums"] == [
        {"orbit": [1, 2], "value": "2/5"},
        {"orbit": [4, 5], "value": "2/5"},
    ]


def test_oracle_guard_env_override(write, capsys, monkeypatch):
    path = write("a.json", CHAIN5)
    monkeypatch.setenv("CTRLPERM_ORACLE_MAX_N", "4")
    assert main(["analyze", path, "--oracle"]) == 2
    assert "size guard" in capsys.readouterr().err
    monkeypatch.setenv("CTRLPERM_ORACLE_MAX_N", "5")
    assert main(["analyze", path, "--oracle"]) == 0
    monkeypatch.setenv("CTRLPERM_ORACLE_MAX_N", "many")
    assert main(["analyze", path, "--oracle"]) == 2


def test_only_guarded_commands_read_the_oracle_override(write, capsys, monkeypatch):
    # the override sizes the oracle guard, so a command that never meets the
    # guard runs as it does without it, even when the value is malformed
    path = write("split.json", SPLIT5)
    plain = [["analyze", path], ["analyze", path, "--text"], ["analyze", path, "--dot"]]
    monkeypatch.delenv("CTRLPERM_ORACLE_MAX_N", raising=False)
    expected = []
    for argv in plain:
        code = main(argv)
        expected.append((capsys.readouterr().out, code))
    monkeypatch.setenv("CTRLPERM_ORACLE_MAX_N", "many")
    for argv, before in zip(plain, expected):
        code = main(argv)
        assert (capsys.readouterr().out, code) == before
    for flag in ("--oracle", "--dump-basis"):
        assert main(["analyze", path, flag]) == 2
        assert "must be an integer" in capsys.readouterr().err


def test_dump_basis_applies_the_oracle_size_guard(write, capsys, monkeypatch):
    monkeypatch.delenv("CTRLPERM_ORACLE_MAX_N", raising=False)
    path = write("big.json", '{"family": "so_n", "n": 13, "controls": [[1, 2]]}')
    assert main(["analyze", path, "--dump-basis"]) == 2
    assert "size guard" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze --oracle", "compare", "analyze --dump-basis"])
def test_frozen_markov_chain_closes_to_the_zero_algebra(write, capsys, command):
    # a chain with every rate frozen has no generators; the oracle reads that
    # as the zero algebra instead of rejecting the spec
    argv = command.split()
    argv.insert(1, write("frozen.json", FROZEN3))
    code = main(argv)
    out = capsys.readouterr().out
    if command == "compare":
        assert code == 0
        row = out.splitlines()[1].split()
        assert row == ["0", "3", "0", "no", "no", "0", "ok"]
        assert out.endswith("1/1 agree\n")
        return
    assert code == 1
    doc = json.loads(out)
    assert doc["controllable"] is False
    if command == "analyze --oracle":
        assert doc["oracle"] == {"dim": 0, "controllable": False, "orbits": [], "agrees": True}
    else:
        assert doc["closure_basis"] == []


def test_uncaught_exception_is_an_internal_error_not_a_verdict(write, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "analyze", crash)
    assert main(["analyze", write("a.json", CHAIN5)]) == 2
    err = capsys.readouterr().err
    assert "internal error: RuntimeError('boom')" in err


@pytest.mark.parametrize("command", ["analyze", "probe"])
def test_deeply_nested_json_is_bad_input(write, capsys, command):
    path = write("deep.json", "[" * 100_000 + "]" * 100_000)
    assert main([command, path]) == 2
    assert "nested too deeply" in capsys.readouterr().err


# ------------------------------------------------------------ compare


def test_compare_random_batch(capsys):
    assert main(["compare", "--random", "4", "3", "42", "25"]) == 0
    out = capsys.readouterr().out
    assert "25/25 agree" in out


def test_compare_single_spec(write, capsys):
    path = write("a.json", '{"family": "so_n", "n": 4, "controls": [[1,2],[2,3],[1,3],[3,4]]}')
    assert main(["compare", path]) == 0
    assert "1/1 agree" in capsys.readouterr().out


def test_compare_prints_each_disagreement_with_its_spec(write, capsys, monkeypatch):
    # no spec makes the two routes disagree, so the oracle is made to; the
    # reproduction is the spec file itself, indented by two spaces
    spec = SystemSpec(
        "markov", 4, frozenset([(1, 2)]), drift=(2, 3),
        initial_distribution=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(0)),
    )
    real = cli.oracle_check

    def disagreeing(*args, **kwargs):
        result = real(*args, **kwargs)
        return systems.OracleResult(
            result.dim, result.controllable, result.orbits, False, result.closure
        )

    monkeypatch.setattr(cli, "oracle_check", disagreeing)
    assert main(["compare", write("m.json", specio._spec_text(spec))]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("  DISAGREEMENT")
    assert lines[2] == "  reproduce with spec:"
    assert all(line.startswith("  ") for line in lines[3:-1])
    block = "".join(line[2:] + "\n" for line in lines[3:-1])
    assert block == specio._spec_text(spec)
    assert parse_spec(block) == spec
    assert lines[-1] == "0/1 agree"


def test_compare_merges_once_and_builds_no_report(capsys, monkeypatch):
    merges = []
    real = systems._partition

    def counting(pairs, n):
        merges.append(n)
        return real(pairs, n)

    def no_report(*args, **kwargs):
        raise AssertionError("compare built a full report")

    assert main(["compare", "--random", "6", "4", "3", "5"]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(systems, "_partition", counting)
    monkeypatch.setattr(cli, "analyze", no_report)
    assert main(["compare", "--random", "6", "4", "3", "5"]) == 0
    assert capsys.readouterr().out == expected
    assert merges == [6] * 5


def test_compare_routes_probe_files_to_exit_2(write, capsys):
    assert main(["compare", write("g.json", PROBE4)]) == 2
    assert "probe subcommand" in capsys.readouterr().err


def test_compare_without_source_errors(capsys):
    assert main(["compare"]) == 2


def test_compare_refuses_a_spec_next_to_random(write, capsys, monkeypatch):
    # alone this spec exits 2 at the size guard; it must not be dropped silently
    monkeypatch.delenv("CTRLPERM_ORACLE_MAX_N", raising=False)
    chain = ",".join(f"[{i},{i + 1}]" for i in range(1, 13))
    path = write("big.json", f'{{"family": "so_n", "n": 13, "controls": [{chain}]}}')
    assert main(["compare", path]) == 2
    capsys.readouterr()
    assert main(["compare", path, "--random", "4", "3", "1", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not both" in captured.err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_compare_random_needs_a_positive_count(capsys, count):
    # "0/0 agree" with exit 0 would claim full agreement on nothing
    assert main(["compare", "--random", "5", "4", "1", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "COUNT must be positive" in captured.err


def test_compare_random_rejects_negative_m(capsys):
    assert main(["compare", "--random", "5", "-1", "1", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "m must be nonnegative, got -1" in captured.err


@pytest.mark.parametrize("source", ["random", "spec"])
def test_compare_size_guard_refuses_before_the_header(write, capsys, monkeypatch, source):
    monkeypatch.delenv("CTRLPERM_ORACLE_MAX_N", raising=False)
    if source == "random":
        argv = ["compare", "--random", "13", "20", "1", "2"]
    else:
        argv = ["compare", write("big.json", '{"family": "markov", "n": 9, "controls": [[1, 2]]}')]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "size guard" in captured.err


def test_compare_random_draws_each_spec_before_its_row(capsys, monkeypatch):
    draws, seen = [], []
    real_sample, real_oracle = _commands._sample_pairs, cli.oracle_check

    def sample(*args):
        draws.append(args)
        return real_sample(*args)

    def record(spec, *args, **kwargs):
        seen.append(len(draws))
        return real_oracle(spec, *args, **kwargs)

    monkeypatch.setattr(_commands, "_sample_pairs", sample)
    monkeypatch.setattr(cli, "oracle_check", record)
    assert main(["compare", "--random", "5", "4", "1", "3"]) == 0
    assert seen == [1, 2, 3]
    assert capsys.readouterr().out.endswith("\n3/3 agree\n")


@pytest.mark.parametrize(
    "argv, max_n",
    [(["2000", "3", "1", "1"], None), (["13", "5", "1", "4"], None), (["6", "5", "1", "4"], "5")],
    ids=["n=2000", "n=13", "n=6 with max 5"],
)
def test_compare_random_refuses_before_sampling(capsys, monkeypatch, argv, max_n):
    if max_n is None:
        monkeypatch.delenv("CTRLPERM_ORACLE_MAX_N", raising=False)
    else:
        monkeypatch.setenv("CTRLPERM_ORACLE_MAX_N", max_n)
    calls = []
    monkeypatch.setattr(_commands, "_sample_pairs", lambda *args: calls.append(args) or [])
    assert main(["compare", "--random", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "size guard" in captured.err
    assert calls == []


# -------------------------------------------------------------- probe


def test_probe_cli(write, capsys):
    assert main(["probe", write("g.json", PROBE4)]) == 1
    out = capsys.readouterr().out
    assert "EXPERIMENTAL" in out
    assert "subgroup order:  8" in out
    assert "larc dimension:  4 of 6" in out
    extended = json.loads(PROBE4)
    extended["generators"].append(
        [["0", "1", "0", "0"], ["-1", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]]
    )
    assert main(["probe", write("g2.json", json.dumps(extended))]) == 0
    out = capsys.readouterr().out
    assert "subgroup order:  24" in out
    assert "larc dimension:  6 of 6" in out
    bad = {"n": 4, "generators": [[["0", "2", "0", "0"], ["-2", "0", "0", "0"], ["0"] * 4, ["0"] * 4]]}
    assert main(["probe", write("g3.json", json.dumps(bad))]) == 2


def test_probe_calls_the_parser_and_probe_bound_on_cli(write, capsys, monkeypatch):
    # the probe handler looks both names up on cli when called, so a tracer's
    # wrapper, or a patch as here, is what it calls
    path = write("g.json", PROBE4)
    real_parse, real_probe = cli.parse_probe, cli.probe_nonstandard

    def first_only(text):
        n, generators = real_parse(text)
        return n, generators[:1]

    def full_rank(generators, max_n=None):
        result = real_probe(generators, max_n=max_n)
        return systems.NonstandardProbeResult(
            result.n, result.permutation_images, result.subgroup_order,
            result.subgroup_is_full_symmetric, 6, True,
        )

    monkeypatch.setattr(cli, "parse_probe", first_only)
    assert main(["probe", path]) == 1
    out = capsys.readouterr().out
    assert "generators:      1\n" in out
    assert "subgroup order:  2 (a proper subgroup)\n" in out
    assert "larc dimension:  1 of 6\n" in out
    monkeypatch.setattr(cli, "probe_nonstandard", full_rank)
    assert main(["probe", path]) == 0
    out = capsys.readouterr().out
    assert "larc dimension:  6 of 6\nlarc verdict:    controllable\n" in out


def _rotation_probe(n):
    rows = [["0"] * n for _ in range(n)]
    rows[0][1], rows[1][0] = "1", "-1"
    return json.dumps({"n": n, "generators": [rows]})


def test_probe_size_guard_refuses_before_any_work(write, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the probe started work beyond its size guard")

    monkeypatch.setattr(systems, "generate_subgroup", no_work)
    monkeypatch.setattr(systems, "lie_closure", no_work)
    monkeypatch.delenv("CTRLPERM_ORACLE_MAX_N", raising=False)
    assert main(["probe", write("big.json", _rotation_probe(13))]) == 2
    assert "size guard" in capsys.readouterr().err
    monkeypatch.setenv("CTRLPERM_ORACLE_MAX_N", "3")
    assert main(["probe", write("four.json", _rotation_probe(4))]) == 2
    assert "size guard" in capsys.readouterr().err


def _path_probe(n):
    """One rotation generator per pair (i, i+1): its permutations generate S_n."""
    grids = []
    for i in range(n - 1):
        rows = [[0] * n for _ in range(n)]
        rows[i][i + 1], rows[i + 1][i] = 1, -1
        grids.append(rows)
    return json.dumps({"n": n, "generators": grids})


def test_probe_reports_the_exact_order_of_long_paths(write, capsys):
    # past nine letters the old listing stopped at 9! and printed
    # "362880 (a proper subgroup) (enumeration truncated)"
    for n, order in ((10, 3628800), (12, 479001600)):
        assert main(["probe", write(f"path{n}.json", _path_probe(n))]) == 0
        out = capsys.readouterr().out
        assert f"subgroup order:  {order} (the full symmetric group)\n" in out
        assert f"larc dimension:  {n * (n - 1) // 2} of {n * (n - 1) // 2}\n" in out
        assert "truncated" not in out


# ---------------------------------------------------------------- gen


def test_gen_rejects_negative_m(capsys):
    assert main(["gen", "so_n", "4", "-1", "1"]) == 2
    assert "m must be nonnegative, got -1" in capsys.readouterr().err


def test_gen_is_deterministic(capsys):
    assert main(["gen", "so_n", "5", "4", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "so_n", "5", "4", "7"]) == 0
    assert capsys.readouterr().out == first
    spec = parse_spec(first)
    assert spec.family == "so_n" and len(spec.controls) == 4


def test_gen_markov_family(capsys):
    assert main(["gen", "markov", "6", "5", "3"]) == 0
    spec = parse_spec(capsys.readouterr().out)
    assert spec.family == "markov" and spec.n == 6 and len(spec.controls) == 5


def test_gen_rejects_oversized_m(capsys):
    assert main(["gen", "so_n", "4", "7", "1"]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_sample_pairs_matches_the_pool_draw():
    rng = random.Random(5)
    cases = []
    for n in range(0, 13):
        total = n * (n - 1) // 2 if n > 1 else 0
        for m in sorted({0, min(1, total), total // 2, max(total - 1, 0), total}):
            cases += [(n, m, seed) for seed in range(3)]
    for n in (40, 97, 200):
        total = n * (n - 1) // 2
        for m in (0, n, int(rng.random() * total), total):
            cases.append((n, m, int(rng.random() * 10**6)))
    for n, m, seed in cases:
        got = _commands._sample_pairs(random.Random(seed), n, m)
        assert got == sample_pairs(random.Random(seed), n, m), (n, m, seed)


def test_sample_pairs_never_lists_every_pair():
    # the pool of all pairs on a million letters would hold 5e11 tuples
    n = 10**6
    pairs = _commands._sample_pairs(random.Random(3), n, 50)
    assert pairs == _commands._sample_pairs(random.Random(3), n, 50)
    assert len(set(pairs)) == 50
    assert all(1 <= i < j <= n for i, j in pairs)


def _float_sample_pairs(rng, n, m):
    """``_commands._sample_pairs`` as it was before its exact draw past 2**53 pairs."""
    total = n * (n - 1) // 2 if n > 1 else 0
    drawn = []
    chosen = []
    for _ in range(m):
        left = total - len(drawn)
        idx = min(int(rng.random() * left), left - 1)
        below = bisect.bisect_right(range(len(drawn)), idx, key=lambda at: drawn[at] - at)
        rank = idx + below
        drawn.insert(below, rank)
        t = (math.isqrt(8 * (total - 1 - rank) + 1) + 1) // 2
        chosen.append((n - t, n + 1 + rank - total + t * (t - 1) // 2))
    return chosen


def test_sample_pairs_keeps_its_draws_up_to_2_53_pairs():
    rng = random.Random(11)
    for n in (2, 3, 7, 64, 500, 2000):
        total = n * (n - 1) // 2
        for m in sorted({0, 1, min(5, total), min(200, total), int(rng.random() * min(total, 300))}):
            for seed in range(25):
                expected = _float_sample_pairs(random.Random(seed), n, m)
                assert _commands._sample_pairs(random.Random(seed), n, m) == expected, (n, m, seed)


def test_sample_pairs_reaches_every_index_past_2_53_pairs():
    # 2e8 letters hold about 2**54.2 pairs; a float draw times that count can
    # land only on multiples of 4 past 2**54, the exact draw on every residue
    n = 2 * 10**8

    def residues(sample):
        found = set()
        for seed in range(400):
            ((i, j),) = sample(random.Random(seed), n, 1)
            assert 1 <= i < j <= n
            rank = (i - 1) * n - i * (i - 1) // 2 + (j - i - 1)
            if rank >= 2**54:
                found.add(rank % 4)
        return found

    assert residues(_float_sample_pairs) == {0}
    assert residues(_commands._sample_pairs) == {0, 1, 2, 3}
    pairs = _commands._sample_pairs(random.Random(5), n, 40)
    assert len(set(pairs)) == 40 and pairs == _commands._sample_pairs(random.Random(5), n, 40)


def test_gen_round_trip_thousand_seeds(capsys):
    rng = random.Random(99)
    for seed in range(1000):
        n = 3 + int(rng.random() * 4)
        m = 1 + int(rng.random() * (n * (n - 1) // 2 - 1))
        assert main(["gen", "so_n", str(n), str(m), str(seed)]) == 0
        text = capsys.readouterr().out
        report = analyze(parse_spec(text))
        assert report.method_class is not None


# ------------------------------------------------- repeated main calls

SRC = Path(cli.__file__).resolve().parent.parent


def _python(*args):
    """Run a fresh interpreter with this checkout's ctrlperm on its path."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    env.pop("CTRLPERM_ORACLE_MAX_N", None)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_cli_calls_leave_argparse_unloaded(tmp_path):
    # the command line is read from cli's own table: importing cli, running
    # each command and a usage error all leave argparse unloaded
    spec, probe_doc = tmp_path / "a.json", tmp_path / "g.json"
    spec.write_text(CHAIN5)
    probe_doc.write_text(PROBE4)
    probe = (
        "import contextlib, io, sys\n"
        "import ctrlperm.cli\n"
        "loaded = ['argparse' in sys.modules]\n"
        "a, g = sys.argv[1:]\n"
        "argvs = [['analyze', a], ['compare', a], ['gen', 'so_n', '5', '4', '7'], ['probe', g]]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [ctrlperm.cli.main(argv) for argv in argvs]\n"
        "    try:\n"
        "        ctrlperm.cli.main(['gen', 'so_n', '5', '4'])\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "loaded.append('argparse' in sys.modules)\n"
        "print(codes, loaded)\n"
    )
    done = _python("-c", probe, str(spec), str(probe_doc))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 0, 1, 2] [False, False]\n"


def test_usage_error_leaves_the_parser_reusable(write, capsys):
    path = write("a.json", SPLIT5)
    argv = ["analyze", path, "--text", "--dump-basis"]
    assert main(argv) == 1
    fresh = capsys.readouterr().out
    for bad in (
        ["analyze", path, "--json", "--text"],
        ["gen", "so_n", "five", "4", "7"],
        ["compare", "--random", "5", "4"],
        ["nonsense"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().out == fresh


def test_in_process_calls_match_fresh_processes(write, capsys, monkeypatch):
    monkeypatch.delenv("CTRLPERM_ORACLE_MAX_N", raising=False)
    split = write("split.json", SPLIT5)
    commands = [
        ["analyze", split],
        ["gen", "markov", "6", "5", "3"],
        ["analyze", split, "--text", "--dot", "--dump-basis"],
        ["probe", write("g.json", PROBE4)],
        ["compare", write("chain.json", CHAIN5)],
        ["analyze", split, "--oracle", "--dot", "--dump-basis"],
        ["compare", "--random", "4", "3", "42", "5"],
        ["gen", "so_n", "5", "4", "7"],
        ["compare", "--random", "5", "-1", "1", "2"],
    ]
    in_process = []
    for argv in commands + commands:  # interleaved, and each command twice
        code = main(argv)
        in_process.append((capsys.readouterr().out, code))
    assert in_process[: len(commands)] == in_process[len(commands):]
    fresh = [_python("-m", "ctrlperm.cli", *argv) for argv in commands]
    assert in_process[: len(commands)] == [(done.stdout, done.returncode) for done in fresh]


@pytest.mark.parametrize("argv", [["gen", "so_n", "5", "4", "7"], ["--help"]], ids=["gen", "help"])
def test_run_as_a_module_imports_cli_once(argv):
    # run as __main__, cli is the module that _commands and _clihelp import
    # as ctrlperm.cli; a second copy would compile and run cli.py again
    done = _python("-X", "importtime", "-m", "ctrlperm.cli", *argv)
    assert done.returncode == 0, done.stderr
    imported = [line.rpartition("|")[2].strip() for line in done.stderr.splitlines()]
    assert "ctrlperm._commands" in imported or "ctrlperm._clihelp" in imported
    assert "ctrlperm.cli" not in imported


@pytest.mark.parametrize("module", ["ctrlperm.cli", "ctrlperm"])
def test_import_stays_off_the_slow_stdlib_modules(module):
    # dataclasses pulls in inspect, ast, dis and tokenize: about a third of start-up;
    # hashlib loads OpenSSL, which only the spec digest of an analyze report needs
    slow = "{'dataclasses', 'inspect', 'hashlib'}"
    probe = f"import sys, {module}\nprint(sorted({slow} & set(sys.modules)))\n"
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


_ORACLE_MODULES = "['ctrlperm.liealg', 'ctrlperm._mod3', 'fractions', 'decimal']"
_LAZY_MODULES = (
    "['ctrlperm.graphview', 'ctrlperm.permutation',"
    " 'ctrlperm._commands', 'ctrlperm._textreport', 'ctrlperm._rationals']"
)


@pytest.mark.parametrize("module", ["ctrlperm.cli", "ctrlperm"])
def test_import_leaves_the_oracle_unloaded(module):
    # the oracle route, exact rationals, the graph view and the permutation
    # algebra load on first use; the package still reaches every submodule by name
    probe = (
        f"import sys, {module}\n"
        f"print([m for m in {_ORACLE_MODULES} + {_LAZY_MODULES} if m in sys.modules])\n"
        "import ctrlperm\n"
        "print(ctrlperm.liealg.ExactMatrix.__name__)\n"
    )
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\nExactMatrix\n"


def test_commands_load_permutation_and_graphview_on_first_use(write):
    # each step prints the modules it loads first: the text layout with
    # --text, exact rationals with a distribution, the other commands with
    # gen, graphview with the first --dot and permutation with probe alone
    so = write("split.json", SPLIT5)
    markov = write(
        "m.json",
        json.dumps(
            {"family": "markov", "n": 3, "controls": [[1, 2]], "initial_distribution": ["1/3"] * 3}
        ),
    )
    steps = [
        ["analyze", so],
        ["analyze", so, "--text"],
        ["analyze", markov],
        ["gen", "so_n", "5", "4", "7"],
        ["compare", so],
        ["analyze", so, "--oracle"],
        ["analyze", so, "--dot"],
        ["probe", write("g.json", PROBE4)],
    ]
    probe = (
        "import contextlib, io, sys\n"
        "from ctrlperm import cli\n"
        f"lazy = {_LAZY_MODULES}\n"
        "seen = []\n"
        f"for argv in {steps!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main(argv)\n"
        "    new = [m for m in lazy if m in sys.modules and m not in seen]\n"
        "    seen += new\n"
        "    print(new)\n"
    )
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[]",
        "['ctrlperm._textreport']",
        "['ctrlperm._rationals']",
        "['ctrlperm._commands']",
        "[]",
        "[]",
        "['ctrlperm.graphview']",
        "['ctrlperm.permutation']",
    ]


def test_permutation_level_oracle_works_from_a_fresh_import():
    # merge stays on the union-find; the absorbing product loads the permutation algebra
    probe = (
        "import sys, ctrlperm\n"
        "a = ctrlperm.OrbitPartition(4, [(1, 2)])\n"
        "print(a.merge(ctrlperm.OrbitPartition(4, [(2, 3)])))\n"
        "print('ctrlperm.permutation' in sys.modules)\n"
        "print(ctrlperm.orbit_partition(ctrlperm.absorbing_product([(1, 2), (2, 3)], 4)))\n"
        "print('ctrlperm.permutation' in sys.modules)\n"
    )
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "{1,2,3}\nFalse\n{1,2,3}\nTrue\n"


def test_cli_graph_forwarders_give_the_graphview_text():
    # cli.control_graph and cli.to_dot import graphview on each call and never
    # rebind themselves, so they stay the globals a tracer wraps
    spec = parse_spec(SPLIT5)
    forwarders = vars(cli)["control_graph"], vars(cli)["to_dot"]
    assert forwarders != (control_graph, to_dot)
    assert cli.control_graph(spec) == control_graph(spec)
    assert cli.to_dot(cli.control_graph(spec)) == to_dot(control_graph(spec))
    assert (vars(cli)["control_graph"], vars(cli)["to_dot"]) == forwarders


def test_commands_load_the_oracle_only_when_they_close(write):
    so = write("split.json", SPLIT5)
    markov = write(
        "m.json",
        json.dumps(
            {"family": "markov", "n": 3, "controls": [[1, 2]], "initial_distribution": ["1/3"] * 3}
        ),
    )
    steps = [
        ["analyze", so],
        ["analyze", so, "--text", "--dot"],
        ["gen", "so_n", "5", "4", "7"],
        ["analyze", markov],
        ["analyze", so, "--oracle"],
    ]
    probe = (
        "import contextlib, io, sys\n"
        "from ctrlperm import cli\n"
        f"for argv in {steps!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main(argv)\n"
        f"    print([m for m in {_ORACLE_MODULES} if m in sys.modules])\n"
        "from ctrlperm import liealg, systems\n"
        "print(systems.lie_closure is liealg.lie_closure)\n"
    )
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[]",
        "[]",
        "[]",
        "['fractions', 'decimal']",
        "['ctrlperm.liealg', 'ctrlperm._mod3', 'fractions', 'decimal']",
        "True",
    ]


def test_mod3_screen_loads_with_the_first_closure():
    # liealg imports the screen, so it loads with the oracle, on the first
    # closure, and never with the orbit route
    probe = (
        "import sys, ctrlperm, ctrlperm.cli\n"
        "print('ctrlperm._mod3' in sys.modules)\n"
        "from ctrlperm.liealg import lie_closure, rotation_entries\n"
        "lie_closure([rotation_entries(3, (1, 2)), rotation_entries(3, (2, 3))], 3)\n"
        "print('ctrlperm._mod3' in sys.modules)\n"
    )
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\nTrue\n"


def test_import_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import ctrlperm.cli\n"
        "print(len(built))\n"
    )
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


# -------------------------------------------------- command-line grammar

_ANALYZE = {"spec": "a", "oracle": False, "dot": False, "dump_basis": False, "json": False, "text": False}


@pytest.mark.parametrize(
    "argv, handler, fields",
    [
        # options anywhere after the command, and unique prefixes of long ones
        (["analyze", "--text", "a", "--dot"], cli._cmd_analyze, {**_ANALYZE, "text": True, "dot": True}),
        (["analyze", "a", "--ora", "--dum", "--js"], cli._cmd_analyze,
         {**_ANALYZE, "oracle": True, "dump_basis": True, "json": True}),
        (["analyze", "a", "--json", "--json"], cli._cmd_analyze, {**_ANALYZE, "json": True}),
        # "--" ends the options
        (["analyze", "--", "--oracle"], cli._cmd_analyze, {**_ANALYZE, "spec": "--oracle"}),
        (["analyze", "--oracle", "a", "--"], cli._cmd_analyze, {**_ANALYZE, "oracle": True}),
        (["gen", "so_n", "5", "--", "4", "7"], _commands._cmd_gen, {"family": "so_n", "n": 5, "m": 4, "seed": 7}),
        # negative numbers and a lone "-" are values
        (["gen", "so_n", "5", "-1", "3"], _commands._cmd_gen, {"family": "so_n", "n": 5, "m": -1, "seed": 3}),
        (["analyze", "-"], cli._cmd_analyze, {**_ANALYZE, "spec": "-"}),
        (["compare", "-.5"], _commands._cmd_compare, {"spec": "-.5", "random": None}),
        # int(token)
        (["gen", "sphere", " 5", "5_0", "7"], _commands._cmd_gen, {"family": "sphere", "n": 5, "m": 50, "seed": 7}),
        (["compare"], _commands._cmd_compare, {"spec": None, "random": None}),
        (["compare", "--ran", "8", "-10", "1", "3", "a"], _commands._cmd_compare, {"spec": "a", "random": [8, -10, 1, 3]}),
        (["compare", "--random", "1", "2", "3", "4", "--random", "5", "6", "7", "8"], _commands._cmd_compare,
         {"spec": None, "random": [5, 6, 7, 8]}),
        (["probe", "g"], _commands._cmd_probe, {"spec": "g"}),
    ],
)
def test_command_line_fields(argv, handler, fields):
    got, args = cli._parse(argv)
    assert got is handler
    assert vars(args) == fields


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nonsense"],
        ["--", "analyze", "a"],
        ["analyze"],
        ["analyze", "a", "b"],
        ["analyze", "a", "--d"],  # --dot or --dump-basis
        ["analyze", "a", "--json", "--text"],
        ["analyze", "a", "--oracle=1"],
        ["analyze", "a", "--version"],
        ["analyze", "a", "-x"],
        ["gen", "so_n", "0x5", "4", "7"],
        ["gen", "bogus", "5", "4", "7"],
        ["gen", "so_n", "5", "4"],
        ["compare", "--random", "1", "2", "3"],
        ["compare", "--random", "1", "2", "--", "3", "4"],
        ["compare", "--random=1", "2", "3", "4"],
        # argparse keeps this "--", as all positionals came before the last option
        ["analyze", "a", "--oracle", "--"],
        # argparse hands m an empty list for a second "--", and gen crashed on it
        ["gen", "so_n", "5", "--", "--", "7"],
        # an ambiguous option anywhere, or an error before it, beats help
        ["analyze", "-h", "--d"],
        ["probe", "-h", "--=x"],
        ["-h", "analyze", "--=x"],
        ["gen", "bogus", "-h"],
        ["analyze", "-hx"],
    ],
)
def test_command_line_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli._parse(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: ctrlperm ")
    assert error.startswith("ctrlperm") and ": error: " in error


@pytest.mark.parametrize(
    "argv, first",
    [
        (["-h"], "usage: ctrlperm [-h]"),
        (["--he", "junk"], "usage: ctrlperm [-h]"),
        (["--bogus", "analyze", "-h"], "usage: ctrlperm analyze"),
        (["analyze", "a", "b", "-h", "-x"], "usage: ctrlperm analyze"),
        (["analyze", "-hh"], "usage: ctrlperm analyze"),
        (["gen", "-h", "bogus"], "usage: ctrlperm gen"),
        (["compare", "--help"], "usage: ctrlperm compare"),
        (["probe", "-h"], "usage: ctrlperm probe"),
        (["--version"], f"ctrlperm {ctrlperm.__version__}"),
        (["--ver", "junk"], f"ctrlperm {ctrlperm.__version__}"),
    ],
)
def test_command_line_help_and_version(argv, first, capsys):
    with pytest.raises(SystemExit) as exc:
        cli._parse(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0].startswith(first)
    assert err == ""


def test_help_names_every_flag_once(capsys):
    for command, (_, about, positionals, options, _) in cli._COMMANDS.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert about in text
        for flag, _, help_text in options:
            # once on the usage line and once in the option list
            assert len(re.findall(rf"(?<![\w-]){flag}(?![\w-])", text)) == 2, flag
            assert text.count(help_text) == 1
        for _, _, _, help_text in positionals:
            assert text.count(help_text) == 1
    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert all(f"{command} {row[1]}" in text for command, row in cli._COMMANDS.items())


def test_usage_error_names_the_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "so_n", "5", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "",
        "usage: ctrlperm gen [-h] {so_n,multi_agent,markov,sphere} n m seed\n"
        "ctrlperm gen: error: the following arguments are required: seed\n",
    )


_REFERENCE = reference_parser()
_OPTIONS = {
    "analyze": ("--oracle", "--dot", "--dump-basis", "--json", "--text"),
    "compare": ("--random",),
    "probe": (),
    "gen": (),
}


def _prefixes(*flags):
    """Every long flag and each of its prefixes: unique ones, and ambiguous ones such as --d."""
    return sorted({flag[:end] for flag in flags for end in range(3, len(flag) + 1)})


_COMMON = (
    "-h", *_prefixes("--help", "--version"), "--bogus", "-x", "bogus", "x", "specs/chain.json",
    # later argparse releases read "--" differently (before the command, for
    # one); the table keeps the reading of CPython 3.11 and before
    *(["--"] if sys.version_info < (3, 12) else []),
)
_NUMBERS = ("-1", "-0", "-.5", "-2.5", "-", " 5", "5_0", "0x5", "3", "12")
_WORDS = (*_OPTIONS, *_prefixes(*itertools.chain(*_OPTIONS.values())), *_COMMON, *_NUMBERS, *FAMILIES)
# the words each command is most often followed by
_AFTER = {
    "analyze": (*_prefixes(*_OPTIONS["analyze"]), *_COMMON),
    "compare": (*_prefixes("--random"), *_COMMON, *_NUMBERS),
    "probe": _COMMON,
    "gen": (*FAMILIES, *_COMMON, *_NUMBERS),
}


def _command_lines():
    anywhere = st.lists(st.sampled_from(_WORDS), max_size=6)
    after = st.sampled_from(tuple(_AFTER)).flatmap(
        lambda command: st.lists(st.sampled_from(_AFTER[command]), max_size=7).map(
            lambda rest: [command, *rest]
        )
    )
    return st.one_of(anywhere, after)


def _parse_outcome(parse, argv):
    """What ``parse(argv)`` gives: (handler, fields), or (exit code, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            handler, args = parse(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue()
    return handler, vars(args)


def _reference_parse(argv):
    args = _REFERENCE.parse_args(argv)
    fields = dict(vars(args))
    del fields["command"]
    return fields.pop("func"), SimpleNamespace(**fields)


@settings(max_examples=1000, deadline=None)
@given(_command_lines())
def test_command_lines_read_as_the_reference_parser_reads_them(argv):
    expected, expected_out = _parse_outcome(_reference_parse, argv)
    got, out = _parse_outcome(cli._parse, argv)
    if expected == 0:  # help or the version: the same command's help, the same version
        assert got == 0
        assert out.split()[:3] == expected_out.split()[:3]
    elif expected == 2:
        assert (got, out) == (2, "")
    elif [] in expected_out.values():
        # argparse hands a positional whose token is a second "--" an empty
        # list, and gen crashed on it; the table refuses that token
        assert (got, out) == (2, "")
    else:
        assert (got, out) == (expected, expected_out)


# ------------------------------------------------------- exit-code fuzz

_FUZZ_SPECS = (
    {"family": "so_n", "n": 4, "controls": [[1, 2], [2, 3]], "drift": [3, 4]},
    {"family": "sphere", "n": 3, "controls": [[1, 2], [2, 3]]},
    {"family": "multi_agent", "n": 3, "controls": [[1, 3]], "agent_space_dim": 2},
    {"family": "markov", "n": 3, "controls": [[1, 2]], "initial_distribution": ["1/2", "0", "1/2"]},
    # one path per family whose report is past the label cap, and stays past it
    # when up to three mutations cut it into four orbits; an agent path turned
    # into a rotation family writes a report of about 12 MB
    *(_path_spec(family, 9000 if family in ("so_n", "sphere") else 1000)
      for family in ("so_n", "sphere", "multi_agent", "markov")),
)
_FUZZ_PROBES = (
    {
        "n": 3,
        "generators": [
            [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
            [["0", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]],
        ],
    },
)
# what a mutation writes; every letter count stays at most 50, or is refused
# before anything is allocated, and a long path's report stays past the label
# cap, so no run allocates much
_FUZZ_POOL = (
    None, True, 0, 1, 2, 3, 5, 9, 13, 50, 10**30, -1, 2.5, "", "x", "so_n", "markov", "1/2",
    "-1", "1/0", "1e-4301", [], [1], [1, 2], [2, 1], [0, 1], [1, 3], [3, 4], [1, 2, 3],
    [True, 2], [1.0, 2], [[1, 2]], [[1, 2], [2, 3]], [[1, 2], [1, 2]], ["1/2", "1/2"], {},
    "<5000-digit integer>",
)
# json.dumps cannot write an integer past Python's 4300-digit limit, so the
# document holds this string, and its JSON text is replaced by the literal
_FUZZ_HUGE = ('"<5000-digit integer>"', "9" * 5000)
_FUZZ_COMMANDS = ("analyze", "analyze --text", "analyze --oracle", "compare", "probe")


@st.composite
def _mutated_documents(draw):
    """A command and a valid document of its kind, changed in up to three places."""
    command = draw(st.sampled_from(_FUZZ_COMMANDS))
    bases = _FUZZ_PROBES if command == "probe" else _FUZZ_SPECS
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while True:
            values = node.values() if isinstance(node, dict) else node
            inner = [v for v in values if v and isinstance(v, (dict, list))]
            if not inner or draw(st.booleans()):
                break
            node = draw(st.sampled_from(inner))
        value = copy.deepcopy(draw(st.sampled_from(_FUZZ_POOL)))
        if isinstance(node, dict):
            keys = set(node) | {"n", "family", "controls", "generators", "x"}
            key = draw(st.sampled_from(sorted(keys)))
            if key in node and draw(st.booleans()):
                del node[key]
            else:
                node[key] = value
        elif node and draw(st.booleans()):
            node[draw(st.integers(0, len(node) - 1))] = value
        else:
            node.append(value)
    return command, json.dumps(doc).replace(*_FUZZ_HUGE)


def _expected_exit(command, text):
    """2 when parsing, validation or a size guard refuses the document, else the verdict's code."""
    try:
        if command == "probe":
            _, generators = parse_probe(text)
            return 0 if probe_nonstandard(generators).larc_controllable else 1
        spec = parse_spec(text)
        if command == "compare":
            return 0 if oracle_check(spec, spec.orbit_class()).agrees else 1
        report = analyze(spec, with_oracle=command.endswith("--oracle"))
        if systems._label_count(report) > cli.REPORT_MAX_LABELS:
            return 2
        return 0 if report.controllable else 1
    except ValueError:
        return 2


@settings(max_examples=300, deadline=None)
@given(_mutated_documents())
def test_exit_codes_of_mutated_documents(tmp_path_factory, case):
    command, text = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        os.environ.pop(cli.ORACLE_MAX_ENV, None)
        code = main([*command.split(), str(path)])
        expected = _expected_exit(command, text)
    assert code == expected, (command, text, err.getvalue())
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), (command, text)
    else:
        assert err.getvalue() == "", (command, text)
