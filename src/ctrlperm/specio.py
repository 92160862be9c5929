"""JSON formats for spec files and report files, and the text report.

Rationals travel as strings ("3/5") because JSON numbers are floats.
Serialization is canonical: orbits and pair lists sorted, optional null fields
omitted from spec files, and the text is by definition the bytes of
``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline.  That definition
is fixed because :func:`spec_digest` hashes it: identical specs produce
byte-identical reports, and the spec digest identifies the parsed content
rather than the file bytes.

:func:`canonical_json` is that definition itself.  Each document has one
writer, which appends its canonical bytes in one pass with no intermediate
dict: :func:`_report_text` for a report and :func:`_spec_text` for a spec
file.  The CLI writes through them, and the dict forms
:func:`report_to_dict` and :func:`spec_to_dict` are their text parsed back.
The tests hold both writers to :func:`canonical_json` of a dict reference
kept in ``tests/helpers.py``, which shares no code with this module.

The report's other layout, the human-readable ``--text`` report, has one
writer too, :func:`_text_report`; the tests hold it to the text reference
in ``tests/helpers.py``.

The report writers turn each orbit letter into text once
(:func:`_orbit_letters`); ``orbits``, ``method_class``, each component's
``orbit`` and labels, and the control pairs reuse that text, and so do the
class and the components of the text report.  A report built by hand whose
parts hold other orbits writes their letters itself, and nothing the
writers build grows with n.
"""

from __future__ import annotations

import itertools
import json
import re

from ._version import __version__
from .monoid import OrbitPartition
from .systems import FAMILIES, SystemSpec

__all__ = [
    "SpecFormatError",
    "parse_spec",
    "spec_to_dict",
    "spec_digest",
    "parse_probe",
    "report_to_dict",
    "canonical_json",
]

_SPEC_KEYS = {"family", "n", "controls", "drift", "agent_space_dim", "initial_distribution"}

# Fraction("1e-10000000") computes 10**10000000 before anything else, so a
# larger exponent than this (Python's default integer-string limit) is refused
_MAX_EXPONENT = 4300
# a pattern, not a compiled regex, so importing this module compiles none
_EXPONENT = r"[eE][-+]?([\d_]+)\s*\Z"


class SpecFormatError(ValueError):
    """A spec or probe document does not match the expected format."""


def _require(condition, message):
    if not condition:
        raise SpecFormatError(message)


def _as_pair(value, what):
    # json.loads yields only list, int and bool here, so exact types suffice
    if type(value) is list and len(value) == 2:
        i, j = value
        if type(i) is int and type(j) is int:
            return (i, j)
    raise SpecFormatError(f"{what} must be a pair of integers, got {value!r}")


def _as_rationals(values, what):
    """``values`` as a tuple of exact numbers; ``what`` names an entry in errors.

    json.loads yields exact types; an int stays an int, which ExactMatrix
    keeps as it is, and only a string is parsed as a Fraction, once its
    exponent, if any, is at most ``_MAX_EXPONENT`` in size.  ``fractions``
    is imported, and the exponent pattern looked up in ``re``'s cache, once
    per call, and only for values that hold a string.
    """
    values = tuple(values)
    if str in set(map(type, values)):
        from fractions import Fraction

        exponent_in = re.compile(_EXPONENT).search
    out = []
    for value in values:
        if type(value) is int:
            out.append(value)
        elif type(value) is str:
            exponent = exponent_in(value)
            digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
            if len(digits) > 4 or int(digits or 0) > _MAX_EXPONENT:
                raise SpecFormatError(f"{what} has an exponent beyond {_MAX_EXPONENT}: {value!r}")
            try:
                out.append(Fraction(value))
            except (ValueError, ZeroDivisionError) as exc:
                raise SpecFormatError(f"{what} is not a rational: {value!r}") from exc
        else:
            raise SpecFormatError(
                f"{what} must be an integer or a rational string, got {value!r}"
            )
    return tuple(out)


def _load_object(text, what):
    """The JSON object that ``text`` holds; ``what`` names the document in errors.

    Its values have exact built-in types, so ``type(x) is int`` tests for an
    integer and rejects a bool.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecFormatError("JSON document is nested too deeply") from exc
    except ValueError as exc:
        # an integer literal longer than Python's integer-string limit
        raise SpecFormatError(
            f"{what} document holds a number that cannot be read: {exc}"
        ) from exc
    _require(isinstance(doc, dict), f"{what} document must be a JSON object")
    return doc


def parse_spec(text):
    """Parse a spec JSON document into a :class:`SystemSpec`."""
    doc = _load_object(text, "spec")
    if "generators" in doc:
        raise SpecFormatError(
            "this document carries matrix generators: use the probe subcommand"
        )
    unknown = set(doc) - _SPEC_KEYS
    _require(not unknown, f"unknown spec keys: {sorted(unknown)}")
    for key in ("family", "n", "controls"):
        _require(key in doc, f"missing required spec key {key!r}")
    _require(doc["family"] in FAMILIES, f"family must be one of {list(FAMILIES)}")
    _require(type(doc["n"]) is int, "n must be an integer")
    _require(isinstance(doc["controls"], list), "controls must be a list of pairs")
    controls = [_as_pair(p, "control pair") for p in doc["controls"]]
    drift = _as_pair(doc["drift"], "drift pair") if doc.get("drift") is not None else None
    agent_space_dim = doc.get("agent_space_dim")
    if agent_space_dim is not None:
        _require(type(agent_space_dim) is int, "agent_space_dim must be an integer")
    dist = doc.get("initial_distribution")
    if dist is not None:
        _require(isinstance(dist, list), "initial_distribution must be a list")
        dist = _as_rationals(dist, "initial_distribution entry")
    try:
        return SystemSpec(
            family=doc["family"],
            n=doc["n"],
            controls=frozenset(controls),
            drift=drift,
            agent_space_dim=agent_space_dim,
            initial_distribution=dist,
        )
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc


def spec_to_dict(spec):
    """Canonical dict form of a spec: the parsed text of its spec file.

    Optional fields appear only when set.
    """
    return json.loads(_spec_text(spec))


def canonical_json(doc):
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline.

    This is the definition of the canonical form.  The CLI writes its reports
    and spec files through :func:`_report_text` and :func:`_spec_text`, which
    give the same bytes without building a dict; the tests compare them with
    this function applied to the dict reference in ``tests/helpers.py``.
    """
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def spec_digest(spec):
    """sha256 over the canonical spec serialization."""
    return _digest(_spec_text(spec))


def _digest(text):
    import hashlib  # here, not at start-up: only analyze reports need it

    return hashlib.sha256(text.encode()).hexdigest()


# The writers below append a document's canonical text to one list of pieces,
# key by key in sorted order, and join the list once.  Strings go through
# json's own escaping; generator labels from a label builder are quoted as
# they are, because no label needs an escape (see systems).
_encode_str = json.encoder.encode_basestring_ascii
_BOOL = ("false", "true")


def _list(items, newline):
    """The JSON list of ``items``, each JSON text, at the indent ``newline`` ends a line with."""
    inner = newline + "  "
    text = ("," + inner).join(items)
    return f"[{inner}{text}{newline}]" if text else "[]"


def _controls_text(controls, names=None):
    """The sorted control pairs as JSON, as both the spec document and the report hold them.

    ``names`` maps letters to their text; a letter it lacks is written from the int.
    """
    pairs = sorted(controls)
    if names is None:
        rows = ",".join([f"\n    [\n      {i},\n      {j}\n    ]" for i, j in pairs])
    else:
        try:
            rows = ",".join(
                [f"\n    [\n      {names[i]},\n      {names[j]}\n    ]" for i, j in pairs]
            )
        except KeyError:  # a report built by hand, whose orbits miss a control letter
            return _controls_text(controls)
    return f"[{rows}\n  ]" if rows else "[]"


def _orbit_letters(report):
    """Each of ``report.orbits`` as letter texts, the text of each letter, and the class text.

    Each letter becomes text here once, and every rendering of an orbit
    reuses it.  When ``report.orbits`` is the orbit tuple of
    ``report.method_class``, an :class:`OrbitPartition` whose letters are
    exact ints, the dict maps each orbit letter to its text and
    ``str(report.method_class)`` is written from the texts.  Otherwise, as in
    a report built by hand, the dict is None and the class writes its own.
    """
    letters = [list(map(str, orbit)) for orbit in report.orbits]
    partition = report.method_class
    if type(partition) is not OrbitPartition or partition.orbits is not report.orbits:
        return letters, None, str(partition)
    names = {}
    for orbit, texts in zip(report.orbits, letters):
        names.update(zip(orbit, texts))
    return letters, names, "".join(["{" + ",".join(texts) + "}" for texts in letters]) or "{}"


def _component_letters(report, letters):
    """Each component with its orbit's letters as text.

    A component whose orbit is the report orbit at its own index, as in
    every report :func:`~ctrlperm.systems.analyze` builds, reuses that
    orbit's ``letters``; any other writes its own.
    """
    orbits = report.orbits
    for at, c in enumerate(report.submanifold.components):
        if at < len(orbits) and c.orbit is orbits[at]:
            yield c, letters[at]
        else:
            yield c, list(map(str, c.orbit))


def _count(value, field):
    """``value`` for a writer's f-string: "null" for None, an exact int as it is.

    Anything else, a bool included, has no JSON text as a count and raises
    ``TypeError`` naming ``field``.
    """
    if value is None:
        return "null"
    if type(value) is not int:
        raise TypeError(f"{field} must be an int or None, got {value!r}")
    return value


def _spec_text(spec, controls=None):
    """The canonical text of a spec file, written directly; the one spec writer.

    ``controls`` is the text of :func:`_controls_text`, when already written.
    """
    nl1 = "\n  "
    out = ["{"]
    if spec.agent_space_dim is not None:
        out.append(f'{nl1}"agent_space_dim": {spec.agent_space_dim},')
    out += (f'{nl1}"controls": ', controls or _controls_text(spec.controls))
    if spec.drift is not None:
        out.append(f',{nl1}"drift": {_list(map(str, spec.drift), nl1)}')
    out.append(f',{nl1}"family": {_encode_str(spec.family)}')
    if spec.initial_distribution is not None:
        entries = (_encode_str(str(x)) for x in spec.initial_distribution)
        out.append(f',{nl1}"initial_distribution": {_list(entries, nl1)}')
    out.append(f',{nl1}"n": {spec.n}\n}}\n')
    return "".join(out)


def _report_text(report, dot=None, closure_basis=None):
    """The canonical text of a report, written in one pass; the one report writer.

    :func:`report_to_dict` is this text parsed, and the tests hold it to
    :func:`canonical_json` of the dict reference in ``tests/helpers.py``.
    ``dot`` (the DOT text) and ``closure_basis`` (a list of grid texts) are
    added under their keys when given.  Each orbit letter is turned into
    text once and reused by every list, class and label that holds it, and
    the control pairs look their letters up in the same text; the pairs are
    written once, for the spec digest and for the report.  An unwritable
    conserved sum raises ``ValueError`` before any text is built, and a dim
    or ``total_dim`` that is neither an exact int nor None raises
    ``TypeError``, as a label that is not a string does.
    """
    nl1, nl2, nl3, nl4 = "\n  ", "\n    ", "\n      ", "\n        "
    spec, sub, oracle = report.spec, report.submanifold, report.oracle
    sums = frozen = None
    if sub.conserved_sums is not None:
        sums = [(_list(map(str, orbit), nl4), value) for orbit, value in _sum_texts(sub)]
    if sub.frozen_states is not None:
        frozen = [(state, str(value)) for state, value in sub.frozen_states]
    letters, names, class_text = _orbit_letters(report)
    controls = _controls_text(spec.controls, names)
    out = ["{"]
    if closure_basis is not None:
        out.append(f'{nl1}"closure_basis": {_list(map(_encode_str, closure_basis), nl1)},')
    out += (f'{nl1}"controllable": {_BOOL[report.controllable]},{nl1}"controls": ', controls, ",")
    if dot is not None:
        out.append(f'{nl1}"dot": {_encode_str(dot)},')
    drift = "null" if spec.drift is None else _list(map(str, spec.drift), nl1)
    out.append(
        f'{nl1}"drift": {drift},{nl1}"family": {_encode_str(spec.family)},'
        f'{nl1}"fixed_points": {_list(map(str, report.fixed_points), nl1)},'
        f'{nl1}"method_class": {_encode_str(class_text)},'
        f'{nl1}"min_controls_satisfied": {_BOOL[report.min_controls_satisfied]},'
        f'{nl1}"n": {spec.n},{nl1}"oracle": '
    )
    if oracle is None:
        out.append("null")
    else:
        orbits = _list([_list(map(str, o), nl3) for o in oracle.orbits], nl2)
        out.append(
            f'{{{nl2}"agrees": {_BOOL[oracle.agrees]},'
            f'{nl2}"controllable": {_BOOL[oracle.controllable]},'
            f'{nl2}"dim": {_count(oracle.dim, "the oracle dim")},{nl2}"orbits": {orbits}{nl1}}}'
        )
    orbits = _list([_list(texts, nl2) for texts in letters], nl1)
    out.append(
        f',{nl1}"orbits": {orbits},{nl1}"provenance": {{'
        f'{nl2}"oracle_ran": {_BOOL[oracle is not None]},'
        f'{nl2}"spec_digest": "{_digest(_spec_text(spec, controls))}",'
        f'{nl2}"tool_version": {_encode_str(__version__)}{nl1}}},'
        f'{nl1}"submanifold": {{{nl2}"components": '
    )
    sep = "["
    for c, texts in _component_letters(report, letters):
        dim = _count(c.dim, "a component dim")
        if c._labels is None:
            # a tuple given by hand may hold any labels
            labels = (_list(map(_encode_str, c._generators), nl4),)
        else:
            text = c._labels(texts, f'",{nl4}  "')
            labels = (f'[{nl4}  "', text, f'"{nl4}]') if text else ("[]",)
        out += (f'{sep}{nl3}{{{nl4}"dim": {dim},{nl4}"generators": ', *labels)
        out.append(f',{nl4}"orbit": {_list(texts, nl4)}{nl3}}}')
        sep = ","
    out.append(f"{nl2}]" if sub.components else "[]")
    total = _count(sub.total_dim, "total_dim")
    out.append(
        f',{nl2}"conserved_sums": {_records("orbit", sums)},'
        f'{nl2}"frozen_states": {_records("state", frozen)},'
        f'{nl2}"state_space": {_encode_str(sub.state_space)},{nl2}"total_dim": {total}{nl1}}}\n}}\n'
    )
    return "".join(out)


def _records(key, rows):
    """A submanifold list of ``{key: ..., "value": ...}`` objects; null for None.

    Each row holds the JSON text under ``key`` and the value's string.
    """
    if rows is None:
        return "null"
    nl3, nl4 = "\n      ", "\n        "
    return _list(
        [f'{{{nl4}"{key}": {k},{nl4}"value": {_encode_str(v)}{nl3}}}' for k, v in rows], "\n    "
    )


def _pairs_text(pairs):
    return " ".join([f"({i},{j})" for i, j in pairs]) if pairs else "none"


def _text_report(report, dot=None, closure_basis=None):
    """The human-readable report; the one ``--text`` writer.

    It takes what :func:`_report_text` takes.  The report's lines come
    first, then ``dot`` when given, then, when ``closure_basis`` is given,
    a ``closure basis:`` line and each grid followed by a blank line.  The
    orbit letters, the class and the labels are written as the JSON writer
    writes them, and an unwritable conserved sum raises the same
    ``ValueError``.
    """
    spec, sub = report.spec, report.submanifold
    letters, _, class_text = _orbit_letters(report)
    lines = [
        f"family:         {spec.family}",
        f"n:              {spec.n}",
        f"controls:       {_pairs_text(sorted(spec.controls))}",
        f"drift:          {_pairs_text([spec.drift]) if spec.drift else 'none'}",
        f"verdict:        {'controllable' if report.controllable else 'not controllable'}",
        f"orbit class:    {class_text}",
        f"fixed points:   {', '.join(map(str, report.fixed_points)) or 'none'}",
        f"min controls:   {'satisfied' if report.min_controls_satisfied else 'NOT satisfied'}"
        f" (needs >= {spec.n - 1})",
        f"state space:    {sub.state_space}",
    ]
    if sub.components:
        lines.append("components:")
        for c, texts in _component_letters(report, letters):
            dim = "dim ?" if c.dim is None else f"dim {c.dim}"
            # a tuple given by hand has no label builder
            labels = " ".join(c._generators) if c._labels is None else c._labels(texts, " ")
            lines.append(f"  {{{','.join(texts)}}}  {dim}  {labels}")
    lines.append(f"total dim:      {'?' if sub.total_dim is None else sub.total_dim}")
    if sub.conserved_sums is not None:
        for orbit, value in _sum_texts(sub):
            lines.append("conserved sum:  {" + ",".join(map(str, orbit)) + "} = " + value)
        for state, value in sub.frozen_states:
            lines.append(f"frozen state:   {state} = {value}")
    if report.oracle is not None:
        o = report.oracle
        lines.append(
            f"oracle:         dim {o.dim}, "
            f"{'controllable' if o.controllable else 'not controllable'}, "
            f"{'agrees' if o.agrees else 'DISAGREES'}"
        )
    out = ["\n".join(lines), "\n", dot or ""]
    if closure_basis is not None:
        out.append("closure basis:\n")
        out += [grid + "\n\n" for grid in closure_basis]
    return "".join(out)


def parse_probe(text):
    """Parse a probe document: ``{"n": int, "generators": [grid, ...]}``.

    Each grid is a list of rows of integers or rational strings.
    """
    from .liealg import ExactMatrix  # the oracle route loads on first use

    doc = _load_object(text, "probe")
    unknown = set(doc) - {"n", "generators"}
    _require(not unknown, f"unknown probe keys: {sorted(unknown)}")
    _require(type(doc.get("n")) is int, "probe document needs an integer n")
    n = doc["n"]
    _require(n >= 1, f"probe n must be at least 1, got {n}")
    gens = doc.get("generators")
    _require(isinstance(gens, list) and gens, "probe document needs a nonempty generators list")
    matrices = []
    for idx, grid in enumerate(gens):
        _require(
            isinstance(grid, list) and len(grid) == n
            and all(isinstance(row, list) and len(row) == n for row in grid),
            f"generator {idx} must be an {n}x{n} grid",
        )
        flat = _as_rationals(itertools.chain.from_iterable(grid), f"generator {idx} entry")
        matrices.append(ExactMatrix([flat[at : at + n] for at in range(0, n * n, n)]))
    return n, matrices


def _sum_texts(submanifold):
    """``(orbit, str(sum))`` for each conserved sum.

    :func:`_report_text` and :func:`_text_report` write these.  A sum of
    writable entries can have more digits than ``str`` writes; that raises
    ``ValueError`` naming the orbit, before anything is written.
    """
    texts = []
    for orbit, value in submanifold.conserved_sums:
        try:
            texts.append((orbit, str(value)))
        except ValueError:
            letters = ",".join(map(str, orbit))
            raise ValueError(
                f"the conserved sum of orbit {{{letters}}} has more digits than can be written"
            ) from None
    return texts


def report_to_dict(report):
    """Dict form of a report: the parsed text of :func:`_report_text`.

    Every value is JSON-native, and :func:`canonical_json` of the dict gives
    the CLI's report bytes.  ``oracle_ran`` says whether the report carries
    an oracle result.  A component built by hand whose labels are not all
    strings raises ``TypeError``, as the CLI's writer does.  The parse costs
    more than the writing: the dict of an so_n path report on 300 letters
    takes 4.7 ms, of which writing the text is 1.9 ms.
    """
    return json.loads(_report_text(report))
