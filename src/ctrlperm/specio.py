"""JSON formats for spec files and report files.

Rationals travel as strings ("3/5") because JSON numbers are floats.
Serialization is canonical: orbits and pair lists sorted, optional null fields
omitted from spec files, and the text is by definition the bytes of
``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline.  That definition
is fixed because :func:`spec_digest` hashes it: identical specs produce
byte-identical reports, and the spec digest identifies the parsed content
rather than the file bytes.
"""

from __future__ import annotations

import itertools
import json
import re

from ._version import __version__
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
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


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
    is imported once, and only for values that hold a string.
    """
    values = tuple(values)
    if str in set(map(type, values)):
        from fractions import Fraction
    out = []
    for value in values:
        if type(value) is int:
            out.append(value)
        elif type(value) is str:
            exponent = _EXPONENT.search(value)
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
        for at, value in enumerate(dist):
            # spec_to_dict writes each entry back with str
            try:
                str(value)
            except ValueError:
                raise SpecFormatError(
                    f"initial_distribution entry {at} has more digits than can be written"
                ) from None
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
    """Canonical dict form of a spec; optional fields appear only when set."""
    doc = {
        "family": spec.family,
        "n": spec.n,
        "controls": [list(p) for p in sorted(spec.controls)],
    }
    if spec.drift is not None:
        doc["drift"] = list(spec.drift)
    if spec.agent_space_dim is not None:
        doc["agent_space_dim"] = spec.agent_space_dim
    if spec.initial_distribution is not None:
        doc["initial_distribution"] = [str(x) for x in spec.initial_distribution]
    return doc


_encode_str = json.encoder.encode_basestring_ascii
# the characters encode_basestring_ascii leaves as they are: printable ASCII
# but the quote and the backslash
_VERBATIM = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')


def canonical_json(doc):
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline.

    The text is exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\n"``,
    and a value ``json.dumps`` rejects raises the same ``TypeError``.  It is
    written directly because ``json.dumps`` serves ``indent`` only through its
    pure-Python encoder, which is several times slower on report-sized lists.

    Report-sized lists take bulk paths, each one ``join`` or ``%`` in C:

    * a list or tuple whose first item is a ``str`` is tried with one
      ``"".join``, which is also its type check: a ``TypeError`` from it sends
      the value to the paths below;
    * a list of ``str``s whose concatenation is printable ASCII without
      ``"`` or ``\\`` needs no escaping, so each item is quoted as it is;
      otherwise each item is escaped in one ``join``;
    * a list of only plain ``int``s is joined in one go;
    * a list of equal-length, nonempty lists or tuples of plain ``int``s (the
      control pairs) is written through one ``%d`` row template.

    A ``str`` subclass is written as its text, as ``json.dumps`` writes it;
    bools and other ``int`` subclasses take the item-by-item path.

    The CLI's report also holds a private :class:`_LabelText` in place of
    each label list, written as ``json.dumps`` writes the list.
    """
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline, out):
    """Append ``value``'s JSON text to ``out``; ``newline`` ends a line at its indent."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if isinstance(value[0], str):
            # the join is the type check: it raises TypeError at any item
            # that is not a str
            try:
                text = "".join(value)
            except TypeError:
                pass
            else:
                if text.isascii() and not text.encode().translate(None, _VERBATIM):
                    # no item needs an escape, so each is its own JSON string body
                    out += ("[", inner, '"', ('",' + inner + '"').join(value), '"', newline, "]")
                else:
                    out += ("[", inner, ("," + inner).join(map(_encode_str, value)), newline, "]")
                return
        kinds = set(map(type, value))
        if kinds == {int}:
            out += ("[", inner, ("," + inner).join(map(int.__repr__, value)), newline, "]")
            return
        if kinds <= {list, tuple} and _write_int_rows(value, inner, newline, out):
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out += (newline, "]")
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out += (sep, _encode_str(key), ": ")
            _write(item, inner, out)
            sep = "," + inner
        out += (newline, "}")
    elif value.__class__ is _LabelText:
        text = value.text
        if not text:
            out.append("[]")
            return
        inner = newline + "  "
        # no label needs an escape, so each is its own JSON string body
        out += ("[", inner, '"', text.replace(" ", '",' + inner + '"'), '"', newline, "]")
    else:
        # floats, dicts with non-string keys and unsupported types: json's own
        # text for the value, moved to this indent, or its TypeError
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


class _LabelText:
    """A component's labels joined by spaces, as :mod:`ctrlperm.systems` builds them.

    Only ``report_to_dict(report, _label_text=True)`` makes one, for the CLI.
    No label holds a space, ``"``, ``\\`` or a non-printable character, so
    :func:`canonical_json` quotes them all with one ``replace``.
    """

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


def _write_int_rows(rows, inner, newline, out):
    """Write equal-length, nonempty rows of plain ints through one row template.

    Returns False, writing nothing, for any other list of lists or tuples.
    """
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return False
    # through a list: tuple() of an iterator of unknown length allocates ten
    # slots and resizes, so each call moves a tuple onto the interpreter's
    # free list for another size, and those lists fill up and hold their
    # memory until a full garbage collection
    cells = tuple([*itertools.chain.from_iterable(rows)])
    if set(map(type, cells)) != {int}:
        return False
    cell = inner + "  "
    row = "[" + cell + ("," + cell).join(["%d"] * widths.pop()) + inner + "]"
    out += ("[", inner, ("," + inner).join([row] * len(rows)) % cells, newline, "]")
    return True


def spec_digest(spec):
    """sha256 over the canonical spec serialization."""
    return _digest(spec_to_dict(spec))


def _digest(spec_doc):
    import hashlib  # here, not at start-up: only analyze reports need it

    return hashlib.sha256(canonical_json(spec_doc).encode()).hexdigest()


def parse_probe(text):
    """Parse a probe document: ``{"n": int, "generators": [grid, ...]}``.

    Each grid is a list of rows of integers or rational strings.
    """
    from .liealg import ExactMatrix  # the oracle route loads on first use

    doc = _load_object(text, "probe")
    unknown = set(doc) - {"n", "generators"}
    _require(not unknown, f"unknown probe keys: {sorted(unknown)}")
    _require(type(doc.get("n")) is int, "probe document needs an integer n")
    gens = doc.get("generators")
    _require(isinstance(gens, list) and gens, "probe document needs a nonempty generators list")
    n = doc["n"]
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
    """``(orbit, str(sum))`` for each conserved sum, for both report writers.

    A sum of writable entries can have more digits than ``str`` writes; that
    raises ``ValueError`` naming the orbit, before anything is written.
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


def report_to_dict(report, *, _label_text=False):
    """Dict form of a report, ready for :func:`canonical_json`.

    One :func:`spec_to_dict` of ``report.spec`` gives both the spec digest
    and the report's family, n, controls and drift; ``oracle_ran`` says
    whether the report carries an oracle result.  Every value is JSON-native,
    unless the CLI passes the private ``_label_text=True`` for a report from
    :func:`~ctrlperm.systems.analyze`: then each component's label list stays
    its label text, a :class:`_LabelText`, which only :func:`canonical_json`
    writes.
    """
    spec_doc = spec_to_dict(report.spec)
    sub = report.submanifold
    doc = {
        "provenance": {
            "tool_version": __version__,
            "spec_digest": _digest(spec_doc),
            "oracle_ran": report.oracle is not None,
        },
        "family": spec_doc["family"],
        "n": spec_doc["n"],
        "controls": spec_doc["controls"],
        "drift": spec_doc.get("drift"),
        "controllable": report.controllable,
        "method_class": str(report.method_class),
        "orbits": [list(o) for o in report.orbits],
        "fixed_points": list(report.fixed_points),
        "min_controls_satisfied": report.min_controls_satisfied,
        "oracle": None,
        "submanifold": {
            "state_space": sub.state_space,
            "total_dim": sub.total_dim,
            "components": [
                {
                    "orbit": list(c.orbit),
                    "dim": c.dim,
                    "generators": _LabelText(c._text) if _label_text else list(c.generators),
                }
                for c in sub.components
            ],
            "conserved_sums": None,
            "frozen_states": None,
        },
    }
    if report.oracle is not None:
        doc["oracle"] = {
            "dim": report.oracle.dim,
            "controllable": report.oracle.controllable,
            "orbits": [list(o) for o in report.oracle.orbits],
            "agrees": report.oracle.agrees,
        }
    if sub.conserved_sums is not None:
        doc["submanifold"]["conserved_sums"] = [
            {"orbit": list(orbit), "value": value} for orbit, value in _sum_texts(sub)
        ]
    if sub.frozen_states is not None:
        doc["submanifold"]["frozen_states"] = [
            {"state": state, "value": str(value)}
            for state, value in sub.frozen_states
        ]
    return doc
