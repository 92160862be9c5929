"""Exact-rational entries and the one guarded reader of rational strings.

The module loads with the first markov distribution, probe document or
string entry of a matrix.  A spec without an ``initial_distribution`` never compiles this module nor
loads ``fractions``.  It imports nothing from ``specio``, so a
:class:`~ctrlperm.systems.SystemSpec` built in Python never loads ``json``;
its ``ValueError`` texts are the ones ``parse_spec`` and ``parse_probe``
report as a ``SpecFormatError``.
"""

import re
from fractions import Fraction
from math import lcm

# Fraction("1e-10000000") computes 10**10000000 before anything else, so a
# larger exponent than this (Python's default integer-string limit) is refused
_MAX_EXPONENT = 4300
_exponent_in = re.compile(r"[eE][-+]?([\d_]+)\s*\Z").search


def rational(text, what):
    """The Fraction the string ``text`` spells; ``what`` names the entry in errors.

    Every rational string the library reads comes through here: an exponent
    beyond ``_MAX_EXPONENT`` in size is refused before ``Fraction`` computes
    its power of ten.
    """
    exponent = _exponent_in(text)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > 4 or int(digits or 0) > _MAX_EXPONENT:
        raise ValueError(f"{what} has an exponent beyond {_MAX_EXPONENT}: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{what} is not a rational: {text!r}") from exc


def as_rationals(values, what):
    """``values`` as a tuple of exact numbers; ``what`` names an entry in errors.

    json.loads yields exact types; an int stays an int, which ExactMatrix
    keeps as it is, and only a string is parsed, by :func:`rational`.
    """
    out = []
    for value in values:
        if type(value) is int:
            out.append(value)
        elif type(value) is str:
            out.append(rational(value, what))
        else:
            raise ValueError(f"{what} must be an integer or a rational string, got {value!r}")
    return tuple(out)


def distribution(values, n):
    """``values`` checked as a markov initial distribution on ``n`` letters, as Fractions.

    Each entry is an int, a Fraction or a rational string, as a matrix
    entry is; anything else, a float too, raises :class:`TypeError`.  A
    plain Fraction is kept, a string is read by :func:`rational` and any
    other entry, a subclass too, is converted.  The entries must be
    writable with ``str``, n of them, nonnegative and summing to 1; a
    ``ValueError`` names the first rule broken.
    """
    dist = []
    for at, x in enumerate(values):
        if isinstance(x, str):
            x = rational(x, f"initial_distribution entry {at}")
        elif not isinstance(x, (int, Fraction)):
            raise TypeError(
                f"initial_distribution entry {at} must be an int, a Fraction or a rational"
                f" string, got {x!r}"
            )
        dist.append(x if type(x) is Fraction else Fraction(x))
    dist = tuple(dist)
    for at, value in enumerate(dist):
        # a report writes each entry back with str
        try:
            str(value)
        except ValueError:
            raise ValueError(
                f"initial_distribution entry {at} has more digits than can be written"
            ) from None
    if len(dist) != n:
        raise ValueError(f"initial_distribution length {len(dist)} != n={n}")
    # a normalized Fraction carries its sign in the numerator
    if any(x.numerator < 0 for x in dist):
        raise ValueError("initial_distribution entries must be nonnegative")
    total, common = common_sum(dist)
    if total != common:
        try:
            got = f", got {sum(dist)}"
        except ValueError:  # more digits than Python writes an integer with
            got = ""
        raise ValueError(f"initial_distribution must sum to 1{got}")
    return dist


def common_sum(values):
    """``(total, L)`` with ``sum(values) == total / L``: one integer sum of Fractions.

    L is the lcm of the denominators, so each value is numerator * (L //
    denominator) / L, and no Fraction is added or normalized on the way.
    """
    common = lcm(*[x.denominator for x in values])
    return sum([x.numerator * (common // x.denominator) for x in values]), common
