"""Exact-rational entries, loaded with the first markov distribution or probe document.

A spec without an ``initial_distribution`` never compiles this module nor
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


def as_rationals(values, what):
    """``values`` as a tuple of exact numbers; ``what`` names an entry in errors.

    json.loads yields exact types; an int stays an int, which ExactMatrix
    keeps as it is, and only a string is parsed as a Fraction, once its
    exponent, if any, is at most ``_MAX_EXPONENT`` in size.
    """
    out = []
    for value in values:
        if type(value) is int:
            out.append(value)
        elif type(value) is str:
            exponent = _exponent_in(value)
            digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
            if len(digits) > 4 or int(digits or 0) > _MAX_EXPONENT:
                raise ValueError(f"{what} has an exponent beyond {_MAX_EXPONENT}: {value!r}")
            try:
                out.append(Fraction(value))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{what} is not a rational: {value!r}") from exc
        else:
            raise ValueError(f"{what} must be an integer or a rational string, got {value!r}")
    return tuple(out)


def distribution(values, n):
    """``values`` checked as a markov initial distribution on ``n`` letters, as Fractions.

    A plain Fraction is kept; anything else, a subclass too, is converted.
    The entries must be writable with ``str``, n of them, nonnegative and
    summing to 1; a ``ValueError`` names the first rule broken.
    """
    dist = tuple(x if type(x) is Fraction else Fraction(x) for x in values)
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
