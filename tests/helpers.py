"""Shared helpers for the test suite: seeded random builders, the
transposition-decomposition oracle used to cross-check partition-level
operations at the permutation level, a dense reference algebra and
bracket-closure engine that share no code with ``ctrlperm.liealg``, and
dict references for the report and spec documents that share no code with
``ctrlperm.specio``."""

import hashlib
import itertools
import json
from fractions import Fraction
from math import gcd

from ctrlperm import __version__
from ctrlperm.permutation import Permutation, cycle_decomposition


def sorted_pair(a, b):
    return (a, b) if a < b else (b, a)


def transposition_decomposition(sigma):
    """Index pairs whose ordered product reconstructs ``sigma`` exactly.

    Walks each cycle (a1, ..., ak) and emits (a1,a2), (a2,a3), ...; the
    list-order product of those transpositions is the cycle itself.
    """
    pairs = []
    for cycle in cycle_decomposition(sigma).cycles:
        for a, b in zip(cycle, cycle[1:]):
            pairs.append(sorted_pair(a, b))
    return pairs


def random_permutation(rng, n):
    image = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        image[i], image[j] = image[j], image[i]
    return Permutation(image)


def random_orbit_sets(rng, n):
    """A random collection of disjoint orbits (each >= 2 letters) of 1..n."""
    letters = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        letters[i], letters[j] = letters[j], letters[i]
    orbits = []
    at = 0
    while n - at >= 2:
        if rng.random() < 0.3:
            at += 1  # leave a fixed point
            continue
        biggest = min(4, n - at)
        size = 2 + int(rng.random() * (biggest - 1))
        orbits.append(frozenset(letters[at : at + size]))
        at += size
    return orbits


def random_representative(rng, n, orbits):
    """A random permutation whose nontrivial orbits are exactly ``orbits``."""
    cycles = []
    for orbit in orbits:
        cycle = sorted(orbit)
        for i in range(len(cycle) - 1, 0, -1):
            j = int(rng.random() * (i + 1))
            cycle[i], cycle[j] = cycle[j], cycle[i]
        cycles.append(tuple(cycle))
    return Permutation.from_cycles(n, cycles)


def spanning_tree_pairs(rng, orbit):
    """Random spanning-tree edges over an orbit; merging them yields the orbit."""
    order = sorted(orbit)
    for i in range(len(order) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        order[i], order[j] = order[j], order[i]
    pairs = []
    for at in range(1, len(order)):
        anchor = order[int(rng.random() * at)]
        pairs.append(sorted_pair(anchor, order[at]))
    return pairs


def shuffled(rng, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def sample_pairs(rng, n, m):
    """m distinct index pairs drawn uniformly from the n(n-1)/2 possible.

    Pops each draw from the list of all pairs: the definition that
    ``ctrlperm._commands._sample_pairs`` must reproduce without building the list.
    """
    pool = list(itertools.combinations(range(1, n + 1), 2))
    assert m <= len(pool)
    chosen = []
    for _ in range(m):
        idx = min(int(rng.random() * len(pool)), len(pool) - 1)
        chosen.append(pool.pop(idx))
    return chosen


def reference_rotation_labels(orbit):
    """Generator labels of a rotation orbit, one f-string per pair."""
    return tuple(f"rot({i},{j})" for i, j in itertools.combinations(orbit, 2))


def reference_agent_labels(orbit):
    """Generator labels of an agent orbit: pairs, then triples."""
    couples = tuple(f"couple({i},{j})" for i, j in itertools.combinations(orbit, 2))
    circs = tuple(f"circ({i},{j},{k})" for i, j, k in itertools.combinations(orbit, 3))
    return couples + circs


# ------------------------------------------------ dense reference algebra
#
# Square matrices as tuples of exact rows, with the dense sum, product and
# bracket, the standard generators written out from their definitions, and
# the shape predicates.  The tests compare the library's bracket, structure
# constants and closure with this reference, so it imports nothing from
# ``ctrlperm.liealg``; it reads a library matrix only through its ``rows``.


class Dense:
    """A square matrix of ints and Fractions, as a tuple of rows."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(map(tuple, rows))

    @classmethod
    def of(cls, matrix):
        """The reference copy of a library ``ExactMatrix``."""
        return cls(matrix.rows)

    @classmethod
    def zeros(cls, n):
        return cls([0] * n for _ in range(n))

    def __eq__(self, other):
        return isinstance(other, Dense) and self.rows == other.rows

    def __repr__(self):
        return f"Dense({[list(row) for row in self.rows]!r})"

    def __add__(self, other):
        return Dense([a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows))

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        return Dense([c * a for a in row] for row in self.rows)

    def __matmul__(self, other):
        cols = tuple(zip(*other.rows))
        return Dense([sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows)

    def transpose(self):
        return Dense(zip(*self.rows))

    def entries(self):
        """The nonzero entries as a ``{(row, col): value}`` map, 0-based."""
        return {(i, j): a for i, row in enumerate(self.rows) for j, a in enumerate(row) if a}

    def is_symmetric(self):
        return self == self.transpose()

    def is_skew_symmetric(self):
        return not (self + self.transpose()).entries()

    def has_zero_sums(self):
        """Every row sum and every column sum is zero."""
        return not any(map(sum, self.rows)) and not any(map(sum, zip(*self.rows)))


def dense_bracket(a, b):
    return a @ b - b @ a


def unit(n, i, j):
    """The n-by-n matrix E_ij: a single 1 at row i, column j, 1-based."""
    return Dense([int((r, c) == (i, j)) for c in range(1, n + 1)] for r in range(1, n + 1))


def rotation(n, i, j):
    """The rotation generator of the (i, j) plane: E_ij - E_ji."""
    return unit(n, i, j) - unit(n, j, i)


def coupling(n, i, j):
    """The coupling of i and j: E_ij + E_ji - E_ii - E_jj."""
    return unit(n, i, j) + unit(n, j, i) - unit(n, i, i) - unit(n, j, j)


def circulation(n, i, j, k):
    """The circulation among i, j and k: [coupling(i, j), coupling(j, k)].

    It is skew-symmetric with zero row sums, and swapping two of the three
    letters flips its sign.
    """
    return rotation(n, i, k) + rotation(n, j, i) + rotation(n, k, j)


def reference_grid(rows):
    """Dense grid text of a matrix's exact rows, one ``str`` per cell.

    The writer ``ExactMatrix.format_grid`` had before grids were written
    from entry maps.
    """
    return "\n".join(" ".join(str(a) for a in row) for row in rows)


# ------------------------------------------- reference closure engine
#
# The bracket-closure engine as it was before sparse storage: an all-pairs
# worklist over :class:`Dense` matrices, with a dense integer echelon row
# space.  It pins the library's closure basis exactly.


def _dense_primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g > 1:
        vec = [x // g for x in vec]
    for x in vec:
        if x:
            if x < 0:
                vec = [-y for y in vec]
            break
    return vec


def _dense_integer_vector(exact_vec):
    denom = 1
    for x in exact_vec:
        d = Fraction(x).denominator
        denom = denom * d // gcd(denom, d)
    return _dense_primitive([int(x * denom) for x in exact_vec])


class DenseRowSpace:
    """Primitive integer rows in reduced echelon form, dense and ordered by pivot."""

    def __init__(self):
        self.rows = []
        self.pivots = []

    def insert(self, exact_vec):
        vec = _dense_integer_vector(exact_vec)
        for row, p in zip(self.rows, self.pivots):
            c = vec[p]
            if c:
                vec = [row[p] * x - c * y for x, y in zip(vec, row)]
        if not any(vec):
            return False
        vec = _dense_primitive(vec)
        pivot = next(i for i, x in enumerate(vec) if x)
        a = vec[pivot]
        for idx, row in enumerate(self.rows):
            c = row[pivot]
            if c:
                self.rows[idx] = _dense_primitive([a * x - c * y for x, y in zip(row, vec)])
        at = 0
        while at < len(self.pivots) and self.pivots[at] < pivot:
            at += 1
        self.rows.insert(at, vec)
        self.pivots.insert(at, pivot)
        return True


def reference_closure_basis(generators):
    """Closure basis by brackets of every new element with every element so far.

    The generators are library matrices, and the basis is :class:`Dense`.
    """
    space = DenseRowSpace()

    def insert(m):
        return space.insert([x for row in m.rows for x in row])

    mats = [g for g in map(Dense.of, generators) if insert(g)]
    head = 0
    while head < len(mats):
        x = mats[head]
        head += 1
        for y in mats[:head]:
            b = dense_bracket(x, y)
            if insert(b):
                mats.append(b)
    n = generators[0].n
    return tuple(Dense(row[i * n : (i + 1) * n] for i in range(n)) for row in space.rows)


# ------------------------------------------ reference subgroup order
#
# The subgroup order as it was found before the stabilizer chain: every
# element listed, breadth first.  Exponential in n, so only for the small
# groups the tests draw; it pins ``generate_subgroup``'s order exactly.


def reference_subgroup_order(generators, n):
    """Order of the subgroup of S_n generated by ``generators``, by listing it."""
    seen = {tuple(range(1, n + 1))}
    frontier = list(seen)
    while frontier:
        next_frontier = []
        for img in frontier:
            for g in generators:
                prod = tuple(g.image[v - 1] for v in img)
                if prod not in seen:
                    seen.add(prod)
                    next_frontier.append(prod)
        frontier = next_frontier
    return len(seen)


# ------------------------------------------- reference report documents
#
# The dict forms of a spec file and a report, built field by field as
# ``specio`` built them before it wrote each document in one pass.  The tests
# compare the writers' text with ``json.dumps(doc, sort_keys=True, indent=2)``
# of these dicts, so this section imports nothing from ``ctrlperm.specio``:
# it hashes the spec digest and writes the conserved sums itself.


def reference_spec_dict(spec):
    """Canonical dict form of a spec; optional fields appear only when set."""
    doc = {"family": spec.family, "n": spec.n, "controls": [list(p) for p in sorted(spec.controls)]}
    if spec.drift is not None:
        doc["drift"] = list(spec.drift)
    if spec.agent_space_dim is not None:
        doc["agent_space_dim"] = spec.agent_space_dim
    if spec.initial_distribution is not None:
        doc["initial_distribution"] = [str(x) for x in spec.initial_distribution]
    return doc


def reference_report_dict(report):
    """Dict form of a report; every value is JSON-native."""
    spec_doc = reference_spec_dict(report.spec)
    spec_text = json.dumps(spec_doc, sort_keys=True, indent=2) + "\n"
    sub = report.submanifold
    doc = {
        "provenance": {
            "tool_version": __version__,
            "spec_digest": hashlib.sha256(spec_text.encode()).hexdigest(),
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
                {"orbit": list(c.orbit), "dim": c.dim, "generators": list(c.generators)}
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
            {"orbit": list(orbit), "value": str(value)} for orbit, value in sub.conserved_sums
        ]
    if sub.frozen_states is not None:
        doc["submanifold"]["frozen_states"] = [
            {"state": state, "value": str(value)} for state, value in sub.frozen_states
        ]
    return doc


def reference_text(report, dot=None, closure_basis=None):
    """The ``--text`` report, each line written from the report's public fields.

    ``dot`` follows the report's lines, then a ``closure basis:`` line and
    each grid of ``closure_basis`` followed by a blank line.
    """
    spec, sub = report.spec, report.submanifold

    def pairs(items):
        return " ".join(f"({i},{j})" for i, j in items) if items else "none"

    def letters(orbit):
        return "{" + ",".join(str(a) for a in orbit) + "}"

    lines = [
        f"family:         {spec.family}",
        f"n:              {spec.n}",
        f"controls:       {pairs(sorted(spec.controls))}",
        f"drift:          {pairs([spec.drift]) if spec.drift else 'none'}",
        f"verdict:        {'controllable' if report.controllable else 'not controllable'}",
        f"orbit class:    {report.method_class}",
        f"fixed points:   {', '.join(str(a) for a in report.fixed_points) or 'none'}",
        f"min controls:   {'satisfied' if report.min_controls_satisfied else 'NOT satisfied'}"
        f" (needs >= {spec.n - 1})",
        f"state space:    {sub.state_space}",
    ]
    if sub.components:
        lines.append("components:")
        for c in sub.components:
            dim = "dim ?" if c.dim is None else f"dim {c.dim}"
            lines.append(f"  {letters(c.orbit)}  {dim}  {' '.join(c.generators)}")
    lines.append(f"total dim:      {'?' if sub.total_dim is None else sub.total_dim}")
    if sub.conserved_sums is not None:
        lines += [f"conserved sum:  {letters(orbit)} = {value}" for orbit, value in sub.conserved_sums]
        lines += [f"frozen state:   {state} = {value}" for state, value in sub.frozen_states]
    if report.oracle is not None:
        o = report.oracle
        lines.append(
            f"oracle:         dim {o.dim}, {'controllable' if o.controllable else 'not controllable'},"
            f" {'agrees' if o.agrees else 'DISAGREES'}"
        )
    text = "\n".join(lines) + "\n"
    if dot is not None:
        text += dot
    if closure_basis is not None:
        text += "closure basis:\n"
        for grid in closure_basis:
            text += grid + "\n\n"
    return text


# ------------------------------------------------------- reference spec read


def reference_read(path):
    """A spec file's text as text mode reads it, universal newlines and all.

    ``cli._read`` must give the same text, or raise a ``ValueError`` with the
    same message, for every file.  An unreadable path raises a plain
    ``ValueError`` here, ``SpecFormatError`` there.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")


# ------------------------------------------- reference command-line parser


def reference_parser():
    """The argparse parser that ``ctrlperm.cli`` used before its own table.

    It is the grammar reference: every command line must give the fields,
    the help or the usage error that this parser gives.
    """
    import argparse

    from ctrlperm import _commands, cli
    from ctrlperm.systems import FAMILIES

    parser = argparse.ArgumentParser(
        prog="ctrlperm",
        description=(
            "Decide controllability of right-invariant bilinear systems by orbit"
            " merging on index pairs, with an exact Lie-algebra rank oracle for"
            " cross-validation. Exit codes: 0 controllable / full agreement,"
            " 1 not controllable / disagreement, 2 input error."
        ),
    )
    parser.add_argument("--version", action="version", version=f"ctrlperm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one spec file")
    p.add_argument("spec", help="path to a spec JSON file")
    p.add_argument("--oracle", action="store_true", help="also run the exact rank oracle")
    p.add_argument("--dot", action="store_true", help="emit the control graph as DOT")
    p.add_argument(
        "--dump-basis",
        action="store_true",
        help="emit the bracket-closure basis as rational grids",
    )
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report on stdout (default)")
    fmt.add_argument("--text", action="store_true", help="human-readable report")
    p.set_defaults(func=cli._cmd_analyze)

    p = sub.add_parser("compare", help="cross-validate the two methods")
    p.add_argument("spec", nargs="?", help="path to a spec JSON file")
    p.add_argument(
        "--random",
        nargs=4,
        type=int,
        metavar=("N", "M", "SEED", "COUNT"),
        help="compare on COUNT random so_n specs with M pairs on N letters",
    )
    p.set_defaults(func=_commands._cmd_compare)

    p = sub.add_parser("probe", help="experimental subgroup probe for nonstandard generators")
    p.add_argument("spec", help="path to a probe JSON file with matrix generators")
    p.set_defaults(func=_commands._cmd_probe)

    p = sub.add_parser("gen", help="generate a random spec file on stdout")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int, help="number of control pairs")
    p.add_argument("seed", type=int)
    p.set_defaults(func=_commands._cmd_gen)

    return parser
