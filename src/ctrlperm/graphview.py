"""Graph view of a control pattern.

Every spec induces an undirected, unweighted graph on the letters, with one
edge per control (or drift) pair.  Its connected components are the spec's
orbits plus one singleton per fixed point, so connectivity has one answer,
the orbit partition's ``is_full()``, and a lone letter is no orbit.  This
module holds the graph and its DOT text.
"""

from __future__ import annotations

from ._record import Record, setfield
from .monoid import check_letter_count, check_pair

__all__ = [
    "ControlGraph",
    "control_graph",
    "to_dot",
]


class ControlGraph(Record):
    """Undirected simple graph on vertices 1..n with edges given as (i, j), i < j.

    An immutable value record; ``n`` is stored as a plain int and must be
    at least 1, and ``edges`` as a frozenset of validated tuples.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: frozenset) -> None:
        n = check_letter_count(n)
        setfield(self, "n", n)
        setfield(self, "edges", frozenset(check_pair(e, n) for e in edges))


def control_graph(spec):
    """The interaction graph of a spec: one edge per control-plus-drift pair."""
    # SystemSpec has checked every pair
    return ControlGraph._trusted(spec.n, spec.all_pairs)


def to_dot(graph):
    """DOT text for external rendering, e.g. ``graph G { 1 -- 2; }``."""
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(1, graph.n + 1))
    lines.extend(f"  {i} -- {j};" for i, j in sorted(graph.edges))
    lines.append("}")
    return "\n".join(lines) + "\n"
