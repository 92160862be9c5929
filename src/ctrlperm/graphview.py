"""Graph view of a control pattern.

Every spec induces an undirected, unweighted graph on the letters, with one
edge per control (or drift) pair.  Connectivity of that graph is yet another
face of the controllability verdict, and its connected components coincide
with the orbit partition; the test suite certifies that correspondence
against the permutation-level machinery rather than against the shared
union-find, so the check stays a real cross-check.
"""

from __future__ import annotations

from operator import index

from ._record import Record, setfield
from .monoid import UnionFind, check_pair

__all__ = [
    "ControlGraph",
    "control_graph",
    "components",
    "is_connected",
    "to_dot",
]


class ControlGraph(Record):
    """Undirected simple graph on vertices 1..n with edges given as (i, j), i < j.

    An immutable value record; ``n`` is stored as a plain int and must be
    at least 1, and ``edges`` as a frozenset of validated tuples.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: frozenset) -> None:
        n = index(n)
        if n < 1:
            raise ValueError(f"need at least one letter, got n={n}")
        setfield(self, "n", n)
        setfield(self, "edges", frozenset(check_pair(e, n) for e in edges))


def control_graph(spec):
    """The interaction graph of a spec: one edge per control-plus-drift pair."""
    # SystemSpec has checked every pair
    return ControlGraph._trusted(spec.n, spec.all_pairs)


def components(graph):
    """Connected components as sorted tuples (singletons included), by minimum."""
    uf = UnionFind(graph.n)
    uf.union_pairs(graph.edges)
    return uf.groups()


def is_connected(graph):
    """True iff the graph has exactly one connected component."""
    return len(components(graph)) == 1


def to_dot(graph):
    """DOT text for external rendering, e.g. ``graph G { 1 -- 2; }``."""
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(1, graph.n + 1))
    lines.extend(f"  {i} -- {j};" for i, j in sorted(graph.edges))
    lines.append("}")
    return "\n".join(lines) + "\n"
