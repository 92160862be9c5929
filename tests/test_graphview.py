import pytest

from ctrlperm.graphview import ControlGraph, control_graph, to_dot
from ctrlperm.monoid import partition_from_pairs
from ctrlperm.systems import SystemSpec


def test_control_graph_collects_controls_and_drift():
    spec = SystemSpec("so_n", 5, frozenset([(1, 2), (2, 3), (4, 5)]))
    assert control_graph(spec).edges == {(1, 2), (2, 3), (4, 5)}
    drift_only = SystemSpec("so_n", 3, frozenset(), drift=(1, 2))
    assert control_graph(drift_only).edges == {(1, 2)}
    markov = SystemSpec("markov", 4, frozenset([(1, 3), (2, 4)]))
    assert control_graph(markov).edges == {(1, 3), (2, 4)}


def test_connectivity_is_one_full_orbit():
    # the orbit partition answers connectivity, and a lone letter is no orbit
    def connected(graph):
        return partition_from_pairs(graph.edges, graph.n).is_full()

    assert connected(ControlGraph(5, frozenset([(1, 2), (2, 3), (3, 4), (4, 5)])))
    assert not connected(ControlGraph(5, frozenset([(1, 2), (2, 3), (4, 5)])))
    assert not connected(ControlGraph(1, frozenset()))


def test_graph_validation():
    with pytest.raises(ValueError):
        ControlGraph(3, frozenset([(1, 4)]))
    with pytest.raises(ValueError):
        ControlGraph(3, frozenset([(2, 2)]))


def test_graph_needs_an_integer_letter_count():
    # a float count was once stored, and to_dot raised later
    with pytest.raises(TypeError):
        ControlGraph(2.5, [(1, 2)])
    for n in (0, -3):
        with pytest.raises(ValueError, match=rf"^need at least one letter, got n={n}$"):
            ControlGraph(n, [])
    graph = ControlGraph(True, [])
    assert graph.n == 1 and type(graph.n) is int
    assert graph == ControlGraph(1, frozenset())
    assert to_dot(graph) == "graph G {\n  1;\n}\n"


def test_dot_rendering():
    g = ControlGraph(3, frozenset([(1, 2)]))
    assert to_dot(g) == "graph G {\n  1;\n  2;\n  3;\n  1 -- 2;\n}\n"
