import random

import pytest

from ctrlperm.graphview import ControlGraph, components, control_graph, is_connected, to_dot
from ctrlperm.monoid import absorbing_product, orbit_partition
from ctrlperm.systems import SystemSpec
from helpers import sample_pairs, shuffled


def test_control_graph_collects_controls_and_drift():
    spec = SystemSpec("so_n", 5, frozenset([(1, 2), (2, 3), (4, 5)]))
    assert control_graph(spec).edges == {(1, 2), (2, 3), (4, 5)}
    drift_only = SystemSpec("so_n", 3, frozenset(), drift=(1, 2))
    assert control_graph(drift_only).edges == {(1, 2)}
    markov = SystemSpec("markov", 4, frozenset([(1, 3), (2, 4)]))
    assert control_graph(markov).edges == {(1, 3), (2, 4)}


def test_components_partition():
    g = ControlGraph(5, frozenset([(1, 2), (2, 3), (4, 5)]))
    assert components(g) == ((1, 2, 3), (4, 5))
    chain = ControlGraph(5, frozenset([(1, 2), (2, 3), (3, 4), (4, 5)]))
    assert components(chain) == ((1, 2, 3, 4, 5),)
    empty = ControlGraph(3, frozenset())
    assert components(empty) == ((1,), (2,), (3,))


def test_connectivity_verdict():
    assert is_connected(ControlGraph(5, frozenset([(1, 2), (2, 3), (3, 4), (4, 5)])))
    assert not is_connected(ControlGraph(5, frozenset([(1, 2), (2, 3), (4, 5)])))
    assert is_connected(ControlGraph(1, frozenset()))  # vacuously


def test_graph_validation():
    with pytest.raises(ValueError):
        ControlGraph(3, frozenset([(1, 4)]))
    with pytest.raises(ValueError):
        ControlGraph(3, frozenset([(2, 2)]))


def test_graph_needs_an_integer_letter_count():
    # a float count was once stored, and components, is_connected and to_dot raised later
    with pytest.raises(TypeError):
        ControlGraph(2.5, [(1, 2)])
    for n in (0, -3):
        with pytest.raises(ValueError, match=rf"^need at least one letter, got n={n}$"):
            ControlGraph(n, [])
    graph = ControlGraph(True, [])
    assert graph.n == 1 and type(graph.n) is int
    assert graph == ControlGraph(1, frozenset())
    assert is_connected(graph) and to_dot(graph) == "graph G {\n  1;\n}\n"


def test_dot_rendering():
    g = ControlGraph(3, frozenset([(1, 2)]))
    assert to_dot(g) == "graph G {\n  1;\n  2;\n  3;\n  1 -- 2;\n}\n"


def test_components_ignore_edge_duplication_and_order():
    rng = random.Random(3)
    for _ in range(50):
        n = 3 + int(rng.random() * 5)
        pairs = sample_pairs(rng, n, 1 + int(rng.random() * (n - 1)))
        base = components(ControlGraph(n, frozenset(pairs)))
        doubled = components(ControlGraph(n, frozenset(pairs + pairs)))
        reordered = components(ControlGraph(n, frozenset(shuffled(rng, pairs))))
        assert base == doubled == reordered


def test_components_match_orbit_partition_from_permutation_route():
    # certified against the permutation-level product, not the shared
    # union-find, so this stays a genuine cross-check
    rng = random.Random(17)
    for _ in range(300):
        n = 3 + int(rng.random() * 4)
        m = 1 + int(rng.random() * (n * (n - 1) // 2 - 1))
        pairs = sample_pairs(rng, n, m)
        spec = SystemSpec("so_n", n, frozenset(pairs))
        graph = control_graph(spec)
        merged = orbit_partition(absorbing_product(shuffled(rng, pairs), n))
        non_singletons = tuple(c for c in components(graph) if len(c) >= 2)
        assert non_singletons == merged.sorted_orbits()
        assert is_connected(graph) == merged.is_full()
