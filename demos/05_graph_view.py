"""Controllability as graph connectivity.

Draw one vertex per letter and one edge per control pair: the system is
controllable exactly when the graph is connected.  The graph's connected
components are the orbits of the merged control pattern plus one singleton
per fixed point, so the orbit route answers connectivity as well.  The
graph can be exported as DOT text for rendering elsewhere.
"""

from ctrlperm import SystemSpec, analyze, control_graph, to_dot

split = SystemSpec("so_n", 5, frozenset([(1, 2), (2, 3), (4, 5)]))
report = analyze(split)

print("== split chain on five letters ==")
print(to_dot(control_graph(split)))
print("orbits:      ", report.orbits)
print("fixed points:", report.fixed_points)
print("controllable:", report.controllable)

print()
print("== adding the bridge (3,4) ==")
bridged = SystemSpec("so_n", 5, frozenset([(1, 2), (2, 3), (3, 4), (4, 5)]))
report = analyze(bridged)
print("orbits:", report.orbits, "- controllable:", report.controllable)

print()
print("== an isolated letter is a fixed point, not an orbit ==")
sparse = SystemSpec("markov", 5, frozenset([(1, 2), (4, 5)]))
report = analyze(sparse)
print("orbits:      ", report.orbits)
print("fixed points:", report.fixed_points)
