"""Formation networks and controlled Markov chains share one algebra.

A network of N agents with symmetric controlled couplings evolves by
zero-row-sum matrices; the couplings on the edges of the interaction graph
generate an algebra of dimension (N-1)^2 when the graph is connected.  A
symmetric Markov chain with tunable rates is the single-column case of the
same dynamics on the probability simplex: the chain is irreducible exactly
when the rate pattern is connected, and each orbit of the pattern conserves
its total probability mass.
"""

from fractions import Fraction

from ctrlperm import SystemSpec, analyze, coupling_generator, lie_closure
from itertools import combinations

print("== agent coupling algebra ==")
for agents in (3, 4, 5):
    gens = [coupling_generator(agents, p) for p in combinations(range(1, agents + 1), 2)]
    print(f"N={agents}: closure of all couplings has dim {lie_closure(gens).dim}"
          f" = (N-1)^2 = {(agents - 1) ** 2}")

print()
print("== a line formation of four agents in the plane ==")
line = SystemSpec("multi_agent", 4, frozenset([(1, 2), (2, 3), (3, 4)]), agent_space_dim=2)
report = analyze(line, with_oracle=True)
print("state space:", report.submanifold.state_space)
print("controllable:", report.controllable, "- oracle dim:", report.oracle.dim)

broken = SystemSpec("multi_agent", 4, frozenset([(1, 2), (3, 4)]), agent_space_dim=2)
report = analyze(broken, with_oracle=True)
print("without the (2,3) link:", "controllable" if report.controllable else "not controllable")
for comp in report.submanifold.components:
    print(f"  block {comp.orbit}: distribution dim {comp.dim}")

print()
print("== a five-state chain with tunable rates ==")
uniform = tuple(Fraction(1, 5) for _ in range(5))
chain = SystemSpec("markov", 5, frozenset([(1, 2), (2, 3), (4, 5)]), initial_distribution=uniform)
report = analyze(chain)
# irreducible means controllable; the communication classes are the orbits
# plus each fixed state on its own
classes = tuple(sorted(report.orbits + tuple((j,) for j in report.fixed_points)))
print("irreducible:", report.controllable)
print("communication classes:", classes)
for orbit, mass in report.submanifold.conserved_sums:
    print(f"  states {orbit} keep total probability {mass}")

gapped = SystemSpec("markov", 5, frozenset([(1, 2), (4, 5)]), initial_distribution=uniform)
report = analyze(gapped)
for state, mass in report.submanifold.frozen_states:
    print(f"dropping (2,3): state {state} is frozen at p = {mass}")
