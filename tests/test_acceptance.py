"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run pytest with -s to see them all).  Everything is exact, so there are no
tolerances anywhere: every comparison is integer, rational, or structural
equality.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from ctrlperm.graphview import control_graph
from ctrlperm.liealg import (
    basis_bracket,
    bracket,
    coupling_generator,
    lie_closure,
    rotation_generator,
)
from ctrlperm.monoid import (
    OrbitPartition,
    absorbing_product,
    orbit_partition,
)
from ctrlperm.permutation import Permutation, transposition, transposition_product
from ctrlperm.systems import SystemSpec, analyze, oracle_check, probe_nonstandard
from helpers import (
    Dense,
    circulation,
    coupling,
    dense_bracket,
    graph_components,
    random_orbit_sets,
    random_permutation,
    random_representative,
    rotation,
    sample_pairs,
    sorted_pair,
    transposition_decomposition,
)

# every spec analyzed anywhere in this suite, for the necessary-condition sweep
ANALYZED = []


def _analyze_tracked(spec):
    report = analyze(spec)
    ANALYZED.append((spec, report))
    return report


def _check(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {num:02d}: {status} - {description}")
    assert not failures, f"criterion {num}: {failures[:5]}"


@pytest.fixture(scope="module")
def instance_pool():
    """Seeded random instances shared by criteria 7, 9 and 10."""
    rng = random.Random(20260810)
    specs = []
    for n in (3, 4, 5, 6):
        for _ in range(200):
            m = 1 + int(rng.random() * (n * (n - 1) // 2))
            pairs = sample_pairs(rng, n, m)
            drift = None
            if m >= 2 and rng.random() < 0.3:
                drift = pairs.pop()
            specs.append(SystemSpec("so_n", n, frozenset(pairs), drift=drift))
    for n in (3, 4, 5):
        for _ in range(100):
            m = 1 + int(rng.random() * (n * (n - 1) // 2))
            specs.append(SystemSpec("multi_agent", n, frozenset(sample_pairs(rng, n, m))))
    return [(spec, _analyze_tracked(spec), oracle_check(spec, spec.orbit_class())) for spec in specs]


def test_criterion_01_rotation_chain_on_five_letters():
    spec = SystemSpec("so_n", 5, frozenset([(1, 2), (2, 3), (3, 4), (4, 5)]))
    report = _analyze_tracked(spec)
    oracle = oracle_check(spec, spec.orbit_class())
    failures = []
    if not report.controllable:
        failures.append("verdict not controllable")
    if oracle.dim != 10:
        failures.append(f"oracle dim {oracle.dim} != 10")
    if report.method_class != OrbitPartition(5, [{1, 2, 3, 4, 5}]):
        failures.append(f"class {report.method_class}")
    if not oracle.agrees:
        failures.append("oracle disagrees")
    _check(1, "chain of 4 controls on 5 letters: controllable, dim 10", failures)


def test_criterion_02_split_chain_on_five_letters():
    spec = SystemSpec("so_n", 5, frozenset([(1, 2), (2, 3), (4, 5)]))
    report = _analyze_tracked(spec)
    oracle = oracle_check(spec, spec.orbit_class())
    failures = []
    if report.controllable:
        failures.append("verdict controllable")
    if oracle.dim != 4:
        failures.append(f"oracle dim {oracle.dim} != 4")
    if report.orbits != ((1, 2, 3), (4, 5)):
        failures.append(f"orbits {report.orbits}")
    _check(2, "split chain on 5 letters: uncontrollable, dim 4, orbits 123|45", failures)


def test_criterion_03_redundant_pair_degeneracy():
    listed = [(1, 2), (2, 3), (1, 3), (3, 4)]
    spec = SystemSpec("so_n", 4, frozenset(listed))
    ordered = transposition_product(listed, 4)
    report = _analyze_tracked(spec)
    oracle = oracle_check(spec, spec.orbit_class())
    failures = []
    if ordered != Permutation.from_cycles(4, [(2, 3, 4)]):
        failures.append(f"ordered product {ordered}")
    if report.method_class != OrbitPartition(4, [{1, 2, 3, 4}]):
        failures.append(f"class {report.method_class}")
    if oracle.dim != 6:
        failures.append(f"oracle dim {oracle.dim} != 6")
    if not report.controllable:
        failures.append("verdict not controllable")
    _check(3, "redundant 4th pair degrades the ordered product to a 3-cycle", failures)


def test_criterion_04_nonstandard_probe():
    paired = rotation_generator(4, (1, 2)) + rotation_generator(4, (3, 4))
    lean = probe_nonstandard([paired, rotation_generator(4, (2, 3))])
    rich = probe_nonstandard(
        [paired, rotation_generator(4, (2, 3)), rotation_generator(4, (1, 2))]
    )
    failures = []
    if lean.subgroup_order != 8:
        failures.append(f"subgroup order {lean.subgroup_order} != 8")
    if lean.larc_dim != 4 or lean.larc_controllable:
        failures.append(f"lean larc {lean.larc_dim}")
    if rich.subgroup_order != 24 or not rich.subgroup_is_full_symmetric:
        failures.append(f"subgroup order {rich.subgroup_order} != 24")
    if rich.larc_dim != 6 or not rich.larc_controllable:
        failures.append(f"rich larc {rich.larc_dim}")
    _check(4, "nonstandard probe: order 8 / dim 4, then order 24 / dim 6", failures)


def test_criterion_05_structure_constants_exhaustive():
    failures = []
    for n in range(3, 9):
        pairs = list(combinations(range(1, n + 1), 2))
        for p in pairs:
            for q in pairs:
                # the dense reference in tests/helpers.py shares no code with liealg
                expected = dense_bracket(rotation(n, *p), rotation(n, *q))
                acc = Dense.zeros(n)
                for coefficient, pair in basis_bracket(p, q, n):
                    acc = acc + rotation(n, *pair).scaled(coefficient)
                if acc != expected:
                    failures.append((n, p, q))
    _check(5, "structure constants match matrix brackets, n=3..8 exhaustive", failures)


def test_criterion_06_interaction_algebra():
    failures = []
    for n in range(3, 7):
        for i, j, k in combinations(range(1, n + 1), 3):
            a_ij = coupling_generator(n, (i, j))
            a_jk = coupling_generator(n, (j, k))
            a_ik = coupling_generator(n, (i, k))
            b = circulation(n, i, j, k)
            circ = bracket(a_ij, a_jk)
            if not (
                Dense.of(circ) == Dense.of(bracket(a_jk, a_ik))
                == Dense.of(bracket(a_ik, a_ij)) == b
            ):
                failures.append(("triple bracket", n, i, j, k))
            if Dense.of(bracket(a_ij, circ)) != (coupling(n, j, k) - coupling(n, i, k)).scaled(2):
                failures.append(("mixed bracket", n, i, j, k))
        gens = [coupling_generator(n, p) for p in combinations(range(1, n + 1), 2)]
        dim = lie_closure(gens).dim
        if dim != (n - 1) ** 2:
            failures.append(("full algebra dim", n, dim))
    pair_dim = lie_closure(
        [coupling_generator(3, (1, 2)), coupling_generator(3, (2, 3))]
    ).dim
    if pair_dim != 4:
        failures.append(("two-generator dim", pair_dim))
    _check(6, "interaction algebra identities and dims 4/9/16/25", failures)


def test_criterion_07_randomized_method_equivalence(instance_pool):
    failures = []
    for spec, report, oracle in instance_pool:
        if report.controllable != oracle.controllable:
            failures.append(("verdict", spec))
        if report.orbits != oracle.orbits:
            failures.append(("orbits", spec))
        if not oracle.agrees:
            failures.append(("agrees flag", spec))
    _check(
        7,
        f"method equivalence on {len(instance_pool)} random instances, 100% required",
        failures,
    )


def test_criterion_08_monoid_law_suite():
    rng = random.Random(424242)
    failures = []

    def fold_class(sigma, eta, n):
        pairs = transposition_decomposition(sigma) + transposition_decomposition(eta)
        return orbit_partition(absorbing_product(pairs, n))

    for _ in range(1000):  # commutativity
        n = 3 + int(rng.random() * 5)
        sigma, eta = random_permutation(rng, n), random_permutation(rng, n)
        if fold_class(sigma, eta, n) != fold_class(eta, sigma, n):
            failures.append(("commutativity", sigma, eta))
    for _ in range(1000):  # associativity, both groupings and the flat fold
        n = 3 + int(rng.random() * 5)
        a, b, c = (orbit_partition(random_permutation(rng, n)) for _ in range(3))
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        if left != right:
            failures.append(("associativity", a, b, c))
    for _ in range(1000):  # compatibility across representatives
        n = 4 + int(rng.random() * 4)
        orbits_a, orbits_b = random_orbit_sets(rng, n), random_orbit_sets(rng, n)
        first = fold_class(
            random_representative(rng, n, orbits_a),
            random_representative(rng, n, orbits_b),
            n,
        )
        second = fold_class(
            random_representative(rng, n, orbits_a),
            random_representative(rng, n, orbits_b),
            n,
        )
        if first != second:
            failures.append(("compatibility", orbits_a, orbits_b))
    for _ in range(1000):  # orbit-union law for overlapping cycles
        n = 4 + int(rng.random() * 4)
        letters = list(range(1, n + 1))
        size_a = 2 + int(rng.random() * (n - 2))
        orbit_a = set(rng.sample(letters, size_a))
        shared = rng.sample(sorted(orbit_a), 1 + int(rng.random() * min(2, size_a - 1)))
        rest = [x for x in letters if x not in shared]
        size_b = max(2, 1 + int(rng.random() * 3))
        extra = min(len(rest), max(0, size_b - len(shared)))
        orbit_b = set(shared) | set(rng.sample(rest, extra))
        if len(orbit_b) < 2:
            continue
        sigma = random_representative(rng, n, [frozenset(orbit_a)])
        eta = random_representative(rng, n, [frozenset(orbit_b)])
        merged = fold_class(sigma, eta, n)
        if merged != OrbitPartition(n, [orbit_a | orbit_b]):
            failures.append(("orbit union", orbit_a, orbit_b))
    for _ in range(1000):  # idempotence of transpositions
        n = 2 + int(rng.random() * 6)
        pair = sorted_pair(*rng.sample(range(1, n + 1), 2))
        tau = transposition(n, pair)
        if absorbing_product([pair, pair], n) != tau:
            failures.append(("idempotence fold", pair))
    for _ in range(1000):  # identity element
        n = 3 + int(rng.random() * 5)
        p = OrbitPartition(n, random_orbit_sets(rng, n))
        empty = OrbitPartition(n, ())
        if p.merge(empty) != p or empty.merge(p) != p:
            failures.append(("identity", p))
    _check(8, "monoid laws, >=1000 random cases per law, exact equality", failures)


def test_criterion_09_graph_correspondence(instance_pool):
    failures = []
    for spec, report, _ in instance_pool:
        graph = control_graph(spec)
        parts = graph_components(graph.edges, graph.n)
        if tuple(tuple(sorted(c)) for c in parts if len(c) >= 2) != report.orbits:
            failures.append(("components", spec))
        if (len(parts) == 1) != report.controllable:
            failures.append(("connectivity", spec))
    _check(9, "graph components equal orbits on every criterion-7 instance", failures)


def test_criterion_10_minimum_control_count(instance_pool):
    failures = []
    assert len(ANALYZED) >= len(instance_pool)
    for spec, report in ANALYZED:
        if len(spec.all_pairs) < spec.n - 1 and report.controllable:
            failures.append(spec)
    _check(
        10,
        f"no spec below n-1 pairs reported controllable ({len(ANALYZED)} analyzed)",
        failures,
    )


def test_criterion_11_markov_feasible_set():
    uniform = tuple(Fraction(1, 5) for _ in range(5))
    linked = _analyze_tracked(
        SystemSpec(
            "markov", 5, frozenset([(1, 2), (2, 3), (4, 5)]), initial_distribution=uniform
        )
    )
    gapped = _analyze_tracked(
        SystemSpec("markov", 5, frozenset([(1, 2), (4, 5)]), initial_distribution=uniform)
    )
    failures = []
    if linked.submanifold.conserved_sums != (
        ((1, 2, 3), Fraction(3, 5)),
        ((4, 5), Fraction(2, 5)),
    ):
        failures.append(("conserved", linked.submanifold.conserved_sums))
    if linked.submanifold.frozen_states != ():
        failures.append(("frozen nonempty", linked.submanifold.frozen_states))
    if gapped.submanifold.frozen_states != ((3, Fraction(1, 5)),):
        failures.append(("frozen", gapped.submanifold.frozen_states))
    _check(11, "markov conserved sums 3/5 and 2/5; frozen state 3 at 1/5", failures)
