import random
from fractions import Fraction
from itertools import combinations

import pytest

from ctrlperm import liealg, systems
from ctrlperm.liealg import (
    coupling_entries,
    coupling_generator,
    lie_closure,
    rotation_entries,
    rotation_generator,
)
from ctrlperm.monoid import OrbitPartition
from ctrlperm.specio import canonical_json, parse_spec, spec_to_dict
from ctrlperm.systems import (
    FAMILIES,
    ORACLE_MAX_AGENTS,
    ORACLE_MAX_ROTATION,
    OracleSizeError,
    SystemSpec,
    _agent_labels,
    _rotation_labels,
    analyze,
    min_controls_check,
    oracle_check,
    probe_nonstandard,
)
from helpers import (
    reference_agent_labels,
    reference_rotation_labels,
    sample_pairs,
    shuffled,
    sorted_pair,
    spanning_tree_pairs,
)

UNIFORM5 = tuple(Fraction(1, 5) for _ in range(5))


def so_spec(n, pairs, drift=None):
    return SystemSpec("so_n", n, frozenset(pairs), drift=drift)


# ------------------------------------------------------------- specs


def test_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec("so_n", 5, frozenset([(0, 1)]))
    with pytest.raises(ValueError):
        SystemSpec("so_n", 5, frozenset())  # no controls, no drift
    with pytest.raises(ValueError):
        SystemSpec("bogus", 5, frozenset([(1, 2)]))
    with pytest.raises(ValueError):
        SystemSpec(["so_n"], 5, frozenset([(1, 2)]))  # unhashable
    with pytest.raises(ValueError):
        SystemSpec("so_n", 5, frozenset([(1, 2)]), agent_space_dim=3)
    with pytest.raises(ValueError):
        SystemSpec("so_n", 5, frozenset([(1, 2)]), initial_distribution=UNIFORM5)
    with pytest.raises(ValueError):
        SystemSpec(
            "markov", 5, frozenset([(1, 2)]),
            initial_distribution=(Fraction(1, 2),) * 5,
        )
    # drift alone is a valid control pattern
    assert SystemSpec("so_n", 5, frozenset(), drift=(1, 2)).all_pairs == {(1, 2)}


# ----------------------------------------------------------- analyze


def test_analyze_rotation_chain_controllable():
    report = analyze(so_spec(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
    assert report.controllable
    assert report.method_class == OrbitPartition(5, [{1, 2, 3, 4, 5}])
    assert report.min_controls_satisfied
    assert report.submanifold.total_dim == 10
    assert report.submanifold.state_space == "SO(5)"


def test_analyze_split_chain_not_controllable():
    report = analyze(so_spec(5, [(1, 2), (2, 3), (4, 5)]))
    assert not report.controllable
    assert report.orbits == ((1, 2, 3), (4, 5))
    assert report.fixed_points == ()
    assert not report.min_controls_satisfied
    assert [(c.orbit, c.dim) for c in report.submanifold.components] == [
        ((1, 2, 3), 3),
        ((4, 5), 1),
    ]
    assert report.submanifold.total_dim == 4
    assert report.submanifold.components[0].generators == (
        "rot(1,2)",
        "rot(1,3)",
        "rot(2,3)",
    )


def test_analyze_markov_conserved_sums():
    spec = SystemSpec(
        "markov", 5, frozenset([(1, 2), (2, 3), (4, 5)]), initial_distribution=UNIFORM5
    )
    report = analyze(spec)
    assert report.submanifold.conserved_sums == (
        ((1, 2, 3), Fraction(3, 5)),
        ((4, 5), Fraction(2, 5)),
    )
    assert report.submanifold.frozen_states == ()
    assert report.submanifold.state_space == "Delta^4"


def test_analyze_markov_frozen_state():
    spec = SystemSpec(
        "markov", 5, frozenset([(1, 2), (4, 5)]), initial_distribution=UNIFORM5
    )
    report = analyze(spec)
    assert report.submanifold.frozen_states == ((3, Fraction(1, 5)),)
    assert report.fixed_points == (3,)


def test_analyze_multi_agent_dims_come_from_oracle():
    spec = SystemSpec("multi_agent", 4, frozenset([(1, 2), (3, 4)]), agent_space_dim=3)
    plain = analyze(spec)
    assert [c.dim for c in plain.submanifold.components] == [None, None]
    assert plain.submanifold.total_dim is None
    assert plain.submanifold.state_space == "(Delta^2)^4"
    assert plain.submanifold.components[0].generators == ("couple(1,2)",)
    with_oracle = analyze(spec, with_oracle=True)
    assert [c.dim for c in with_oracle.submanifold.components] == [1, 1]
    assert with_oracle.submanifold.total_dim == 2
    assert with_oracle.oracle.dim == 2


def test_agent_orbit_dims_match_a_closure_per_orbit():
    # reference: close each orbit's own pairs on their own
    rng = random.Random(2718)
    for i in range(60):
        family = ("multi_agent", "markov")[i % 2]
        n = 4 + int(rng.random() * 5)  # 4..8
        letters = shuffled(rng, range(1, n + 1))
        cut = 2 + int(rng.random() * (n - 3))  # two blocks, maybe a fixed point
        free = 1 if n - cut >= 3 and rng.random() < 0.5 else 0
        pairs = []
        for block in (letters[:cut], letters[cut : n - free]):
            pairs += spanning_tree_pairs(rng, block)
            if len(block) >= 3 and rng.random() < 0.5:
                pairs.append(sorted_pair(*rng.sample(block, 2)))
        drift = pairs.pop() if family == "markov" and i % 4 == 1 else None
        spec = SystemSpec(family, n, frozenset(pairs), drift=drift)
        report = analyze(spec, with_oracle=True)
        assert len(report.orbits) == 2
        expected = [
            lie_closure(
                [coupling_generator(n, p) for p in spec.all_pairs if set(p) <= set(orbit)]
            ).dim
            for orbit in report.orbits
        ]
        assert [c.dim for c in report.submanifold.components] == expected
        assert report.submanifold.total_dim == report.oracle.dim


def test_analyze_sphere_family():
    spec = SystemSpec("sphere", 4, frozenset([(1, 2), (2, 3), (3, 4)]))
    report = analyze(spec, with_oracle=True)
    assert report.controllable
    assert report.submanifold.state_space == "S^3"
    assert report.oracle.dim == 6 and report.oracle.agrees


def test_generator_labels_match_their_definition():
    rng = random.Random(17)
    orbits = [tuple(range(1, k + 1)) for k in range(31)]
    for k in range(31):
        # gaps between letters, and letters of one to four digits
        letters = sorted(shuffled(rng, range(1, 1200))[:k])
        orbits += [tuple(letters), tuple(range(95, 95 + 7 * k, 7))]
    for orbit in orbits:
        assert _rotation_labels(orbit) == reference_rotation_labels(orbit), orbit
        assert _agent_labels(orbit) == reference_agent_labels(orbit), orbit


# ------------------------------------------------------------ oracle


def test_oracle_split_chain_agreement():
    spec = so_spec(5, [(1, 2), (2, 3), (4, 5)])
    result = oracle_check(spec, spec.orbit_class())
    assert result.dim == 4
    assert not result.controllable
    assert result.orbits == ((1, 2, 3), (4, 5))
    assert result.agrees


def test_oracle_redundant_pair_still_controllable():
    spec = so_spec(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    result = oracle_check(spec, spec.orbit_class())
    assert result.dim == 6
    assert result.controllable
    assert result.agrees


def test_oracle_multi_agent_triangle():
    spec = SystemSpec("multi_agent", 3, frozenset([(1, 2), (2, 3)]))
    result = oracle_check(spec, spec.orbit_class())
    assert result.dim == 4 == (3 - 1) ** 2
    assert result.controllable and result.agrees


def test_analyze_with_oracle_merges_the_pairs_once(monkeypatch):
    merges = []
    real = systems.partition_from_pairs

    def counting(pairs, n):
        merges.append(n)
        return real(pairs, n)

    monkeypatch.setattr(systems, "partition_from_pairs", counting)
    report = analyze(so_spec(5, [(1, 2), (2, 3), (4, 5)]), with_oracle=True)
    assert merges == [5]
    assert report.oracle.agrees and report.oracle.orbits == report.orbits


@pytest.mark.parametrize(
    "spec",
    [
        SystemSpec("so_n", 5, frozenset([(1, 2), (2, 3), (4, 5)])),
        SystemSpec("sphere", 6, frozenset([(1, 6)]), drift=(2, 3)),
        SystemSpec("multi_agent", 4, frozenset([(1, 2), (2, 3), (3, 4)])),
        SystemSpec("markov", 3, frozenset()),
    ],
    ids=lambda spec: f"{spec.family}-{spec.n}",
)
def test_oracle_checks_every_letter_pair(monkeypatch, spec):
    # the recovered orbits rest on one membership check per letter pair;
    # deducing some of them from the orbits found so far would make the
    # oracle lean on the union-find route it is meant to check
    calls = []
    real = liealg.LinearSpan.contains

    def counting(span, matrix):
        calls.append(matrix)
        return real(span, matrix)

    monkeypatch.setattr(liealg.LinearSpan, "contains", counting)
    result = oracle_check(spec, spec.orbit_class())
    assert len(calls) == spec.n * (spec.n - 1) // 2
    assert result.agrees


def test_oracle_reads_the_partition_only_for_agreement():
    spec = so_spec(5, [(1, 2), (2, 3), (4, 5)])
    wrong = so_spec(5, [(1, 2), (3, 4), (4, 5)]).orbit_class()
    honest, misled = oracle_check(spec, spec.orbit_class()), oracle_check(spec, wrong)
    assert honest.agrees and not misled.agrees
    assert (misled.dim, misled.controllable, misled.orbits) == (
        honest.dim, honest.controllable, honest.orbits,
    )


def test_oracle_size_guard():
    big = so_spec(13, [(1, 2)])
    with pytest.raises(OracleSizeError):
        oracle_check(big, big.orbit_class())
    small_guard = so_spec(5, [(1, 2)])
    with pytest.raises(OracleSizeError):
        oracle_check(small_guard, small_guard.orbit_class(), max_n=4)


# -------------------------------------------------------- min controls


def test_min_controls_check():
    assert min_controls_check(so_spec(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
    assert not min_controls_check(so_spec(5, [(1, 2), (2, 3), (4, 5)]))
    assert min_controls_check(SystemSpec("so_n", 2, frozenset([(1, 2)])))
    # drift counts toward the bound
    assert min_controls_check(SystemSpec("so_n", 2, frozenset(), drift=(1, 2)))


def test_too_few_pairs_never_controllable():
    rng = random.Random(23)
    for _ in range(200):
        n = 3 + int(rng.random() * 4)
        m = 1 + int(rng.random() * (n - 2)) if n > 3 else 1  # < n - 1
        spec = so_spec(n, sample_pairs(rng, n, m))
        assert not min_controls_check(spec)
        assert not analyze(spec).controllable


# ------------------------------------------------------------- markov


def communication_classes(report):
    """A markov report's orbits and fixed-point singletons, by smallest state."""
    return tuple(sorted(report.orbits + tuple((j,) for j in report.fixed_points)))


def test_markov_classify():
    # for a markov spec the verdict is irreducibility
    chain = SystemSpec("markov", 5, frozenset([(1, 2), (2, 3), (3, 4), (4, 5)]))
    assert analyze(chain).controllable
    split = analyze(SystemSpec("markov", 5, frozenset([(1, 2), (4, 5)])))
    assert not split.controllable
    assert communication_classes(split) == ((1, 2), (3,), (4, 5))
    drift_only = analyze(SystemSpec("markov", 3, frozenset(), drift=(1, 2)))
    assert communication_classes(drift_only) == ((1, 2), (3,))


def test_markov_all_rates_frozen():
    # the zero intensity pattern is a valid (frozen) chain for markov only
    frozen = analyze(SystemSpec("markov", 3, frozenset()))
    assert not frozen.controllable
    assert communication_classes(frozen) == ((1,), (2,), (3,))
    with pytest.raises(ValueError):
        SystemSpec("so_n", 3, frozenset())


def test_uncontrollable_oracle_dim_matches_orbit_formula():
    rng = random.Random(53)
    checked = 0
    while checked < 60:
        n = 4 + int(rng.random() * 3)
        m = 1 + int(rng.random() * (n - 1))
        spec = so_spec(n, sample_pairs(rng, n, m))
        report = analyze(spec)
        if report.controllable:
            continue
        expected = sum(len(o) * (len(o) - 1) // 2 for o in report.orbits)
        assert oracle_check(spec, spec.orbit_class()).dim == expected == report.submanifold.total_dim
        checked += 1


def _random_spec(rng, family, n):
    """Random spec of any family: drift pairs, markov distributions, frozen chains."""
    m = int(rng.random() * (min(n * (n - 1) // 2, 2 * n) + 1))
    pairs = sample_pairs(rng, n, m)
    drift = pairs.pop() if pairs and rng.random() < 0.3 else None
    if not pairs and drift is None and family != "markov":
        pairs = sample_pairs(rng, n, 1)
    dist = None
    if family == "markov" and rng.random() < 0.5:
        weights = [int(rng.random() * 4) for _ in range(n)]
        weights[int(rng.random() * n)] += 1
        dist = tuple(Fraction(w, sum(weights)) for w in weights)
    return SystemSpec(family, n, frozenset(pairs), drift=drift, initial_distribution=dist)


@pytest.mark.parametrize("family", FAMILIES)
def test_methods_agree_on_random_specs_of_every_family(family):
    rng = random.Random(4040 + FAMILIES.index(family))
    top = ORACLE_MAX_ROTATION if family in ("so_n", "sphere") else ORACLE_MAX_AGENTS
    verdicts = set()
    for n in range(2, top + 1):
        for _ in range(50):
            spec = _random_spec(rng, family, n)
            report = analyze(spec, with_oracle=True)
            oracle = report.oracle
            assert oracle.agrees, spec
            assert oracle.controllable == report.controllable, spec
            assert oracle.orbits == report.orbits, spec
            assert oracle.dim == report.submanifold.total_dim, spec
            verdicts.add(report.controllable)
    assert verdicts == {True, False}


# ----------------------------------------------------- nonstandard probe


def test_probe_paired_rotation_sum():
    g = rotation_generator(4, (1, 2)) + rotation_generator(4, (3, 4))
    result = probe_nonstandard([g, rotation_generator(4, (2, 3))])
    assert result.subgroup_order == 8
    assert not result.subgroup_is_full_symmetric
    assert result.larc_dim == 4
    assert not result.larc_controllable
    assert result.experimental


def test_probe_with_extra_generator_reaches_full_group():
    g = rotation_generator(4, (1, 2)) + rotation_generator(4, (3, 4))
    result = probe_nonstandard(
        [g, rotation_generator(4, (2, 3)), rotation_generator(4, (1, 2))]
    )
    assert result.subgroup_order == 24
    assert result.subgroup_is_full_symmetric
    assert result.larc_dim == 6
    assert result.larc_controllable


def test_probe_smallest_case():
    result = probe_nonstandard([rotation_generator(2, (1, 2))])
    assert result.subgroup_order == 2
    assert result.subgroup_is_full_symmetric
    assert result.larc_dim == 1
    assert result.larc_controllable


def test_probe_rejects_overlapping_pairs():
    overlapping = rotation_generator(4, (1, 2)) + rotation_generator(4, (1, 3))
    with pytest.raises(ValueError):
        probe_nonstandard([overlapping])


def test_probe_rejects_non_unit_coefficients_and_non_skew():
    with pytest.raises(ValueError):
        probe_nonstandard([rotation_generator(4, (1, 2)).scaled(2)])
    from ctrlperm.liealg import ExactMatrix

    with pytest.raises(ValueError):
        probe_nonstandard([ExactMatrix([[0, 1], [1, 0]])])


# ---------------------------------------------------------- invariants


def test_adding_a_pair_is_monotone():
    rng = random.Random(37)
    for _ in range(150):
        n = 3 + int(rng.random() * 4)
        m = 1 + int(rng.random() * (n * (n - 1) // 2 - 1))
        pairs = sample_pairs(rng, n, m)
        before = analyze(so_spec(n, pairs))
        extra = sample_pairs(rng, n, m + 1)
        new_pair = next(p for p in extra if p not in pairs)
        after = analyze(so_spec(n, pairs + [new_pair]))
        for orbit in before.orbits:
            assert any(set(orbit) <= set(bigger) for bigger in after.orbits)
        if before.controllable:
            assert after.controllable


def test_redundant_pair_changes_nothing():
    rng = random.Random(41)
    for _ in range(150):
        n = 4 + int(rng.random() * 3)
        m = 2 + int(rng.random() * 4)
        pairs = sample_pairs(rng, n, min(m, n * (n - 1) // 2))
        report = analyze(so_spec(n, pairs))
        for orbit in report.orbits:
            if len(orbit) >= 2:
                inside = (orbit[0], orbit[1])
                enlarged = analyze(so_spec(n, list(pairs) + [inside]))
                assert enlarged.method_class == report.method_class
                break


def test_drift_neutrality():
    rng = random.Random(43)
    for _ in range(100):
        n = 3 + int(rng.random() * 4)
        m = 2 + int(rng.random() * 3)
        pairs = sample_pairs(rng, n, min(m, n * (n - 1) // 2))
        as_controls = analyze(so_spec(n, pairs))
        as_drift = analyze(so_spec(n, pairs[1:], drift=pairs[0]))
        assert as_controls.method_class == as_drift.method_class
        assert as_controls.controllable == as_drift.controllable
        assert as_controls.orbits == as_drift.orbits
        assert as_controls.min_controls_satisfied == as_drift.min_controls_satisfied
        assert as_controls.submanifold == as_drift.submanifold


def test_oracle_builder_matches_the_public_entry_maps():
    for family in FAMILIES:
        pair_entries, full_dim, _ = systems._FAMILIES[family][0]
        public = rotation_entries if family in ("so_n", "sphere") else coupling_entries
        for n in range(2, 7):
            pairs = list(combinations(range(1, n + 1), 2))
            for i, j in pairs:
                assert pair_entries(i - 1, j - 1) == public(n, (i, j)), family
            # the complete graph generates the full algebra
            assert full_dim(n) == lie_closure([public(n, p) for p in pairs], n).dim, family


def test_spec_rejects_non_integral_letters():
    with pytest.raises(TypeError):
        SystemSpec("so_n", 3, [(1, 2.7)])
    with pytest.raises(TypeError):
        SystemSpec("so_n", 3, [(1, 2)], drift=(2.0, 3))
    with pytest.raises(TypeError):
        SystemSpec("so_n", 2.5, [(1, 2)])
    with pytest.raises(TypeError):
        SystemSpec("so_n", Fraction(3), [(1, 2)])
    for dim in (2.5, "2", Fraction(2)):
        with pytest.raises(TypeError):
            SystemSpec("multi_agent", 3, [(1, 2)], agent_space_dim=dim)
    # a bool is stored as a plain int, so the spec survives a JSON round trip
    spec = SystemSpec("multi_agent", 3, [(1, 2)], agent_space_dim=True)
    assert type(spec.agent_space_dim) is int
    assert parse_spec(canonical_json(spec_to_dict(spec))) == spec
    # ints and bools stay accepted, stored as plain ints
    spec = SystemSpec("so_n", 3, [(True, 2)], drift=(2, 3))
    assert spec.controls == frozenset({(1, 2)})
    assert [type(a) for pair in spec.all_pairs for a in pair] == [int] * 4
