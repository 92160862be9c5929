import copy
import pickle
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest

from ctrlperm import liealg, systems
from ctrlperm.liealg import coupling_generator, lie_closure, rotation_generator
from ctrlperm.monoid import OrbitPartition
from ctrlperm.permutation import check_pair
from ctrlperm.specio import canonical_json, parse_spec, spec_to_dict
from ctrlperm.systems import (
    FAMILIES,
    ORACLE_MAX_AGENTS,
    ORACLE_MAX_ROTATION,
    OracleSizeError,
    SubmanifoldComponent,
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


def test_spec_refuses_more_letters_than_a_list_holds():
    assert SystemSpec("so_n", sys.maxsize - 1, frozenset([(1, 2)])).n == sys.maxsize - 1
    for n in (sys.maxsize, 10**30):
        with pytest.raises(ValueError, match="the most letters a list can hold"):
            SystemSpec("so_n", n, frozenset([(1, 2)]))


def test_spec_refuses_distribution_entries_no_report_can_write():
    tiny = Fraction(1, 10**4300)  # its denominator has 4301 digits, as has 1/2 - tiny's
    for dist, at in (((Fraction(1, 2), Fraction(1, 2) - tiny, tiny), 1), ((0, 1, tiny), 2)):
        # checked before the entries' sum
        with pytest.raises(ValueError, match=f"^initial_distribution entry {at} has more digits"):
            SystemSpec("markov", 3, frozenset([(1, 2)]), initial_distribution=dist)


class _Rational(Fraction):
    """A Fraction subclass: the spec stores it as a plain Fraction."""


# Mersenne primes: large coprime denominators, two of them above 10**30
MERSENNE = (2**61 - 1, 2**107 - 1, 2**127 - 1)


def _entry(rng, n):
    """A random nonnegative entry below 1/n, in one of the forms a library caller may give."""
    kind = rng.choice(("int", "ratio", "decimal", "exponent", "subclass", "fraction"))
    if kind == "int":
        return 0
    if kind in ("decimal", "exponent"):
        digits = rng.randint(2, 8)
        k = rng.randint(0, 10**digits // n - 1)
        return f"0.{k:0{digits}d}" if kind == "decimal" else f"{k}e-{digits}"
    d = rng.choice(MERSENNE) if kind == "ratio" else rng.randint(1, 50)
    value = Fraction(rng.randint(0, d - 1), d * n)
    if kind == "ratio":
        return f"{value.numerator}/{value.denominator}"
    return _Rational(value) if kind == "subclass" else value


def _random_distribution(rng, n):
    """n mixed-form entries; the last is the rest of 1, maybe nudged off it.

    Returns the entries and whether they sum to exactly 1.
    """
    entries = [_entry(rng, n) for _ in range(n - 1)]
    rest = 1 - sum(map(Fraction, entries))
    nudge = rng.choice((0, 0, Fraction(1, rng.choice(MERSENNE)), -Fraction(1, 10**40)))
    last = rest + nudge
    form = rng.choice((str, _Rational, Fraction))
    entries.append(form(last) if last.denominator != 1 else int(last))
    return entries, nudge == 0


def test_distribution_sums_are_exact_on_mixed_entries():
    rng = random.Random(2026)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(2, 38)
        entries, exact = _random_distribution(rng, n)
        reference = tuple(map(Fraction, entries))
        assert (sum(reference) == 1) == exact
        seen[exact] += 1
        pairs = sample_pairs(rng, n, rng.randint(0, n - 1))
        if not exact:
            with pytest.raises(ValueError) as refused:
                SystemSpec("markov", n, frozenset(pairs), initial_distribution=entries)
            assert str(refused.value) == f"initial_distribution must sum to 1, got {sum(reference)}"
            continue
        spec = SystemSpec("markov", n, frozenset(pairs), initial_distribution=entries)
        assert spec.initial_distribution == reference
        assert {type(x) for x in spec.initial_distribution} == {Fraction}
        report = analyze(spec)
        for orbit, value in report.submanifold.conserved_sums:
            assert type(value) is Fraction
            assert value == sum(reference[i - 1] for i in orbit)
        frozen = tuple((j, reference[j - 1]) for j in report.fixed_points)
        assert report.submanifold.frozen_states == frozen
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize(
    "dist, message",
    [
        (("1/2", "7/10"), "initial_distribution must sum to 1, got 6/5"),
        ((Fraction(3, 2), -Fraction(1, 2)), "initial_distribution entries must be nonnegative"),
        ((_Rational(-1, 3), _Rational(4, 3)), "initial_distribution entries must be nonnegative"),
        # the sign is checked before the sum
        ((-1, 0), "initial_distribution entries must be nonnegative"),
        (("1/3",), "initial_distribution length 1 != n=2"),
    ],
)
def test_distribution_refusals_keep_their_messages(dist, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SystemSpec("markov", 2, frozenset([(1, 2)]), initial_distribution=dist)


def test_distribution_entries_are_read_as_matrix_entries_are():
    # a string passes the command line's exponent guard before Fraction reads
    # it: ("1e1000000", "0") once computed 10**1000000 before a digit check
    # refused the entry
    with pytest.raises(
        ValueError, match=r"^initial_distribution entry 1 has an exponent beyond 4300: '1e5000'$"
    ):
        SystemSpec("markov", 2, frozenset([(1, 2)]), initial_distribution=("1", "1e5000"))
    # a float or a Decimal is refused, as ExactMatrix refuses it
    for dist in ((0.5, 0.5), (Fraction(1, 2), Decimal("0.5"))):
        with pytest.raises(TypeError, match=r"^initial_distribution entry \d must be an int, a"):
            SystemSpec("markov", 2, frozenset([(1, 2)]), initial_distribution=dist)
    with pytest.raises(ValueError, match=r"^initial_distribution entry 0 is not a rational: 'x'$"):
        SystemSpec("markov", 2, frozenset([(1, 2)]), initial_distribution=("x", "1"))


class _Letter(int):
    """An int subclass: check_pair stores it as a plain int."""


# control sets as Python callers may give them, valid and not; where several
# pairs are bad, the error names one
_CONTROL_SETS = [
    [(1, 2), (2, 3)],
    {(1, 2), (4, 5), (2, 3)},
    frozenset([(1, 2), (3, 4)]),
    ((i, i + 1) for i in range(1, 5)),
    [[1, 2], (2, 3)],
    [(1, 2), (True, 3)],
    [(True, 2)],
    [(_Letter(1), 2)],
    [(1, 2), (2.0, 3)],
    [(1, 2), (3,)],
    [(1, 2), (3, 4, 5)],
    [(3, 4, 5), (1, 2, 3)],
    [(1,), (2,)],
    [(), ()],
    [(1, 2), ((3,), (4,))],
    [(1, 2), (4, 3)],
    [(3, 3)],
    [(1, 2), (0, 3)],
    [(1, 2), (4, 6)],
    [(1, 2), (2, 5), (4, 9), (0, 1), (5, 4)],
    [(1, 2), 7],
    [(1, 2), "34"],
    [(1, 2), None],
]


@pytest.mark.parametrize("controls", _CONTROL_SETS, ids=repr)
def test_spec_controls_are_what_check_pair_makes_of_each_pair(controls):
    controls = tuple(controls)

    def outcome(check):
        try:
            return check()
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    expected = outcome(lambda: frozenset(check_pair(p, 5) for p in controls))
    got = outcome(lambda: SystemSpec("so_n", 5, controls).controls)
    assert got == expected
    if type(got) is frozenset:
        assert {type(cell) for pair in got for cell in pair} == {int}
        assert {type(pair) for pair in got} == {tuple}


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


def _label_orbits():
    """Orbits of 0 to 30 letters: contiguous, and with gaps; letters of one to four digits."""
    rng = random.Random(17)
    orbits = [tuple(range(1, k + 1)) for k in range(31)]
    for k in range(31):
        letters = sorted(shuffled(rng, range(1, 1200))[:k])
        orbits += [tuple(letters), tuple(range(95, 95 + 7 * k, 7))]
    return orbits


def test_generator_labels_match_their_definition():
    # each label function writes the labels as one text from the orbit's
    # letters as text, joined by single spaces unless it is given another
    # separator, such as the JSON writer's
    for orbit in _label_orbits():
        letters = list(map(str, orbit))
        for build, reference in (
            (_rotation_labels, reference_rotation_labels),
            (_agent_labels, reference_agent_labels),
        ):
            text = build(letters)
            assert type(text) is str
            assert (text.split(" ") if text else []) == list(reference(orbit)), orbit
            for sep in (" ", '",\n      "', " | "):
                assert build(letters, sep) == sep.join(reference(orbit)), (orbit, sep)


def test_generator_labels_need_no_json_escape():
    # the CLI's JSON report quotes each label as it is: printable ASCII
    # without a space, '"' or '\\' needs no escape
    label = re.compile(r'[!#-\[\]-~]+')
    for orbit in _label_orbits():
        for build in (_rotation_labels, _agent_labels):
            text = build(list(map(str, orbit)))
            assert all(label.fullmatch(item) for item in text.split(" ") if text), orbit


def _components():
    """A component of each generator type as analyze builds it, and one from its reference tuple."""
    rotation = analyze(so_spec(6, [(1, 2), (2, 4), (4, 6)]))
    agent = analyze(
        SystemSpec("multi_agent", 5, frozenset([(1, 3), (3, 4), (4, 5)])), with_oracle=True
    )
    for report, reference in (
        (rotation, reference_rotation_labels),
        (agent, reference_agent_labels),
    ):
        built = report.submanifold.components[0]
        yield built, SubmanifoldComponent(built.orbit, reference(built.orbit), built.dim)


def test_a_component_from_its_label_text_equals_one_from_its_tuple():
    for round_trip in (lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy):
        # a component whose tuple was never read
        for built, given in _components():
            assert round_trip(built) == given
    for built, given in _components():
        assert built == given and given == built
        assert hash(built) == hash(given) and repr(built) == repr(given)
        assert type(built.generators) is tuple and built.generators == given.generators
        for round_trip in (lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy):
            assert round_trip(given) == built
        match built:
            case SubmanifoldComponent(orbit, generators, dim):
                assert (orbit, generators, dim) == (given.orbit, given.generators, given.dim)
    assert SubmanifoldComponent.__match_args__ == ("orbit", "generators", "dim")


def test_a_component_keeps_the_tuple_it_was_given():
    spaced = SubmanifoldComponent((1, 2), ("rot(1, 2)", "a b"), None)
    assert spaced.generators == ("rot(1, 2)", "a b")
    for copied in (pickle.loads(pickle.dumps(spaced)), copy.copy(spaced), copy.deepcopy(spaced)):
        assert copied == spaced and copied.generators == ("rot(1, 2)", "a b")
    assert SubmanifoldComponent((1, 2), None, 1).generators is None
    assert SubmanifoldComponent((1, 2), ["rot(1,2)"], 1).generators == ["rot(1,2)"]


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
    real = systems._partition

    def counting(pairs, n):
        merges.append(n)
        return real(pairs, n)

    monkeypatch.setattr(systems, "_partition", counting)
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
    from ctrlperm.liealg import ExactMatrix

    not_unit = "generators must be signed sums of standard rotation generators"
    reuse = "index pairs of a generator must be pairwise disjoint; letter reuse at"
    twice = rotation_generator(4, (1, 2)) + rotation_generator(4, (1, 2))
    overlapping = rotation_generator(4, (1, 2)) + rotation_generator(4, (1, 3))
    # letter 1 reused at (1,4), and a non-unit entry at (2,3): the first in
    # row-major order is reported, though (2,3) comes first by column
    both = rotation_generator(4, (1, 4)) + rotation_generator(4, (2, 3))
    both = rotation_generator(4, (1, 2)) + both + rotation_generator(4, (2, 3))
    for generator, message in (
        (ExactMatrix([[0, 1], [1, 0]]), "generator is not skew-symmetric"),
        (ExactMatrix([[1, 0], [0, 0]]), "generator is not skew-symmetric"),
        (twice, f"entry 2 at (1,2): {not_unit}"),
        (overlapping, f"{reuse} (1,3)"),
        (both, f"{reuse} (1,4)"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            probe_nonstandard([generator])


def test_probe_orders_its_subgroup_through_the_systems_forwarder(monkeypatch):
    # systems.generate_subgroup imports the permutation algebra on each call and
    # never rebinds itself, so it stays the one global a tracer wraps
    from ctrlperm import permutation

    forwarder = vars(systems)["generate_subgroup"]
    images = [permutation.transposition(4, (a, a + 1)) for a in (1, 2, 3)]
    s4 = forwarder(images, 4)
    assert s4 == permutation.generate_subgroup(images, 4)
    assert (s4.order, s4.is_full_symmetric) == (24, True)
    assert vars(systems)["generate_subgroup"] is forwarder
    seen = []

    def counting(images, n):
        seen.append(n)
        return forwarder(images, n)

    monkeypatch.setattr(systems, "generate_subgroup", counting)
    assert probe_nonstandard([rotation_generator(3, (1, 2))]).subgroup_order == 2
    assert seen == [3]


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


def test_oracle_closes_the_complete_graph_to_the_full_algebra():
    # n = 2..6: dim so(n) = n(n-1)/2 for the rotation families, and (n-1)^2,
    # the zero-row-and-column-sum matrices, for the agent families
    full_dims = {
        "so_n": (1, 3, 6, 10, 15),
        "sphere": (1, 3, 6, 10, 15),
        "multi_agent": (1, 4, 9, 16, 25),
        "markov": (1, 4, 9, 16, 25),
    }
    assert set(full_dims) == set(FAMILIES)
    for family, dims in full_dims.items():
        for n, dim in zip(range(2, 7), dims):
            spec = SystemSpec(family, n, frozenset(combinations(range(1, n + 1), 2)))
            result = oracle_check(spec, spec.orbit_class())
            assert (result.dim, result.controllable, result.agrees) == (dim, True, True), (family, n)
            assert result.orbits == (tuple(range(1, n + 1)),), (family, n)


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
