import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlperm.monoid import (
    OrbitPartition,
    UnionFind,
    absorbing_product,
    orbit_partition,
    partition_from_pairs,
)
from ctrlperm.permutation import Permutation, identity, transposition
from helpers import (
    random_orbit_sets,
    random_representative,
    transposition_decomposition,
)


def part(n, *orbits):
    return OrbitPartition(n, orbits)


@st.composite
def pair_lists(draw, nmin=2, nmax=7, max_size=10):
    n = draw(st.integers(nmin, nmax))
    pool = list(combinations(range(1, n + 1), 2))
    pairs = draw(st.lists(st.sampled_from(pool), max_size=max_size))
    return n, pairs


def perms_of(n):
    return st.permutations(tuple(range(1, n + 1))).map(Permutation)


@st.composite
def perm_tuples(draw, k, nmin=2, nmax=7):
    n = draw(st.integers(nmin, nmax))
    return n, tuple(draw(perms_of(n)) for _ in range(k))


# ---------------------------------------------------------------- classes


def test_same_orbits_same_class():
    a = Permutation.from_cycles(3, [(1, 3, 2)])
    b = Permutation.from_cycles(3, [(1, 2, 3)])
    assert a != b
    assert orbit_partition(a) == orbit_partition(b) == part(3, {1, 2, 3})


def test_identity_class_is_empty_partition():
    assert orbit_partition(identity(4)) == part(4, )
    assert orbit_partition(Permutation.from_cycles(4, [(1, 2), (3, 4)])) == part(
        4, {1, 2}, {3, 4}
    )


def test_partition_validation():
    with pytest.raises(ValueError):
        part(4, {1})  # too small
    with pytest.raises(ValueError):
        part(4, {1, 2}, {2, 3})  # not disjoint
    with pytest.raises(ValueError):
        part(4, {4, 5})  # out of range


def test_partition_render():
    p = part(5, {1, 2, 3}, {4, 5})
    assert str(p) == "{1,2,3}{4,5}"
    assert repr(p) == "OrbitPartition(n=5, orbits=((1, 2, 3), (4, 5)))"
    assert str(part(3)) == "{}"
    assert repr(part(3)) == "OrbitPartition(n=3, orbits=())"


def test_check_pair_lives_in_monoid():
    # the one pair check lives on the orbit route, and permutation imports it from there
    from ctrlperm import monoid, permutation

    assert permutation.check_pair is monoid.check_pair


# ---------------------------------------------------- absorbing product
# The absorbing step: each pair's transposition multiplies the product so far
# on the right, unless both its letters already share an orbit.


def test_absorbing_compose_absorbs_inside_orbit():
    pi = absorbing_product([(1, 2), (2, 3)], 4)
    assert pi == Permutation.from_cycles(4, [(1, 2, 3)])
    assert absorbing_product([(1, 2), (2, 3), (1, 3)], 4) == pi


def test_absorbing_compose_extends_orbit():
    out = absorbing_product([(1, 2), (2, 3), (3, 4)], 4)
    assert out == Permutation.from_cycles(4, [(1, 2, 3, 4)])
    assert orbit_partition(out) == part(4, {1, 2, 3, 4})


def test_absorbing_compose_identity_start():
    assert absorbing_product([], 3) == identity(3)
    assert absorbing_product([(1, 2)], 3) == transposition(3, (1, 2))


def test_absorbing_compose_rejects_non_transpositions():
    # each factor is the transposition of a checked pair, so a pair that
    # names no transposition is refused
    for pair in [(1, 1), (2, 1), (0, 2), (1, 4)]:
        with pytest.raises(ValueError, match="index pair"):
            absorbing_product([(1, 2), pair], 3)


def test_absorbing_product_examples():
    out = absorbing_product([(1, 2), (2, 3), (1, 3), (3, 4)], 4)
    assert orbit_partition(out) == part(4, {1, 2, 3, 4})
    out = absorbing_product([(1, 2), (2, 3), (3, 4), (4, 5)], 5)
    assert orbit_partition(out) == part(5, {1, 2, 3, 4, 5})
    # a repeated transposition is absorbed, not cancelled
    assert absorbing_product([(1, 2), (1, 2)], 2) == transposition(2, (1, 2))


# ------------------------------------------------------------- merging


def test_merge_absorbs_contained_orbit():
    assert part(3, {1, 2, 3}).merge(part(3, {1, 3})) == part(3, {1, 2, 3})


def test_merge_disjoint_orbits_stack():
    assert part(4, {1, 2}).merge(part(4, {3, 4})) == part(4, {1, 2}, {3, 4})


def test_merge_overlapping_orbit_collections():
    # expected value computed with the permutation-level product over
    # explicit transposition decompositions of both partitions
    left = part(6, {1, 2, 3})
    right = part(6, {3, 4}, {5, 6})
    decomposed = [(1, 2), (2, 3)] + [(3, 4), (5, 6)]
    oracle = orbit_partition(absorbing_product(decomposed, 6))
    assert oracle == part(6, {1, 2, 3, 4}, {5, 6})
    assert left.merge(right) == oracle


def test_merge_rejects_mismatched_n():
    with pytest.raises(ValueError):
        part(3, {1, 2}).merge(part(4, {1, 2}))


def test_partition_from_pairs_examples():
    assert partition_from_pairs({(1, 2), (2, 3), (1, 3), (3, 4)}, 4) == part(4, {1, 2, 3, 4})
    assert partition_from_pairs({(1, 2), (2, 3), (4, 5)}, 5) == part(5, {1, 2, 3}, {4, 5})
    assert partition_from_pairs(set(), 4) == part(4)


def test_is_full_cycle_class():
    assert part(4, {1, 2, 3, 4}).is_full()
    assert not part(5, {1, 2, 3}, {4, 5}).is_full()
    assert not part(4).is_full()


# ------------------------------------------------------------ laws


@settings(max_examples=200)
@given(perm_tuples(2))
def test_commutativity_on_classes(data):
    n, (sigma, eta) = data
    ds, de = transposition_decomposition(sigma), transposition_decomposition(eta)
    left = orbit_partition(absorbing_product(ds + de, n))
    right = orbit_partition(absorbing_product(de + ds, n))
    assert left == right


@settings(max_examples=200)
@given(perm_tuples(3))
def test_associativity_on_classes(data):
    n, (sigma, eta, xi) = data
    a, b, c = (orbit_partition(p) for p in (sigma, eta, xi))
    assert a.merge(b).merge(c) == a.merge(b.merge(c))
    # and the permutation-level fold lands in the same class
    decomposed = (
        transposition_decomposition(sigma)
        + transposition_decomposition(eta)
        + transposition_decomposition(xi)
    )
    assert orbit_partition(absorbing_product(decomposed, n)) == a.merge(b).merge(c)


def test_compatibility_under_representatives():
    rng = random.Random(101)
    for _ in range(200):
        n = 4 + int(rng.random() * 4)
        orbits_a = random_orbit_sets(rng, n)
        orbits_b = random_orbit_sets(rng, n)
        results = set()
        for _ in range(3):
            sigma = random_representative(rng, n, orbits_a)
            eta = random_representative(rng, n, orbits_b)
            decomposed = transposition_decomposition(sigma) + transposition_decomposition(eta)
            results.add(orbit_partition(absorbing_product(decomposed, n)))
        assert len(results) == 1
        assert next(iter(results)) == OrbitPartition(n, orbits_a).merge(
            OrbitPartition(n, orbits_b)
        )


@settings(max_examples=100)
@given(pair_lists(), st.randoms(use_true_random=False))
def test_partition_from_pairs_is_order_independent(data, rng):
    n, pairs = data
    expected = partition_from_pairs(pairs, n)
    for _ in range(20):
        ordering = list(pairs)
        rng.shuffle(ordering)
        assert orbit_partition(absorbing_product(ordering, n)) == expected


@settings(max_examples=200)
@given(pair_lists())
def test_union_find_route_matches_permutation_route(data):
    n, pairs = data
    assert partition_from_pairs(pairs, n) == orbit_partition(absorbing_product(pairs, n))


@settings(max_examples=100)
@given(pair_lists())
def test_identity_law(data):
    n, pairs = data
    p = partition_from_pairs(pairs, n)
    assert p.merge(OrbitPartition(n, ())) == p
    assert OrbitPartition(n, ()).merge(p) == p


@settings(max_examples=200)
@given(pair_lists())
def test_empty_image_only_for_empty_set(data):
    n, pairs = data
    p = partition_from_pairs(pairs, n)
    assert (p == OrbitPartition(n, ())) == (len(pairs) == 0)


def test_orbits_are_stored_in_canonical_form():
    part = OrbitPartition(5, [{5, 4}, {3, 1, 2}])
    assert part.orbits == ((1, 2, 3), (4, 5))
    assert part.sorted_orbits() is part.orbits
    # equal orbits given as any iterables collapse into one
    assert OrbitPartition(5, [(2, 1), [1, 2], {1, 2}, frozenset({4, 5})]).orbits == (
        (1, 2),
        (4, 5),
    )
    assert OrbitPartition(3, []).orbits == ()
    assert str(part) == "{1,2,3}{4,5}"
    assert part.fixed_points() == frozenset()
    assert OrbitPartition(4, [(4, 3)]).fixed_points() == frozenset({1, 2})
    assert [p.is_full() for p in (part, OrbitPartition(3, [(3, 1, 2)]))] == [False, True]


def test_partition_rejects_non_integral_letters():
    # a letter 1.5 once read as a letter, and a size 2.5 failed only later,
    # in fixed_points
    with pytest.raises(TypeError):
        OrbitPartition(2, [{1, 1.5}])
    with pytest.raises(TypeError):
        OrbitPartition(3, [(1.0, 2)])
    with pytest.raises(TypeError):
        OrbitPartition(2.5, [{1, 2}])
    with pytest.raises(TypeError):
        OrbitPartition(2, ["12"])
    # integral letters of other types are stored as plain ints, so the
    # length count in is_full sees exactly the letters 1..n
    part = OrbitPartition(3, [(True, 2, 3)])
    assert part.orbits == ((1, 2, 3),) and type(part.orbits[0][0]) is int
    assert part.is_full() and str(part) == "{1,2,3}"
    assert type(OrbitPartition(True, []).n) is int


def _components(pairs, n):
    """Letter sets of the connected components of the graph on 1..n, by search."""
    neighbours = {a: set() for a in range(1, n + 1)}
    for a, b in pairs:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen, components = set(), []
    for start in range(1, n + 1):
        if start in seen:
            continue
        component, todo = {start}, [start]
        while todo:
            for b in neighbours[todo.pop()] - component:
                component.add(b)
                todo.append(b)
        seen |= component
        components.append(component)
    return components


def _seeded_pair_sets():
    """Pair sets on n = 1..40 letters: empty, one pair, sparse, dense, and every pair."""
    rng = random.Random(1313)
    for n in range(1, 41):
        pool = list(combinations(range(1, n + 1), 2))
        sizes = {0, min(1, len(pool)), n // 2, n, rng.randint(0, len(pool)), len(pool)}
        for m in sorted(size for size in sizes if size <= len(pool)):
            yield n, rng.sample(pool, m)


def test_partition_from_pairs_is_what_the_validating_constructor_builds():
    for n, pairs in _seeded_pair_sets():
        got = partition_from_pairs(pairs, n)
        components = _components(pairs, n)
        validated = OrbitPartition(n, [c for c in components if len(c) >= 2])
        assert got == validated and got.orbits == validated.orbits, (n, pairs)
        assert type(got.n) is int and type(got.orbits) is tuple
        assert all(type(orbit) is tuple for orbit in got.orbits)
        assert got.fixed_points() == {a for c in components if len(c) == 1 for a in c}
        assert got == orbit_partition(absorbing_product(pairs, n)), (n, pairs)


def test_union_find_groups_come_out_sorted():
    for n, pairs in _seeded_pair_sets():
        bulk, one_by_one = UnionFind(n), UnionFind(n)
        bulk.union_pairs(pairs)
        for a, b in reversed(pairs):
            one_by_one.union_pairs([(b, a)])
        groups = bulk.groups()
        assert groups == tuple(sorted(tuple(sorted(g)) for g in groups)), (n, pairs)
        assert groups == one_by_one.groups()
        assert sorted(map(frozenset, groups), key=min) == sorted(
            map(frozenset, _components(pairs, n)), key=min
        )


def test_partition_from_pairs_checks_its_letter_count():
    # n goes through operator.index, as OrbitPartition's does
    one = partition_from_pairs([], True)
    assert one == OrbitPartition(1, ()) and type(one.n) is int
    with pytest.raises(ValueError, match="at least one letter"):
        partition_from_pairs([], 0)
    with pytest.raises(ValueError):
        partition_from_pairs([(1, 2)], 0)
    with pytest.raises(TypeError):
        partition_from_pairs([(1, 2)], 2.5)
    with pytest.raises(ValueError):
        partition_from_pairs([(1, 3)], 2)
    with pytest.raises(TypeError):
        partition_from_pairs([(1, 1.5)], 3)
