import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlperm import permutation
from ctrlperm.monoid import UnionFind
from ctrlperm.permutation import (
    CycleDecomposition,
    Permutation,
    SubgroupSummary,
    check_pair,
    compose,
    cycle_decomposition,
    generate_subgroup,
    identity,
    nontrivial_orbits,
    transposition,
    transposition_product,
)
from helpers import (
    random_permutation,
    reference_subgroup_order,
    shuffled,
    transposition_decomposition,
)


def perms_of(n):
    return st.permutations(tuple(range(1, n + 1))).map(Permutation)


@st.composite
def perm_tuples(draw, k, nmin=2, nmax=7):
    n = draw(st.integers(nmin, nmax))
    return tuple(draw(perms_of(n)) for _ in range(k))


def test_identity_fixes_every_letter():
    assert identity(3).image == (1, 2, 3)
    assert identity(1).image == (1,)
    with pytest.raises(ValueError):
        identity(0)


def test_identity_is_neutral_for_random_sigma():
    rng = random.Random(7)
    for _ in range(20):
        sigma = random_permutation(rng, 4)
        assert compose(identity(4), sigma) == sigma
        assert compose(sigma, identity(4)) == sigma


def test_transposition_swaps_and_fixes():
    tau = transposition(5, (1, 2))
    assert tau.image == (2, 1, 3, 4, 5)
    assert transposition(3, (1, 3)).image == (3, 2, 1)


def test_transposition_is_involution():
    tau = transposition(5, (4, 5))
    assert compose(tau, tau) == identity(5)


def test_transposition_range_check():
    with pytest.raises(ValueError):
        transposition(5, (4, 6))
    with pytest.raises(ValueError):
        transposition(5, (0, 1))
    with pytest.raises(ValueError):
        transposition(5, (3, 3))


def test_compose_bridging_pairs_lengthen_cycles():
    # right factor applied first: (1,2)(2,3) = (1,2,3)
    p = compose(transposition(3, (1, 2)), transposition(3, (2, 3)))
    assert p == Permutation.from_cycles(3, [(1, 2, 3)])
    p = compose(transposition(5, (1, 2)), Permutation.from_cycles(5, [(2, 3, 4, 5)]))
    assert p == Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])


def test_compose_disjoint_transpositions_commute():
    a, b = transposition(5, (1, 2)), transposition(5, (4, 5))
    assert compose(a, b) == compose(b, a)


def test_compose_rejects_mismatched_letter_counts():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_cycle_decomposition_canonical_form():
    sigma = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])
    dec = cycle_decomposition(sigma)
    assert dec == CycleDecomposition(((1, 2, 3), (4, 5)), frozenset())
    assert cycle_decomposition(identity(5)) == CycleDecomposition((), frozenset({1, 2, 3, 4, 5}))


def test_cycle_decomposition_of_chained_product():
    # (1,2) then (2,3) then (1,3) then (3,4), composed left to right, is a
    # single 3-cycle on {2,3,4}; the reversed order gives the inverse cycle.
    forward = transposition_product([(1, 2), (2, 3), (1, 3), (3, 4)], 4)
    assert cycle_decomposition(forward).cycles == ((2, 3, 4),)
    backward = transposition_product([(3, 4), (1, 3), (2, 3), (1, 2)], 4)
    assert cycle_decomposition(backward).cycles == ((2, 4, 3),)
    assert nontrivial_orbits(forward) == nontrivial_orbits(backward)


def test_nontrivial_orbits():
    sigma = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])
    assert nontrivial_orbits(sigma) == frozenset({frozenset({1, 2, 3}), frozenset({4, 5})})
    assert nontrivial_orbits(identity(4)) == frozenset()
    five = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
    assert nontrivial_orbits(five) == frozenset({frozenset({1, 2, 3, 4, 5})})


def test_transposition_product_chain_examples():
    assert transposition_product([(1, 2), (2, 3), (3, 4), (4, 5)], 5) == Permutation.from_cycles(
        5, [(1, 2, 3, 4, 5)]
    )
    assert transposition_product([(1, 2), (2, 3), (1, 3), (3, 4)], 4) == Permutation.from_cycles(
        4, [(2, 3, 4)]
    )
    # order sensitivity: reversing the list inverts the product
    assert transposition_product([(1, 2), (2, 3), (3, 4)], 4) == Permutation.from_cycles(
        4, [(1, 2, 3, 4)]
    )
    assert transposition_product([(3, 4), (2, 3), (1, 2)], 4) == Permutation.from_cycles(
        4, [(1, 4, 3, 2)]
    )


def test_transposition_product_split_chain():
    sigma = transposition_product([(1, 2), (2, 3), (4, 5)], 5)
    assert sigma == Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])


def test_generate_subgroup_dihedral_and_symmetric():
    a = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    b = Permutation.from_cycles(4, [(2, 3)])
    small = generate_subgroup([a, b], 4)
    assert (small.order, small.is_full_symmetric) == (8, False)
    full = generate_subgroup([a, b, transposition(4, (1, 2))], 4)
    assert (full.order, full.is_full_symmetric) == (24, True)
    trivial = generate_subgroup([identity(3)], 3)
    assert trivial.order == 1 and not trivial.is_full_symmetric


def test_generate_subgroup_is_exact_beyond_nine_letters():
    # the listing this replaced stopped at 9! elements and called S_10 "proper"
    for n in (10, 12, 30):
        path = [transposition(n, (i, i + 1)) for i in range(1, n)]
        assert generate_subgroup(path, n) == SubgroupSummary(factorial(n), True)
        # a transposition and an n-cycle generate S_n; the n-cycle alone, Z_n
        cycle = Permutation.from_cycles(n, [range(1, n + 1)])
        assert generate_subgroup([path[0], cycle], n).order == factorial(n)
        assert generate_subgroup([cycle], n).order == n
        # the 3-cycles (1 2 k) generate the alternating group
        threes = [Permutation.from_cycles(n, [(1, 2, k)]) for k in range(3, n + 1)]
        assert generate_subgroup(threes, n) == SubgroupSummary(factorial(n) // 2, False)
    # products of the transpositions (1 2), (3 4), ... on 24 letters: 2^12
    pairs = [transposition(24, (i, i + 1)) for i in range(1, 24, 2)]
    assert generate_subgroup(pairs, 24).order == 2**12
    with pytest.raises(TypeError):
        generate_subgroup(path, n, cap=10)


def test_generate_subgroup_order_divides_factorial():
    rng = random.Random(11)
    for _ in range(25):
        n = 3 + int(rng.random() * 3)
        gens = [random_permutation(rng, n) for _ in range(2)]
        summary = generate_subgroup(gens, n)
        assert factorial(n) % summary.order == 0


def _disjoint_transpositions(rng, n):
    """A product of disjoint transpositions, as the probe maps its generators."""
    letters = shuffled(rng, range(1, n + 1))
    k = int(rng.random() * (n // 2 + 1))
    return Permutation.from_cycles(n, [letters[2 * i : 2 * i + 2] for i in range(k)])


def test_generate_subgroup_matches_the_breadth_first_listing():
    rng = random.Random(20261018)
    kinds = {"empty": 0, "identity only": 0, "repeated": 0, "n=1": 0, "n=2": 0}
    for case in range(600):
        n = 1 + case % 7
        gens = []
        for _ in range(int(rng.random() * 5)):
            draw = rng.random()
            if draw < 0.4:
                gens.append(_disjoint_transpositions(rng, n))
            elif draw < 0.75:
                gens.append(random_permutation(rng, n))
            elif draw < 0.9 and gens:
                gens.append(gens[int(rng.random() * len(gens))])
            else:
                gens.append(identity(n))
        if case % 50 == 0:
            gens = [identity(n)] * (1 + case % 3)
        kinds["empty"] += not gens
        kinds["identity only"] += bool(gens) and all(g == identity(n) for g in gens)
        kinds["repeated"] += len(set(gens)) < len(gens)
        kinds["n=1"] += n == 1
        kinds["n=2"] += n == 2
        order = reference_subgroup_order(gens, n)
        assert generate_subgroup(gens, n) == SubgroupSummary(order, order == factorial(n)), (
            n, [str(g) for g in gens],
        )
    assert min(kinds.values()) >= 10, kinds


def _cycles(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def _count_sifts(monkeypatch):
    """Count the Schreier generators ``generate_subgroup`` sifts."""
    calls = []
    sift = permutation._sift

    def counted(*args):
        calls.append(1)
        return sift(*args)

    monkeypatch.setattr(permutation, "_sift", counted)
    return calls


class _NoBound(UnionFind):
    """One class of n + 1 letters: a bound of (n + 1)! that no subgroup of S_n meets."""

    def groups(self):
        return (tuple(range(len(self.parent))),)


# (n, generators, whether the group is the product of the symmetric groups on its orbits)
_BOUND_CASES = [
    (8, [transposition(8, (i, i + 1)) for i in range(1, 8)], True),
    # S_4 x S_2, with the fixed points 5 and 8
    (8, [transposition(8, (1, 2)), _cycles(8, (2, 3, 4)), transposition(8, (6, 7))], True),
    # repeated and identity generators
    (6, [transposition(6, (1, 2)), _cycles(6, (1, 2, 3, 4)), transposition(6, (1, 2)),
         identity(6), _cycles(6, (1, 2, 3, 4))], True),
    (5, [identity(5), identity(5)], True),
    (7, [_cycles(7, (1, 2, k)) for k in range(3, 8)], False),
    (7, [_cycles(7, range(1, 8))], False),
    (4, [_cycles(4, (1, 2, 3, 4)), _cycles(4, (1, 3))], False),
    (4, [_cycles(4, (1, 2), (3, 4)), _cycles(4, (1, 3), (2, 4))], False),
    (4, [_cycles(4, (1, 2), (3, 4))], False),
]


@pytest.mark.parametrize("n, gens, at_bound", _BOUND_CASES)
def test_generate_subgroup_stops_at_the_orbit_bound_only_when_exact(monkeypatch, n, gens, at_bound):
    order = reference_subgroup_order(gens, n)
    expected = SubgroupSummary(order, order == factorial(n))
    orbits = UnionFind(n)
    for g in gens:
        orbits.union_pairs(enumerate(g.image, 1))
    assert (order == prod(factorial(len(o)) for o in orbits.groups())) == at_bound
    sifts = _count_sifts(monkeypatch)
    assert generate_subgroup(gens, n) == expected
    stopped = len(sifts)
    # with a bound no group meets, the chain runs every check, to the same order
    monkeypatch.setattr(permutation, "UnionFind", _NoBound)
    assert generate_subgroup(gens, n) == expected
    checked = len(sifts) - stopped
    if at_bound and order > 2:
        assert stopped < checked
    else:
        assert stopped == checked


def test_generate_subgroup_rejects_bad_input():
    with pytest.raises(ValueError):
        generate_subgroup([identity(3), identity(4)], 3)
    with pytest.raises(ValueError):
        generate_subgroup([], 0)


def test_render_examples():
    sigma = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])
    assert str(sigma) == "(1 2 3)(4 5)"
    assert repr(sigma) == "Permutation(image=(2, 3, 1, 5, 4))"
    assert str(identity(4)) == "()"


@settings(max_examples=150)
@given(perm_tuples(3))
def test_compose_is_associative(perms):
    a, b, c = perms
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@settings(max_examples=150)
@given(perm_tuples(2))
def test_compose_preserves_bijection(perms):
    a, b = perms
    image = compose(a, b).image
    assert sorted(image) == list(range(1, len(image) + 1))


@settings(max_examples=150)
@given(st.integers(2, 8).flatmap(perms_of))
def test_cycles_recompose_to_sigma(sigma):
    dec = cycle_decomposition(sigma)
    acc = identity(sigma.n)
    for cycle in dec.cycles:  # disjoint, so the order cannot matter
        acc = compose(acc, Permutation.from_cycles(sigma.n, [cycle]))
    assert acc == sigma
    support = set()
    for cycle in dec.cycles:
        assert len(cycle) >= 2
        assert cycle[0] == min(cycle)
        support.update(cycle)
    assert support | dec.fixed_points == set(range(1, sigma.n + 1))
    assert not support & dec.fixed_points


@settings(max_examples=150)
@given(st.integers(2, 8).flatmap(perms_of))
def test_transposition_decomposition_reconstructs(sigma):
    pairs = transposition_decomposition(sigma)
    assert transposition_product(pairs, sigma.n) == sigma


def test_check_pair_rejects_non_integral_letters():
    for pair in [(1.0, 2.5), (1, 2.0), (1.5, 2), (Fraction(1), 2)]:
        with pytest.raises(TypeError):
            check_pair(pair, 3)
    # out of range is still a ValueError, whatever the type
    with pytest.raises(ValueError, match="index pair"):
        check_pair((2.5, 1), 3)
    for pair in [(1, 2), (True, 2), [1, 3]]:
        result = check_pair(pair, 3)
        assert result == tuple(pair) and [type(a) for a in result] == [int, int]
