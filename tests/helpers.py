"""Shared helpers for the test suite: seeded random builders, the
transposition-decomposition oracle used to cross-check partition-level
operations at the permutation level, and a dense reference for the
bracket-closure engine."""

import itertools
from fractions import Fraction
from math import gcd

from ctrlperm.liealg import ExactMatrix, bracket
from ctrlperm.permutation import Permutation, cycle_decomposition


def sorted_pair(a, b):
    return (a, b) if a < b else (b, a)


def transposition_decomposition(sigma):
    """Index pairs whose ordered product reconstructs ``sigma`` exactly.

    Walks each cycle (a1, ..., ak) and emits (a1,a2), (a2,a3), ...; the
    list-order product of those transpositions is the cycle itself.
    """
    pairs = []
    for cycle in cycle_decomposition(sigma).cycles:
        for a, b in zip(cycle, cycle[1:]):
            pairs.append(sorted_pair(a, b))
    return pairs


def random_permutation(rng, n):
    image = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        image[i], image[j] = image[j], image[i]
    return Permutation(image)


def random_orbit_sets(rng, n):
    """A random collection of disjoint orbits (each >= 2 letters) of 1..n."""
    letters = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        letters[i], letters[j] = letters[j], letters[i]
    orbits = []
    at = 0
    while n - at >= 2:
        if rng.random() < 0.3:
            at += 1  # leave a fixed point
            continue
        biggest = min(4, n - at)
        size = 2 + int(rng.random() * (biggest - 1))
        orbits.append(frozenset(letters[at : at + size]))
        at += size
    return orbits


def random_representative(rng, n, orbits):
    """A random permutation whose nontrivial orbits are exactly ``orbits``."""
    cycles = []
    for orbit in orbits:
        cycle = sorted(orbit)
        for i in range(len(cycle) - 1, 0, -1):
            j = int(rng.random() * (i + 1))
            cycle[i], cycle[j] = cycle[j], cycle[i]
        cycles.append(tuple(cycle))
    return Permutation.from_cycles(n, cycles)


def spanning_tree_pairs(rng, orbit):
    """Random spanning-tree edges over an orbit; merging them yields the orbit."""
    order = sorted(orbit)
    for i in range(len(order) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        order[i], order[j] = order[j], order[i]
    pairs = []
    for at in range(1, len(order)):
        anchor = order[int(rng.random() * at)]
        pairs.append(sorted_pair(anchor, order[at]))
    return pairs


def shuffled(rng, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def sample_pairs(rng, n, m):
    """m distinct index pairs drawn uniformly from the n(n-1)/2 possible.

    Pops each draw from the list of all pairs: the definition that
    ``ctrlperm.cli._sample_pairs`` must reproduce without building the list.
    """
    pool = list(itertools.combinations(range(1, n + 1), 2))
    assert m <= len(pool)
    chosen = []
    for _ in range(m):
        idx = min(int(rng.random() * len(pool)), len(pool) - 1)
        chosen.append(pool.pop(idx))
    return chosen


def reference_rotation_labels(orbit):
    """Generator labels of a rotation orbit, one f-string per pair."""
    return tuple(f"rot({i},{j})" for i, j in itertools.combinations(orbit, 2))


def reference_agent_labels(orbit):
    """Generator labels of an agent orbit: pairs, then triples."""
    couples = tuple(f"couple({i},{j})" for i, j in itertools.combinations(orbit, 2))
    circs = tuple(f"circ({i},{j},{k})" for i, j, k in itertools.combinations(orbit, 3))
    return couples + circs


# ------------------------------------------- reference closure engine
#
# The bracket-closure engine as it was before sparse storage: an all-pairs
# worklist over dense matrices, with a dense integer echelon row space.  It
# shares nothing with ``ctrlperm.liealg`` but ``ExactMatrix`` and the dense
# ``bracket``, and pins the library's closure basis exactly.


def _dense_primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g > 1:
        vec = [x // g for x in vec]
    for x in vec:
        if x:
            if x < 0:
                vec = [-y for y in vec]
            break
    return vec


def _dense_integer_vector(exact_vec):
    denom = 1
    for x in exact_vec:
        d = Fraction(x).denominator
        denom = denom * d // gcd(denom, d)
    return _dense_primitive([int(x * denom) for x in exact_vec])


class DenseRowSpace:
    """Primitive integer rows in reduced echelon form, dense and ordered by pivot."""

    def __init__(self):
        self.rows = []
        self.pivots = []

    def insert(self, exact_vec):
        vec = _dense_integer_vector(exact_vec)
        for row, p in zip(self.rows, self.pivots):
            c = vec[p]
            if c:
                vec = [row[p] * x - c * y for x, y in zip(vec, row)]
        if not any(vec):
            return False
        vec = _dense_primitive(vec)
        pivot = next(i for i, x in enumerate(vec) if x)
        a = vec[pivot]
        for idx, row in enumerate(self.rows):
            c = row[pivot]
            if c:
                self.rows[idx] = _dense_primitive([a * x - c * y for x, y in zip(row, vec)])
        at = 0
        while at < len(self.pivots) and self.pivots[at] < pivot:
            at += 1
        self.rows.insert(at, vec)
        self.pivots.insert(at, pivot)
        return True


def reference_closure_basis(generators):
    """Closure basis by brackets of every new element with every element so far."""
    space = DenseRowSpace()

    def insert(m):
        return space.insert([x for row in m.rows for x in row])

    mats = [g for g in generators if insert(g)]
    head = 0
    while head < len(mats):
        x = mats[head]
        head += 1
        for y in mats[:head]:
            b = bracket(x, y)
            if insert(b):
                mats.append(b)
    n = generators[0].n
    return tuple(
        ExactMatrix([row[i * n : (i + 1) * n] for i in range(n)]) for row in space.rows
    )


# ------------------------------------------ reference subgroup order
#
# The subgroup order as it was found before the stabilizer chain: every
# element listed, breadth first.  Exponential in n, so only for the small
# groups the tests draw; it pins ``generate_subgroup``'s order exactly.


def reference_subgroup_order(generators, n):
    """Order of the subgroup of S_n generated by ``generators``, by listing it."""
    seen = {tuple(range(1, n + 1))}
    frontier = list(seen)
    while frontier:
        next_frontier = []
        for img in frontier:
            for g in generators:
                prod = tuple(g.image[v - 1] for v in img)
                if prod not in seen:
                    seen.add(prod)
                    next_frontier.append(prod)
        frontier = next_frontier
    return len(seen)
