"""Orbit partitions and the absorbing product on permutation classes.

Permutations that move the same letters around the same orbits are
interchangeable for reachability questions, so the analysis layer works with
the partition of {1, ..., n} into nontrivial orbits rather than with
individual permutations.  The absorbing product implemented here multiplies
permutations as usual except that a transposition already contained in one
orbit is swallowed instead of cancelling, which makes the set-level map from
index pairs to orbit partitions well defined and order independent.

Two independent realizations are provided on purpose: a permutation-level
fold (:func:`absorbing_product`) and a single union-find pass over index
pairs (:func:`partition_from_pairs`, which :meth:`OrbitPartition.merge` also
goes through).  They must agree, and the test suite uses each as an oracle
for the other.

This module also holds :func:`check_pair` and :func:`check_letter_count`,
the one index-pair check and the one letter-count check that every layer
uses.  It imports the permutation algebra only inside the
permutation-level functions, so merging orbits never compiles
``permutation``.
"""

from __future__ import annotations

from operator import index

from ._record import Record, setfield

__all__ = [
    "check_pair",
    "check_letter_count",
    "UnionFind",
    "OrbitPartition",
    "orbit_partition",
    "absorbing_product",
    "partition_from_pairs",
]


def check_pair(pair, n):
    """Validate an index pair and return it as a plain tuple.

    A valid pair satisfies ``1 <= i < j <= n``; a letter that is not an
    integer raises :class:`TypeError`.
    """
    i, j = pair
    if not (1 <= i < j <= n):
        raise ValueError(f"index pair must satisfy 1 <= i < j <= {n}, got {(i, j)!r}")
    return (index(i), index(j))


def check_letter_count(n):
    """Validate a letter count and return it as a plain int.

    A count below 1 raises :class:`ValueError`; one that is not an integer
    raises :class:`TypeError`.
    """
    n = index(n)
    if n < 1:
        raise ValueError(f"need at least one letter, got n={n}")
    return n


class UnionFind:
    """Disjoint-set forest over the letters 1..n with path compression."""

    def __init__(self, n):
        self.parent = list(range(n + 1))  # index 0 unused
        self.size = [1] * (n + 1)

    def find(self, a):
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union_pairs(self, pairs):
        """Merge the classes of ``a`` and ``b`` for every pair ``(a, b)``, in one loop."""
        parent, size = self.parent, self.size
        for a, b in pairs:
            # find, inlined: each step halves the path
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]

    def groups(self):
        """All classes as sorted tuples, ordered by smallest member, singletons included.

        The letters are visited in increasing order, so each class is
        filled in order and the classes appear in order of their smallest
        member: nothing needs sorting.
        """
        parent = self.parent
        members = {}
        for a in range(1, len(parent)):
            # find, inlined as in union_pairs
            root = a
            while parent[root] != root:
                parent[root] = root = parent[parent[root]]
            members.setdefault(root, []).append(a)
        # a list, not a generator: tuple() of an iterator of unknown length
        # allocates ten slots and resizes, leaving tuples of other sizes on the
        # interpreter's free lists, which hold their memory
        return tuple([tuple(g) for g in members.values()])


class OrbitPartition(Record):
    """A set of disjoint orbits of {1, ..., n}, each with >= 2 letters.

    An immutable value record; it equals only another partition.  The
    orbits may be given as any iterables of letters, and equal orbits
    collapse into one.  ``n`` and every letter must be integers (anything
    ``operator.index`` accepts, stored as a plain int), else
    :class:`TypeError`.  ``orbits`` holds them in canonical form: a tuple of
    sorted tuples, ordered by smallest letter.  The empty orbit set is the
    class of the identity.  Letters outside every orbit are fixed points.
    """

    __slots__ = ("n", "orbits")

    def __init__(self, n, orbits):
        n = check_letter_count(n)
        orbits = frozenset(frozenset(map(index, o)) for o in orbits)
        seen = set()
        for orbit in orbits:
            if len(orbit) < 2:
                raise ValueError(f"orbit needs at least two letters: {sorted(orbit)}")
            for a in orbit:
                if not 1 <= a <= n:
                    raise ValueError(f"letter out of range 1..{n}: {a}")
                if a in seen:
                    raise ValueError(f"orbits are not disjoint at letter {a}")
                seen.add(a)
        setfield(self, "n", n)
        setfield(self, "orbits", tuple(sorted([tuple(sorted(o)) for o in orbits])))

    def __str__(self):
        if not self.orbits:
            return "{}"
        return "".join("{" + ",".join(map(str, orbit)) + "}" for orbit in self.orbits)

    def sorted_orbits(self):
        """Orbits as sorted tuples, ordered by smallest letter: :attr:`orbits`."""
        return self.orbits

    def fixed_points(self):
        """Letters contained in no orbit."""
        return frozenset(range(1, self.n + 1)).difference(*self.orbits)

    def is_full(self):
        """True iff the partition is the single orbit {1, ..., n}."""
        # a count suffices: the orbits hold distinct integer letters in 1..n
        return len(self.orbits) == 1 and len(self.orbits[0]) == self.n

    def merge(self, other):
        """Combine two partitions, merging every pair of intersecting orbits.

        This is the product of the classes: take the union of the two orbit
        collections and repeatedly fuse orbits that share a letter until all
        are pairwise disjoint.  Each orbit contributes the pairs of a star
        spanning it, and one union-find pass merges them all.
        """
        if self.n != other.n:
            raise ValueError(f"letter counts differ: {self.n} != {other.n}")
        pairs = []
        for first, *rest in self.orbits + other.orbits:
            pairs.extend((first, a) for a in rest)
        return partition_from_pairs(pairs, self.n)


def orbit_partition(sigma):
    """The class of ``sigma``: the partition given by its nontrivial orbits.

    Two permutations land on equal partitions exactly when they have the
    same orbits.
    """
    from .permutation import nontrivial_orbits

    return OrbitPartition(sigma.n, nontrivial_orbits(sigma))


def absorbing_product(pairs, n):
    """Fold index pairs into one permutation by the absorbing product, from the identity.

    Each pair's transposition ``tau`` multiplies the product so far, ``pi``,
    on the right, unless both letters of ``tau`` already lie inside one
    orbit of ``pi``: that factor adds nothing and is absorbed, so ``pi``
    stays as it is.  Otherwise the plain product ``compose(pi, tau)``
    either extends one orbit by a letter or merges two orbits.  The exact
    permutation returned depends on the list order, but its orbit partition
    does not; :func:`partition_from_pairs` computes that partition directly.
    """
    from .permutation import compose, identity, nontrivial_orbits, transposition

    acc = identity(n)
    for pair in pairs:
        tau = transposition(n, pair)
        if not any(tau.moved_letters() <= orbit for orbit in nontrivial_orbits(acc)):
            acc = compose(acc, tau)
    return acc


def partition_from_pairs(pairs, n):
    """The orbit partition generated by a set of index pairs.

    One union-find pass over the validated pairs; the result is independent
    of iteration order and equals ``orbit_partition(absorbing_product(ordering,
    n))`` for every ordering of the set.  The empty set maps to the empty
    partition and nothing else does.
    """
    n = check_letter_count(n)
    return _partition([check_pair(pair, n) for pair in pairs], n)[0]


def _partition(pairs, n):
    """:func:`partition_from_pairs` of pairs already checked against an int ``n`` >= 1.

    One union-find pass; nothing is checked again.  Returns the partition
    and its fixed points, sorted: the singleton classes of the same grouping.
    """
    uf = UnionFind(n)
    uf.union_pairs(pairs)
    groups = uf.groups()
    # the groups are canonical, and disjoint sets of letters in 1..n
    orbits = tuple([g for g in groups if len(g) >= 2])
    return OrbitPartition._trusted(n, orbits), tuple([g[0] for g in groups if len(g) == 1])
