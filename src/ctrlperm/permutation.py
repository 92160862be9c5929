"""Exact permutation algebra on the letters {1, ..., n}.

Letters are 1-based in every public interface.  A permutation is stored by
its image tuple: ``image[k - 1]`` is where letter ``k`` is sent.  All values
are immutable after construction and every operation returns a fresh object,
so the module is safe for concurrent use without locking.

Index pairs are checked by :func:`ctrlperm.monoid.check_pair`, which this
module imports; ``check_pair`` therefore still resolves here.  Nothing on
the orbit route imports this module: it loads with ``probe`` (subgroup
orders) or with the absorbing-product test oracle.
"""

from __future__ import annotations

from math import factorial, prod

from ._record import Record, setfield
from .monoid import UnionFind, check_letter_count, check_pair

__all__ = [
    "Permutation",
    "CycleDecomposition",
    "SubgroupSummary",
    "identity",
    "transposition",
    "compose",
    "cycle_decomposition",
    "nontrivial_orbits",
    "transposition_product",
    "generate_subgroup",
]


class Permutation(Record):
    """A bijection of {1, ..., n}; an immutable value record."""

    __slots__ = ("image",)

    def __init__(self, image):
        image = tuple(image)
        if sorted(image) != list(range(1, len(image) + 1)):
            raise ValueError(f"not a bijection of 1..{len(image)}: {image!r}")
        setfield(self, "image", image)

    @property
    def n(self):
        return len(self.image)

    def __str__(self):
        return format_cycles(self)

    def moved_letters(self):
        """Letters not fixed by the permutation, as a frozenset."""
        return frozenset(k + 1 for k, v in enumerate(self.image) if v != k + 1)

    @classmethod
    def from_cycles(cls, n, cycles):
        """Build a permutation on ``n`` letters from disjoint cycles.

        Each cycle ``(a1, a2, ..., ak)`` sends ``a1 -> a2 -> ... -> ak -> a1``.
        """
        image = list(range(1, n + 1))
        seen = set()
        for cycle in cycles:
            cycle = tuple(cycle)
            for a in cycle:
                if not 1 <= a <= n:
                    raise ValueError(f"letter out of range 1..{n}: {a}")
                if a in seen:
                    raise ValueError(f"cycles are not disjoint at letter {a}")
                seen.add(a)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                image[a - 1] = b
        return cls(image)


class CycleDecomposition(Record):
    """Disjoint cycles of length >= 2 plus the fixed letters.

    An immutable value record.  Canonical form: every cycle is rotated to
    start at its smallest letter and cycles are sorted by that letter, so
    equal permutations always decompose to equal values.
    """

    __slots__ = ("cycles", "fixed_points")

    def __init__(self, cycles: tuple, fixed_points: frozenset) -> None:
        setfield(self, "cycles", cycles)
        setfield(self, "fixed_points", fixed_points)


def identity(n):
    """The identity permutation on ``n`` letters."""
    return Permutation(range(1, check_letter_count(n) + 1))


def transposition(n, pair):
    """The permutation swapping the two letters of ``pair``, fixing the rest."""
    i, j = check_pair(pair, n)
    image = list(range(1, n + 1))
    image[i - 1], image[j - 1] = j, i
    return Permutation(image)


def compose(sigma, eta):
    """The product of ``sigma`` and ``eta``: apply ``eta`` first, then ``sigma``.

    Letter k goes to sigma's image of eta's image of k:
    ``compose(sigma, eta).image[k - 1] == sigma.image[eta.image[k - 1] - 1]``.
    With this convention the product of the transpositions (1 2) and (2 3),
    in that order, is the 3-cycle (1 2 3).
    """
    if sigma.n != eta.n:
        raise ValueError(f"letter counts differ: {sigma.n} != {eta.n}")
    simg = sigma.image
    return Permutation(simg[v - 1] for v in eta.image)


def cycle_decomposition(sigma):
    """Canonical disjoint-cycle form of ``sigma``."""
    seen = [False] * (sigma.n + 1)
    cycles = []
    fixed = []
    for start in range(1, sigma.n + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        k = sigma.image[start - 1]
        while k != start:
            cycle.append(k)
            seen[k] = True
            k = sigma.image[k - 1]
        if len(cycle) == 1:
            fixed.append(start)
        else:
            cycles.append(tuple(cycle))
    return CycleDecomposition(tuple(cycles), frozenset(fixed))


def nontrivial_orbits(sigma):
    """Supports of the cycles of length >= 2, as a frozenset of frozensets."""
    return frozenset(frozenset(c) for c in cycle_decomposition(sigma).cycles)


def transposition_product(pairs, n):
    """Compose an ordered list of index pairs into one permutation.

    The pairs name transpositions and the product is taken in list order
    with the rightmost (last) factor applied first, so
    ``[(1, 2), (2, 3)]`` yields the 3-cycle (1 2 3).  The result depends on
    the list order; order-independent analysis goes through orbit partitions
    (see :mod:`ctrlperm.monoid`).
    """
    acc = identity(n)
    for pair in pairs:
        acc = compose(acc, transposition(n, pair))
    return acc


class SubgroupSummary(Record):
    """Exact order of a subgroup of S_n, and whether it is all of S_n.

    An immutable value record; it equals only another summary, never a tuple.
    """

    __slots__ = ("order", "is_full_symmetric")

    def __init__(self, order: int, is_full_symmetric: bool) -> None:
        setfield(self, "order", order)
        setfield(self, "is_full_symmetric", is_full_symmetric)


class _Level:
    """One level of a stabilizer chain, on 0-based image tuples.

    ``gens`` generate the stabilizer of the earlier levels' base points;
    ``transversal`` maps each point of the orbit of ``base`` under them to a
    pair ``(u, u_inv)`` with ``u[base] == point``; ``checked`` holds the
    (orbit point, generator index) pairs whose Schreier generator needs no
    more sifting.
    """

    __slots__ = ("base", "gens", "transversal", "checked")

    def __init__(self, base, identity_image):
        self.base = base
        self.gens = []
        self.transversal = {base: (identity_image, identity_image)}
        self.checked = set()

    def add_generator(self, g):
        """Append ``g`` and extend the orbit of ``base`` to the new generators."""
        self.gens.append(g)
        transversal, checked = self.transversal, self.checked
        # the old points are closed under the old generators: only g can
        # leave them, while a new point must meet every generator
        todo = [(u, point) for point, (u, _) in transversal.items()]
        gens = [(len(self.gens) - 1, g)]
        while todo:
            fresh = []
            for u, point in todo:
                for index, s in gens:
                    image = s[point]
                    if image not in transversal:
                        v = tuple(map(s.__getitem__, u))
                        # the inverse of v lists the points in the order of their images
                        transversal[image] = (v, tuple(sorted(range(len(v)), key=v.__getitem__)))
                        # this edge defines v, so its Schreier generator is the identity
                        checked.add((point, index))
                        fresh.append((v, image))
            todo, gens = fresh, list(enumerate(self.gens))


def _sift(chain, start, h):
    """Strip ``h`` through ``chain[start:]``: the residue and the level it stopped at.

    The residue is the identity exactly when ``h`` lies in the group that a
    complete ``chain[start:]`` describes; otherwise it fixes the base points
    of every level before the returned index.
    """
    for at in range(start, len(chain)):
        level = chain[at]
        point = h[level.base]
        if point != level.base:
            entry = level.transversal.get(point)
            if entry is None:
                return h, at
            h = tuple(map(entry[1].__getitem__, h))
    return h, len(chain)


def _next_residue(chain, at, identity_image):
    """Sift the unchecked Schreier generators of ``chain[at]`` through the levels below.

    Returns the first residue other than the identity with the level its
    sift stopped at, or ``(None, None)`` once every pair is checked.
    """
    level = chain[at]
    transversal, checked = level.transversal, level.checked
    for point, (u, _) in transversal.items():
        for index, s in enumerate(level.gens):
            if (point, index) in checked:
                continue
            checked.add((point, index))
            # u_inv(s(point)) * s * u fixes the base point
            v_inv = transversal[s[point]][1]
            h, stop = _sift(chain, at + 1, tuple(map(v_inv.__getitem__, map(s.__getitem__, u))))
            if h != identity_image:
                return h, stop
    return None, None


def generate_subgroup(generators, n):
    """Exact order of the subgroup of S_n generated by ``generators``.

    Deterministic Schreier-Sims (Sims 1970; Seress, *Permutation Group
    Algorithms*, 2003, ch. 4): build a stabilizer chain with explicit
    transversals, completing it from the deepest level up, until the Schreier
    generator of every (orbit point, generator) pair of every level sifts to
    the identity through the levels below it.  The order is the product of
    the orbit lengths.  Time and memory are polynomial in n and the number of
    generators; no group element is listed.

    *Orbit bound.*  The group permutes each of its orbits on the letters
    among itself, so it lies in the product of the symmetric groups on its
    orbits, and its order is at most B, the product of |O|! over the orbits
    O.  At every step, the generators of a level fix the earlier levels'
    base points and lie in the group, so they generate a subgroup of the
    true stabilizer of those points; the level's transversal is the orbit of
    its base point under that subgroup, no longer than the orbit under the
    stabilizer itself.  The product of the transversal lengths is therefore
    at most the order, and once it equals B the order is B and the chain
    stops.  A group below the bound, such as A_n, runs the full check.
    """
    n = check_letter_count(n)
    one = tuple(range(n))
    chain = []
    orbits = UnionFind(n)
    for g in generators:
        if g.n != n:
            raise ValueError(f"generator on {g.n} letters, expected {n}")
        image = tuple(v - 1 for v in g.image)
        if image != one:
            if not chain:
                chain.append(_Level(next(x for x in one if image[x] != x), one))
            chain[0].add_generator(image)
            orbits.union_pairs((k, v) for k, v in enumerate(g.image, 1) if k != v)
    bound = prod(factorial(len(orbit)) for orbit in orbits.groups())
    # invariant: each level below ``at`` is complete for the group its
    # generators generate, so sifting through them decides membership
    at = len(chain) - 1
    while at >= 0:
        if prod(len(level.transversal) for level in chain) == bound:
            break
        residue, stop = _next_residue(chain, at, one)
        if residue is None:
            at -= 1
            continue
        if stop == len(chain):
            chain.append(_Level(next(x for x in one if residue[x] != x), one))
        # the residue fixes the base points of chain[:stop], so it joins the
        # generators of every level from the stabilizer of chain[at] to chain[stop]
        for level in chain[at + 1 : stop + 1]:
            level.add_generator(residue)
        at = stop
    order = prod(len(level.transversal) for level in chain)
    return SubgroupSummary(order, order == factorial(n))


def format_cycles(sigma):
    """Render in cycle notation, e.g. ``(1 2 3)(4 5)``; identity is ``()``."""
    cycles = cycle_decomposition(sigma).cycles
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(a) for a in c) + ")" for c in cycles)
