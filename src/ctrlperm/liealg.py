"""Exact matrix Lie algebra engine.

Everything here is exact: matrix entries are Python ints or Fractions, rank
and membership decisions are made by integer row reduction, and there is no
floating point anywhere.  The one computation modulo a prime, the mod-3
screen of the bracket closure, can only prove that a closure is as large as
it can be, so it never changes an answer.  The module provides the
skew-symmetric rotation generators spanning so(n), the zero-row-sum
coupling generators of the agent-interaction algebra, the Lie bracket, the
structure constants of so(n), and the bracket-closure computation behind
the rank-condition oracle.

Each ambient algebra a closure can fill is one row of ``_AMBIENTS``: its
name, exact test, dimension, test mod 3 and closed-form basis.  Each
standard generator, rotation and coupling, has one unchecked builder; the
public ``rotation_entries`` and ``coupling_entries`` check their pair and
call it, and the oracle in ``systems`` reaches it, with the row of the
algebra it spans, through ``_GENERATORS``.

:class:`ExactMatrix` is the value passed in and out at the public boundary:
generators, probe matrices and closure bases.  All arithmetic works on
*entry maps*: ``{(row, col): value}`` dicts holding only the nonzero
entries, with 0-based indices, because the generators and their brackets
have a handful of nonzeros out of n^2.  There is one bracket,
``_bracket_indexed``, which the closure calls and :func:`bracket` wraps.
:class:`LinearSpan` holds the echelon rows itself, as primitive integer
entry maps keyed by pivot, and the closure inserts its brackets into the
span it returns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import index
from typing import NamedTuple

from . import _mod3
from ._record import Record, setfield
from .monoid import UnionFind, check_pair

__all__ = [
    "ExactMatrix",
    "SignedBasisTerm",
    "LinearSpan",
    "rotation_entries",
    "rotation_generator",
    "bracket",
    "basis_bracket",
    "coupling_entries",
    "coupling_generator",
    "lie_closure",
]


def _as_exact(x):
    """Coerce to an exact number: a plain int, or a Fraction that is not whole."""
    if type(x) is int:
        return x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, str):
        from . import _rationals  # loads with the first string entry

        return _as_exact(_rationals.rational(x, "entry"))
    raise TypeError(f"entries must be exact (int, Fraction, or rational string): {x!r}")


def _checked_entries(n, entries):
    """An n-by-n entry map checked in one pass, and whether its values are plain ints.

    Each index must be an integer in ``range(n)`` and each value exact; the
    new map has plain-int indices, exact values and no zero value.
    """
    checked = {}
    plain = True
    for key, x in entries.items():
        i, j = key
        # a key of two plain ints is kept as it is
        if type(i) is not int or type(j) is not int or type(key) is not tuple:
            try:
                key = i, j = index(i), index(j)
            except TypeError:
                raise TypeError(f"entry {(i, j)!r}: {x!r} needs integer indices") from None
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"entry index {(i, j)} outside a {n}x{n} matrix")
        if type(x) is not int:
            x = _as_exact(x)
            plain = plain and type(x) is int
        if x:
            checked[key] = x
    return checked, plain


def _grid_text(n, entries):
    """The dense grid text of an n-by-n entry map, checked as by :func:`_checked_entries`.

    One row per line, entries space-separated, ``0`` in every cell without
    an entry; a row with no entry is written once and reused.
    """
    rows = {}
    for (i, j), x in _checked_entries(n, entries)[0].items():
        rows.setdefault(i, ["0"] * n)[j] = str(x)
    zero_row = " ".join(["0"] * n)
    return "\n".join([" ".join(rows[i]) if i in rows else zero_row for i in range(n)])


class ExactMatrix(Record):
    """A square matrix with exact rational entries; an immutable value record."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(_as_exact(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and nonempty")
        setfield(self, "rows", rows)

    @property
    def n(self):
        return len(self.rows)

    @classmethod
    def from_entries(cls, n, entries):
        """The n-by-n matrix with the given ``{(row, col): value}`` entries, 0-based."""
        if n < 1:
            raise ValueError("matrix must be square and nonempty")
        rows = [[0] * n for _ in range(n)]
        for (i, j), x in _checked_entries(n, entries)[0].items():
            rows[i][j] = x
        return cls._trusted(tuple(map(tuple, rows)))

    def entries(self):
        """The nonzero entries as a ``{(row, col): value}`` map, 0-based."""
        return {
            (i, j): a for i, row in enumerate(self.rows) for j, a in enumerate(row) if a
        }

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError(f"matrix sizes differ: {self.n} != {other.n}")
        return ExactMatrix(
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
        )

    def format_grid(self):
        """Dense rational grid, one row per line, entries space-separated."""
        return _grid_text(self.n, self.entries())

    def __repr__(self):
        return f"ExactMatrix({[list(r) for r in self.rows]!r})"


# The one builder of each standard generator: its entry map on 0-based a < b, unchecked
def _rotation(a, b):
    return {(a, b): 1, (b, a): -1}


def _coupling(a, b):
    return {(a, a): -1, (a, b): 1, (b, a): 1, (b, b): -1}


def rotation_entries(n, pair):
    """Entry map of :func:`rotation_generator`: ``{(i-1, j-1): 1, (j-1, i-1): -1}``."""
    i, j = check_pair(pair, n)
    return _rotation(i - 1, j - 1)


def rotation_generator(n, pair):
    """The standard skew-symmetric generator of rotations in the (i, j) plane.

    Exactly two nonzero entries: +1 at (i, j) and -1 at (j, i).  The set of
    all such generators for 1 <= i < j <= n is a basis of so(n), which has
    dimension n(n-1)/2.
    """
    return ExactMatrix.from_entries(n, rotation_entries(n, pair))


def bracket(a, b):
    """The Lie bracket ``a @ b - b @ a``, computed on entry maps as the closure does."""
    if a.n != b.n:
        raise ValueError(f"matrix sizes differ: {a.n} != {b.n}")
    return ExactMatrix.from_entries(a.n, _bracket_indexed(a.entries(), *_index(b.entries())))


class SignedBasisTerm(NamedTuple):
    coefficient: int
    pair: tuple


def basis_bracket(p, q, n):
    """Bracket of two rotation generators, expressed over the standard basis.

    Evaluates the shared-index rule symbolically: the bracket of the (i, j)
    and (k, l) generators is the signed sum of the generators named by
    (i, l) when j = k, (j, k) when i = l, (k, i) when j = l and (l, j) when
    i = k, with pairs normalized to i < j by flipping the sign.  Returns a
    tuple of terms; the empty tuple means the bracket vanishes.  For two
    distinct standard pairs at most one index can be shared, so the result
    has at most one term.
    """
    i, j = check_pair(p, n)
    k, l = check_pair(q, n)
    raw = []
    if j == k:
        raw.append((i, l))
    if i == l:
        raw.append((j, k))
    if j == l:
        raw.append((k, i))
    if i == k:
        raw.append((l, j))
    coefficients = {}
    for a, b in raw:
        if a == b:
            continue
        key, sign = ((a, b), 1) if a < b else ((b, a), -1)
        coefficients[key] = coefficients.get(key, 0) + sign
    return tuple(
        SignedBasisTerm(c, pr) for pr, c in sorted(coefficients.items()) if c != 0
    )


def coupling_entries(n, pair):
    """Entry map of :func:`coupling_generator`, 0-based."""
    i, j = check_pair(sorted(pair), n)
    return _coupling(i - 1, j - 1)


def coupling_generator(n, pair):
    """Symmetric zero-row-sum generator coupling coordinates i and j.

    Entries: +1 at (i, j) and (j, i), -1 at (i, i) and (j, j).  The pair is
    normalized, so (i, j) and (j, i) give the same matrix.
    """
    return ExactMatrix.from_entries(n, coupling_entries(n, pair))


def _primitive(vec):
    """Divide an integer entry map by the gcd of its values, pivot made positive.

    The pivot is the entry in the smallest column.  Returns ``vec`` itself
    when it is already primitive, otherwise a new map.
    """
    if not vec:
        return vec
    g = 0
    for x in vec.values():
        g = gcd(g, x)
        if g == 1:
            break
    if vec[min(vec)] < 0:
        g = -g
    if g == 1:
        return vec
    return {k: x // g for k, x in vec.items()}


def _integer_vector(exact_vec):
    """The exact rational entry map times the lcm of its denominators.

    A map whose values are all plain ints is returned as it is; any other
    gives a new map.
    """
    denom = 1
    plain = True
    for x in exact_vec.values():
        if type(x) is not int:
            plain = False
            d = x.denominator
            if d != 1:
                denom = denom * d // gcd(denom, d)
    if plain:
        return exact_vec
    return {k: int(x * denom) for k, x in exact_vec.items()}


def _eliminate(vec, row, col):
    """Clear ``vec[col]`` in place with ``vec := a*vec - c*row``, a > 0.

    Both are integer maps without zero values and ``row[col]`` is positive,
    so ``vec`` changes only by a positive factor and a multiple of ``row``.
    """
    a, c = row[col], vec[col]
    g = gcd(a, c)
    a, c = a // g, c // g
    if a != 1:
        for k in vec:
            vec[k] *= a
    for k, y in row.items():
        x = vec.get(k, 0) - c * y
        if x:
            vec[k] = x
        else:
            del vec[k]


class LinearSpan:
    """Span of a set of n-by-n exact matrices, with exact rank and membership.

    Matrices are given as :class:`ExactMatrix` or as ``{(row, col): value}``
    entry maps (0-based).  The span holds their echelon rows itself, sparse
    and keyed by ``(row, col)``: ``rows`` maps each pivot, a row's smallest
    key, to the row.  The rows are primitive integer vectors in reduced
    echelon form: each pivot is positive and is zero in every other row.
    Scaled to pivot 1 they are the reduced row echelon form, which is unique
    for the subspace, so the rows depend only on the span and not on the
    order of insertion.  Rank and membership are exact integer computations.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n):
        self.n = index(n)
        self.rows = {}  # pivot -> row

    def insert(self, matrix):
        """Add a matrix to the span; True iff the dimension grew."""
        return self._insert(self._vector(matrix))

    def contains(self, matrix):
        """Exact membership test."""
        return not self._reduced(self._vector(matrix))

    @property
    def dim(self):
        return len(self.rows)

    @property
    def pivots(self):
        """The 0-based ``(row, col)`` of each basis matrix's first nonzero entry, in order."""
        return tuple(sorted(self.rows))

    @property
    def basis(self):
        """Basis matrices, the reduced echelon rows in pivot order."""
        rows = self.rows
        return tuple([ExactMatrix.from_entries(self.n, rows[pivot]) for pivot in self.pivots])

    def _grids(self):
        """The grid text of each basis matrix, in pivot order, written from the echelon rows.

        The same texts as ``[m.format_grid() for m in self.basis]``, with no
        :class:`ExactMatrix` built.
        """
        rows, n = self.rows, self.n
        return [_grid_text(n, rows[pivot]) for pivot in sorted(rows)]

    def rank_at(self, point):
        """Rank of the span evaluated at a point: dim of {M @ point}."""
        point = tuple(_as_exact(x) for x in point)
        if len(point) != self.n:
            raise ValueError(f"point length {len(point)} != {self.n}")
        evaluated = LinearSpan(self.n)
        for row in self.rows.values():
            image = {}
            for (i, j), x in row.items():
                image[i] = image.get(i, 0) + x * point[j]
            evaluated._insert(_integer_vector({i: y for i, y in image.items() if y}))
        return evaluated.dim

    def _reduced(self, vec):
        """Eliminate every pivot column from an integer vector, in place.

        Eliminating a row clears its pivot and touches no other pivot
        column, so one pass over the pivots present in ``vec`` suffices.
        """
        rows = self.rows
        for p in [k for k in vec if k in rows]:
            _eliminate(vec, rows[p], p)
        return vec

    def _insert(self, vec):
        """Add an integer vector, consuming it; True iff it enlarged the span."""
        vec = self._reduced(vec)
        if not vec:
            return False
        vec = _primitive(vec)
        pivot = min(vec)
        rows = self.rows
        for p, row in rows.items():
            if pivot in row:
                _eliminate(row, vec, pivot)
                rows[p] = _primitive(row)
        rows[pivot] = vec
        return True

    def _vector(self, matrix):
        """A new integer entry map spanning what ``matrix`` spans, checked against n.

        An entry map is read in one pass, and when every value is a plain
        int the checked map is the vector itself.
        """
        n = self.n
        if isinstance(matrix, ExactMatrix):
            if matrix.n != n:
                raise ValueError(f"matrix size {matrix.n} != span size {n}")
            return _integer_vector(matrix.entries())
        entries, plain = _checked_entries(n, matrix)
        return entries if plain else _integer_vector(entries)


def _index(entries):
    """Row and column index of an entry map.

    ``by_row[i]`` lists the ``(j, value)`` entries of row i and
    ``by_col[j]`` the ``(i, value)`` entries of column j.
    """
    by_row, by_col = {}, {}
    for (i, j), x in entries.items():
        by_row.setdefault(i, []).append((j, x))
        by_col.setdefault(j, []).append((i, x))
    return by_row, by_col


def _bracket_indexed(a, b_rows, b_cols):
    """Entry map of ``a @ b - b @ a``, with b given by :func:`_index`."""
    out = {}
    for (i, k), x in a.items():
        for j, y in b_rows.get(k, ()):
            out[i, j] = out.get((i, j), 0) + x * y
        for r, y in b_cols.get(i, ()):
            out[r, k] = out.get((r, k), 0) - y * x
    return {key: x for key, x in out.items() if x}


def _is_skew(entries):
    return all(entries.get((j, i)) == -x for (i, j), x in entries.items())


def _has_zero_sums(entries):
    """Every row sum and every column sum is zero."""
    row_sums, col_sums = {}, {}
    for (i, j), x in entries.items():
        row_sums[i] = row_sums.get(i, 0) + x
        col_sums[j] = col_sums.get(j, 0) + x
    return not any(row_sums.values()) and not any(col_sums.values())


def _skew_basis(letters):
    """Reduced echelon rows of so(B) by pivot: the rotation generators."""
    return {(a, c): _rotation(a, c) for a, c in combinations(letters, 2)}


def _zero_sum_basis(letters):
    """Reduced echelon rows of the zero-row-and-column-sum B-by-B matrices by pivot."""
    *rest, last = letters
    return {
        (i, j): {(i, j): 1, (i, last): -1, (last, j): -1, (last, last): 1}
        for i in rest
        for j in rest
    }


def _full_basis(letters):
    """Reduced echelon rows of all B-by-B matrices by pivot: the unit matrices."""
    return {(i, j): {(i, j): 1} for i in letters for j in letters}


# The ambient algebras of a block of b letters, tried in this order: the first
# whose exact test every generator of the block passes bounds its closure.  A
# row holds its name, exact test of an entry map, dimension, test mod 3 of a
# ``_mod3`` element, and reduced echelon basis on the block's sorted letters.
_AMBIENTS = (
    ("skew-symmetric", _is_skew, lambda b: b * (b - 1) // 2, _mod3.is_skew, _skew_basis),
    ("zero row and column sums", _has_zero_sums, lambda b: (b - 1) ** 2,
     _mod3.has_zero_sums, _zero_sum_basis),
    ("any matrix", lambda entries: True, lambda b: b * b, lambda *element: True, _full_basis),
)
# standard generator type: (its builder, the row of the algebra it spans on n letters)
_GENERATORS = {"rotation": (_rotation, _AMBIENTS[0]), "coupling": (_coupling, _AMBIENTS[1])}


def _check_support(entries, block):
    """Raise :class:`RuntimeError` unless every entry's row and column lie in ``block``."""
    for i, j in entries:
        if i not in block or j not in block:
            raise RuntimeError(f"closure element has entry {(i, j)} outside its block")


def _blocks(n, generators):
    """The generators grouped into blocks: generators that share a letter share a block.

    Each block is a list in generator order, and the blocks come in the
    order of their first generators.
    """
    letters = UnionFind(n)  # letter a + 1 stands for the 0-based index a
    stars = [{a + 1 for entry in entries for a in entry} for entries in generators]
    letters.union_pairs((min(star), a) for star in stars for a in star)
    blocks = {}
    for entries in generators:
        blocks.setdefault(letters.find(next(iter(entries))[0] + 1), []).append(entries)
    return blocks.values()


def _ambient_of(generators):
    """A block's letters, the row of its ambient algebra and that algebra's dimension.

    The letters are the 0-based ones the generators touch, and the ambient
    algebra is the first row of ``_AMBIENTS`` that holds every generator.
    """
    block = {a for g in generators for entry in g for a in entry}
    ambient = next(a for a in _AMBIENTS if all(a[1](g) for g in generators))
    return block, ambient, ambient[2](len(block))


def _certify(span, generators, block, ambient):
    """Write the ambient algebra's basis into ``span`` if the screen proves it the closure.

    Returns True when it does.
    """
    basis = _mod3.certified_basis(generators, sorted(block), ambient)
    if basis is None:
        return False
    # any rows the span holds on the block span part of the ambient algebra,
    # so their pivots are among its basis's: this replaces exactly those rows
    span.rows.update(basis)
    return True


def _close_block(span, generators, declined):
    """Close one block's generators, already in ``span``, stopping at its ambient algebra.

    Returns the block.  The mod-3 screen runs first, unless it has already
    declined the letters ``declined``.  Every kept bracket must lie in the
    block and the ambient algebra, else :class:`RuntimeError`.
    """
    block, ambient, dim = _ambient_of(generators)
    if len(generators) < dim and block != declined and _certify(span, generators, block, ambient):
        return block
    name, in_ambient = ambient[:2]
    elements = list(generators)
    k = len(elements)
    indexed = [_index(g) for g in generators]
    head = 0
    while len(elements) < dim and head < len(elements):
        x = elements[head]
        head += 1
        for b_rows, b_cols in indexed[head if head <= k else 0 :]:
            b = _bracket_indexed(x, b_rows, b_cols)
            if b and span._insert(dict(b)):
                _check_support(b, block)
                if not in_ambient(b):
                    raise RuntimeError(
                        f"closure element is not {name}, as its block's generators are"
                    )
                elements.append(b)
                if len(elements) == dim:
                    break
    return block


def lie_closure(generators, n=None):
    """Smallest linear span containing the generators and closed under bracket.

    Generators are n-by-n :class:`ExactMatrix` values, or ``{(row, col):
    value}`` entry maps (0-based) when ``n`` is given.

    *Blocks.*  The letters of each nonzero generator's entries are joined
    into one block, and generators that share a letter share a block.
    Matrices supported on disjoint blocks multiply to zero, so brackets
    across blocks vanish and the closure is the direct sum of the blocks'
    closures; each block is closed on its own generators.  A block is the
    set of letters its generators touch, and blocks that share a letter
    raise :class:`RuntimeError`.  A generator that depends on the others
    can join blocks that the others leave apart; the certificate below
    splits such a block again.

    *Worklist.*  Within a block over the generators g_1..g_k, every element
    that enlarged the span is bracketed against each generator, and a
    bracket that enlarges the span joins the worklist, until a fixpoint.  A
    generator g_i is bracketed only against g_(i+1)..g_k; the pairs before
    it were tried from the other side, and [g_i, g_i] = 0.  Bracketing
    against the generators alone is complete: at the fixpoint the span V
    contains the generators and [V, g_i] lies in V for every i, so V holds
    every left-normed bracket [...[[g_a, g_b], g_c], ..., g_z], and these
    span the Lie algebra generated by the g_i (Reutenauer, *Free Lie
    Algebras*, 1993).  The dimension is bounded by n^2, so the worklist
    terminates.

    *Early stop.*  A block B of b letters has an ambient Lie algebra that
    holds its whole closure: so(B), of dimension b(b-1)/2, when every
    generator of the block is skew-symmetric; the B-by-B matrices with zero
    row and column sums, of dimension (b-1)^2, when every generator has
    them (**1** is then a left and right null vector of both factors of a
    bracket); otherwise all B-by-B matrices, of dimension b^2.  Every
    generator and every kept bracket is checked to lie in the ambient
    algebra, and a failed check raises :class:`RuntimeError`.  Kept elements
    are independent, so once a block has kept as many as its ambient
    dimension they span the ambient algebra, which is closed under bracket:
    the block is finished and stops without trying further brackets.  The
    stop is exact, and a wrong block split fails a check rather than
    returning a wrong span.

    *Certificate.*  Each block that needs brackets first runs the same
    worklist mod 3 (``ctrlperm._mod3``), before any of its generators
    enters the exact span: the same bracket order, on b-by-b matrices over
    GF(3) in the block's own coordinates.  Every kept element is checked to
    lie in the ambient algebra mod 3 (X = -X^T for so(B), row and column
    sums 0 for the zero-sum algebra), and a failed check raises the same
    :class:`RuntimeError`.  Reduction mod 3 commutes with the bracket, so
    each kept element is the image of an integer element of the closure.
    Independence mod 3 implies independence over the rationals: a rational
    dependence of primitive integer maps, cleared of denominators and
    divided by its content, reduces to a nonzero dependence mod 3.  The
    generators are checked exactly to lie in the ambient algebra, and that
    algebra is closed under bracket, so the closure lies in it.  Hence, once
    as many elements as the ambient dimension are kept mod 3, the closure
    *is* the ambient algebra, its row of ``_AMBIENTS`` writes its reduced
    echelon basis in closed form, and no generator of the block enters the
    exact span.  That form is unique for the span, so ``basis`` and
    ``pivots`` are those the exact worklist would give.  Each generator is
    made primitive first, so none vanishes mod 3, but the brackets a full
    closure needs may still be dependent mod 3.

    When the mod-3 closure falls short, it proves nothing.  The block's
    generators are then inserted into the exact span in order, which drops
    each one that depends on those before it; the kept ones are split into
    blocks again, and each part runs its own screen, then the exact
    worklist.  A part with the letters of the declined block is not
    screened again: its generators are some of that block's, so they
    generate no more mod 3.  No block is screened twice.  This gives the
    blocks and the certified blocks of an exact insertion of every
    generator before any screen, for two reasons.  Dependences never span
    blocks with disjoint supports, so a block joined only by a dependent
    generator closes to the direct sum of its parts' closures, below its
    ambient dimension.  By the fact above, the screen keeps no more
    elements than that dimension, so such a block is never certified and
    is split again.  A generator that depends on the others can only add to
    what the screen sees, so a block whose own generators the screen
    declines may still be certified with it; the basis is the same either
    way.

    Storage is sparse and exact: elements are entry maps, brackets cost
    time in their nonzeros rather than n^3, and the span keeps primitive
    integer echelon rows, unique for the span, so the basis does not depend
    on the order in which elements were found.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    if n is None:
        if not isinstance(generators[0], ExactMatrix):
            raise ValueError("generators given as entry maps need the matrix size n")
        n = generators[0].n
    span = LinearSpan(n)
    # a generator's primitive integer multiple generates the same algebra,
    # makes every bracket an integer map, and does not vanish mod 3
    vectors = [v for v in (_primitive(span._vector(g)) for g in generators) if v]
    claimed = set()
    for block_generators in _blocks(n, vectors):
        block, ambient, dim = _ambient_of(block_generators)
        screened = len(block_generators) < dim
        if screened and _certify(span, block_generators, block, ambient):
            closed = [block]
        else:
            kept = [g for g in block_generators if span._insert(dict(g))]
            declined = block if screened else None
            closed = [_close_block(span, part, declined) for part in _blocks(n, kept)]
        for block in closed:
            if not claimed.isdisjoint(block):
                raise RuntimeError(f"closure blocks share letters {sorted(claimed & block)}")
            claimed |= block
    return span


def _disjoint_pair_decomposition(matrix):
    """Index pairs of a signed sum of rotation generators on disjoint pairs.

    Accepts an n-by-n matrix equal to a sum of +/- rotation generators whose
    index pairs share no letter; rejects anything else.
    :func:`~ctrlperm.systems.probe_nonstandard` checks each generator with it.
    """
    entries = matrix.entries()
    if not _is_skew(entries):
        raise ValueError("generator is not skew-symmetric")
    pairs = []
    used = set()
    # the upper triangle in row-major order: the fault reported is the first in that order
    for i, j in sorted(key for key in entries if key[0] < key[1]):
        v = entries[i, j]
        if v not in (1, -1):
            raise ValueError(
                f"entry {v} at ({i + 1},{j + 1}): generators must be signed sums "
                "of standard rotation generators"
            )
        if i + 1 in used or j + 1 in used:
            raise ValueError(
                "index pairs of a generator must be pairwise disjoint; "
                f"letter reuse at ({i + 1},{j + 1})"
            )
        used.update((i + 1, j + 1))
        pairs.append((i + 1, j + 1))
    return pairs
