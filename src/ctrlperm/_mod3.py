"""The mod-3 screen of the bracket closure.

:func:`ctrlperm.liealg.lie_closure` runs :func:`certified_basis` once on
each block with fewer generators than its ambient dimension, before any
generator of the block enters the exact span; a certified block never
does, and a declined one is inserted exactly and closed by the exact
worklist.  The argument that a full mod-3 closure proves the exact closure
full is in ``lie_closure``'s docstring.
``liealg`` imports this module, and its ``_AMBIENTS`` table holds each
ambient algebra's test mod 3 next to its exact test.

The screen works in block-local coordinates: the block's letters in
increasing order are 0..b-1, and entry (r, c) of a b-by-b matrix is bit
r*b + c.  An element is a pair of ints ``(plus, minus)``, the bits of its
entries congruent to +1 and to -1 mod 3.  For two such pairs x and y, with
t the bits where both are nonzero, the sum is
``(t ^ (x.plus | y.plus), t ^ (x.minus | y.minus))``.
"""

from __future__ import annotations

from functools import lru_cache


class _Grid:
    """Masks of the b-by-b bit grid: its rows, its columns and its diagonals."""

    __slots__ = ("rows", "cols", "cross", "lines", "diagonals")

    def __init__(self, b):
        first_col = sum(1 << (r * b) for r in range(b))
        self.rows = [((1 << b) - 1) << (r * b) for r in range(b)]
        self.cols = [first_col << c for c in range(b)]
        self.cross = [row | col for row, col in zip(self.rows, self.cols)]
        self.lines = self.rows + self.cols
        # transposing moves entry (r, r + d) by d*(b - 1) bits
        self.diagonals = [
            (sum(1 << (r * b + r + d) for r in range(max(0, -d), min(b, b - d))), d * (b - 1))
            for d in range(1 - b, b)
        ]


# a grid holds about 5b masks of b^2 bits, so only the last few sizes are kept
grid_for = lru_cache(maxsize=16)(_Grid)


def is_skew(plus, minus, grid):
    """X = -X^T mod 3: the -1 entries are the +1 entries transposed.

    The diagonal is then zero, as a +1 entry there would also be a -1 entry.
    """
    transposed = 0
    for mask, shift in grid.diagonals:
        x = plus & mask
        if x:
            transposed |= x << shift if shift >= 0 else x >> -shift
    return transposed == minus


def has_zero_sums(plus, minus, grid):
    """Every row sum and every column sum is 0 mod 3."""
    for line in grid.lines:
        if ((plus & line).bit_count() - (minus & line).bit_count()) % 3:
            return False
    return True


def image(entries, local, b):
    """An integer entry map mod 3 in local coordinates: ``(signed, plus, minus)``.

    ``local`` maps a letter to its local index, and ``signed`` lists the
    entries not divisible by 3 as ``(row, col, sign)``, with sign +1 or -1.
    """
    signed = []
    plus = minus = 0
    for (i, j), x in entries.items():
        x %= 3
        if x:
            r, c = local[i], local[j]
            if x == 1:
                signed.append((r, c, 1))
                plus |= 1 << (r * b + c)
            else:
                signed.append((r, c, -1))
                minus |= 1 << (r * b + c)
    return signed, plus, minus


def bracket_terms(entries, grid, b):
    """Precompute [X, G] mod 3 for a generator G: ``(reach, layers)``.

    ``entries`` lists G's nonzero entries mod 3 as ``(row, col, sign)`` in
    local coordinates.  An entry s at (a, c) adds s times column a of X,
    moved to column c (the XG half), and -s times row c of X, moved to row
    a (the -GX half).  A term is ``(mask, left, right, negate)``: X masked,
    shifted left then right, negated when ``negate``.  Terms within a layer
    write disjoint columns or disjoint rows, so a layer sums by OR, and
    layers sum mod 3.  ``reach`` masks every row and column G reads or
    writes: X with no entry there brackets to zero.
    """
    cross, rows, cols = grid.cross, grid.rows, grid.cols
    reach = 0
    col_layers, row_layers = [], []
    col_depth, row_depth = {}, {}  # target -> the layer of its last term
    for a, c, sign in entries:
        reach |= cross[a] | cross[c]
        if a <= c:
            col_term = (cols[a], c - a, 0, sign < 0)
            row_term = (rows[c], 0, (c - a) * b, sign > 0)
        else:
            col_term = (cols[a], 0, a - c, sign < 0)
            row_term = (rows[c], (a - c) * b, 0, sign > 0)
        # the term goes to the first layer that does not yet write its target
        level = col_depth[c] = col_depth.get(c, -1) + 1
        if level == len(col_layers):
            col_layers.append([col_term])
        else:
            col_layers[level].append(col_term)
        level = row_depth[a] = row_depth.get(a, -1) + 1
        if level == len(row_layers):
            row_layers.append([row_term])
        else:
            row_layers[level].append(row_term)
    return reach, col_layers + row_layers


def bracket(plus, minus, layers):
    """[X, G] mod 3 as a ``(plus, minus)`` pair, G given by its layers."""
    out_p = out_m = 0
    for layer in layers:
        layer_p = layer_m = 0
        for mask, left, right, negate in layer:
            x_p = (plus & mask) << left >> right
            x_m = (minus & mask) << left >> right
            if negate:
                x_p, x_m = x_m, x_p
            layer_p |= x_p
            layer_m |= x_m
        both = (out_p | out_m) & (layer_p | layer_m)
        out_p, out_m = both ^ (out_p | layer_p), both ^ (out_m | layer_m)
    return out_p, out_m


def insert(rows, plus, minus):
    """Add an element to echelon rows mod 3; True iff it is independent of them.

    ``rows`` maps each row's top bit to ``(plus, minus, plus | minus)``,
    with +1 at the top bit.  Elimination clears the element's top bit
    until the top bit starts no row.
    """
    support = plus | minus
    while support:
        top = support.bit_length() - 1
        row = rows.get(top)
        if row is None:
            if plus.bit_length() <= top:  # -1 at the top bit
                plus, minus = minus, plus
            rows[top] = (plus, minus, support)
            return True
        row_p, row_m, row_s = row
        if plus.bit_length() > top:  # +1 at the top bit: subtract the row
            row_p, row_m = row_m, row_p
        both = support & row_s
        plus, minus = both ^ (plus | row_p), both ^ (minus | row_m)
        support = plus | minus
    return False


def certified_basis(generators, letters, ambient):
    """The block's closure as echelon rows by pivot, if the mod-3 closure proves it full; else None.

    ``generators`` are the block's integer entry maps, ``letters`` its
    0-based letters in increasing order, and ``ambient`` its ambient
    algebra's row of ``liealg._AMBIENTS``.  The screen follows the exact
    worklist's bracket order.  Every kept bracket must lie in the ambient
    algebra mod 3, else :class:`RuntimeError`.  When as many elements as the
    ambient dimension are kept, the closure is the ambient algebra, and the
    result is that algebra's reduced echelon basis on ``letters``.  None
    means the screen proves nothing, and the exact worklist decides.
    """
    name, _, ambient_dim, in_ambient, basis = ambient
    b = len(letters)
    dim = ambient_dim(b)
    grid = grid_for(b)
    local = {a: r for r, a in enumerate(letters)}
    rows = {}
    kept = 0
    elements = []
    prepared = []
    for g in generators:
        entries, plus, minus = image(g, local, b)
        elements.append((plus, minus))
        prepared.append(bracket_terms(entries, grid, b))
        kept += insert(rows, plus, minus)
    k = len(generators)
    head = 0
    while kept < dim and head < len(elements):
        plus, minus = elements[head]
        head += 1
        support = plus | minus
        for reach, layers in prepared[head if head <= k else 0 :]:
            if not support & reach:
                continue
            b_p, b_m = bracket(plus, minus, layers)
            if insert(rows, b_p, b_m):
                if not in_ambient(b_p, b_m, grid):
                    raise RuntimeError(
                        f"closure element is not {name}, as its block's generators are"
                    )
                elements.append((b_p, b_m))
                kept += 1
                if kept == dim:
                    break
    return basis(letters) if kept == dim else None
