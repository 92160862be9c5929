import random
from fractions import Fraction
from itertools import accumulate, combinations, cycle, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlperm import _mod3, liealg
from ctrlperm.liealg import (
    ExactMatrix,
    LinearSpan,
    SignedBasisTerm,
    _bracket_indexed,
    _index,
    basis_bracket,
    bracket,
    coupling_entries,
    coupling_generator,
    lie_closure,
    rotation_entries,
    rotation_generator,
)
from helpers import (
    Dense,
    circulation,
    coupling,
    dense_bracket,
    reference_closure_basis,
    reference_grid,
    rotation,
    sample_pairs,
    shuffled,
    sorted_pair,
    spanning_tree_pairs,
)


def rot(n, i, j):
    return rotation_generator(n, (i, j))


def times(m, c):
    """The library matrix ``m`` times ``c``."""
    return ExactMatrix.from_entries(m.n, {k: c * x for k, x in m.entries().items()})


def dense_basis(span):
    return tuple(map(Dense.of, span.basis))


# ----------------------------------------------------------- matrices


def test_exact_matrix_entries_and_equality():
    m = ExactMatrix([["1/2", 0], [-1, "2/4"]])
    assert m.rows[0][0] == Fraction(1, 2)
    assert m.rows[1][1] == Fraction(1, 2)
    assert m == ExactMatrix([[Fraction(1, 2), 0], [-1, Fraction(1, 2)]])
    assert hash(m) == hash(ExactMatrix([[Fraction(1, 2), 0], [-1, Fraction(1, 2)]]))
    with pytest.raises(TypeError):
        ExactMatrix([[0.5, 0], [0, 0]])
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2]])
    assert ExactMatrix([["-1/2", 1], [0, "3"]]).format_grid() == "-1/2 1\n0 3"


def test_rational_strings_pass_the_exponent_guard():
    # Fraction("1e5000") computes 10**5000 before anything else, and the cost
    # grows without bound with the exponent: each entry point reads a string
    # through the guard the command line uses
    span = LinearSpan(2)
    for call in (
        lambda: ExactMatrix([["1e5000", 0], [0, 0]]),
        lambda: ExactMatrix.from_entries(2, {(0, 1): "1e5000"}),
        lambda: span.insert({(0, 1): "1e5000", (1, 0): -1}),
        lambda: span.contains({(0, 1): "1e5000"}),
        lambda: lie_closure([{(0, 1): "1e5000", (1, 0): -1}], 2),
        lambda: lie_closure([rot(2, 1, 2)]).rank_at(["1e5000", 1]),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "entry has an exponent beyond 4300: '1e5000'"
    assert span.dim == 0
    with pytest.raises(ValueError, match=r"^entry is not a rational: '1/0'$"):
        ExactMatrix([["1/0"]])
    assert ExactMatrix([["1e-4300", "1E+3"], [0, "2.5"]]).rows == (
        (Fraction(1, 10**4300), 1000), (0, Fraction(5, 2))
    )


def test_format_grid_writes_each_cell_as_the_dense_writer_does():
    rng = random.Random(26)
    values = [0, 0, 0, 1, -1, 7, -12, Fraction(1, 2), Fraction(-3, 4), Fraction(10**20, 3)]
    for n in range(1, 7):
        for _ in range(10):
            m = ExactMatrix([[rng.choice(values) for _ in range(n)] for _ in range(n)])
            assert m.format_grid() == reference_grid(m.rows)
        zero = ExactMatrix.from_entries(n, {})
        assert zero.format_grid() == reference_grid(zero.rows) == "\n".join([" ".join("0" * n)] * n)


def test_span_grids_check_every_row_index():
    # a corrupt echelon row fails the grid writer's entry check, as from_entries does
    for bad in ((0, 3), (-1, 0)):
        span = lie_closure([rot(3, 1, 2), rot(3, 2, 3)])
        row = next(iter(span.rows.values()))
        row[bad] = 1
        with pytest.raises(ValueError, match=r"^entry index .* outside a 3x3 matrix$"):
            span._grids()
        with pytest.raises(ValueError, match=r"^entry index .* outside a 3x3 matrix$"):
            span.basis


def test_integral_entries_are_stored_as_plain_ints():
    # bool entries were kept as they were, and format_grid wrote "True False"
    m = ExactMatrix([[True, False], [False, True]])
    assert [type(x) for row in m.rows for x in row] == [int] * 4
    assert m.format_grid() == "1 0\n0 1"
    assert type(ExactMatrix.from_entries(2, {(0, 1): True}).rows[0][1]) is int


def test_rotation_generator_shape():
    m = rot(3, 1, 2)
    assert m.rows == ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
    assert Dense.of(m) == rotation(3, 1, 2)
    with pytest.raises(ValueError):
        rot(3, 2, 4)


def test_entry_maps_round_trip():
    m = ExactMatrix([["1/2", 0, 0], [0, 0, -3], [0, 0, 0]])
    assert m.entries() == {(0, 0): Fraction(1, 2), (1, 2): -3}
    assert ExactMatrix.from_entries(3, m.entries()) == m
    assert rotation_generator(4, (2, 4)).entries() == rotation_entries(4, (2, 4))
    assert coupling_generator(4, (4, 2)).entries() == coupling_entries(4, (2, 4))
    with pytest.raises(ValueError):
        ExactMatrix.from_entries(3, {(0, 3): 1})
    with pytest.raises(TypeError):
        ExactMatrix.from_entries(3, {(0, 1): 0.5})


def test_rotation_generators_are_distinct_basis():
    n = 5
    everything = {rot(n, i, j) for i, j in combinations(range(1, n + 1), 2)}
    assert len(everything) == n * (n - 1) // 2


# ----------------------------------------------------------- brackets


def test_bracket_shared_index():
    assert bracket(rot(5, 1, 2), rot(5, 2, 3)) == rot(5, 1, 3)


def test_bracket_disjoint_pairs_vanishes():
    assert bracket(rot(5, 1, 2), rot(5, 4, 5)).entries() == {}


def test_bracket_antisymmetry_on_diagonal():
    m = ExactMatrix([[1, 2, 0], [0, -1, 3], [5, 0, 0]])
    assert bracket(m, m).entries() == {}
    with pytest.raises(ValueError, match="matrix sizes differ: 3 != 4"):
        bracket(m, rot(4, 1, 2))


def test_basis_bracket_examples():
    assert basis_bracket((1, 2), (2, 3), 5) == (SignedBasisTerm(1, (1, 3)),)
    assert basis_bracket((1, 2), (4, 5), 5) == ()
    # expected value computed with the dense reference bracket
    assert dense_bracket(rotation(5, 1, 3), rotation(5, 1, 2)) == rotation(5, 2, 3)
    assert basis_bracket((1, 3), (1, 2), 5) == (SignedBasisTerm(1, (2, 3)),)
    assert basis_bracket((1, 2), (1, 2), 5) == ()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_basis_bracket_matches_matrix_bracket(n):
    pairs = list(combinations(range(1, n + 1), 2))
    for p in pairs:
        for q in pairs:
            expected = dense_bracket(rotation(n, *p), rotation(n, *q))
            terms = Dense.zeros(n)
            for coefficient, pair in basis_bracket(p, q, n):
                terms = terms + rotation(n, *pair).scaled(coefficient)
            assert terms == expected
            assert Dense.of(bracket(rotation_generator(n, p), rotation_generator(n, q))) == expected


@settings(max_examples=100)
@given(st.data())
def test_jacobi_identity_exact(data):
    n = data.draw(st.integers(2, 5))
    entries = st.integers(-4, 4)

    def skew():
        upper = data.draw(
            st.lists(entries, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
        )
        rows = [[0] * n for _ in range(n)]
        at = 0
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = upper[at]
                rows[j][i] = -upper[at]
                at += 1
        return ExactMatrix(rows)

    a, b, c = skew(), skew(), skew()
    total = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
    assert total.entries() == {}


# ------------------------------------------------- interaction algebra


def test_coupling_generator_shape_and_normalization():
    m = coupling_generator(3, (1, 2))
    assert m.rows == ((-1, 1, 0), (1, -1, 0), (0, 0, 0))
    assert coupling_generator(5, (4, 2)) == coupling_generator(5, (2, 4))
    assert Dense.of(m) == coupling(3, 1, 2)


def circ(n, i, j, k):
    """The library's circ(i,j,k): the bracket [couple(i,j), couple(j,k)]."""
    return bracket(coupling_generator(n, (i, j)), coupling_generator(n, (j, k)))


def test_circulation_generator_shape():
    b = Dense.of(circ(4, 1, 2, 3))
    assert b.is_skew_symmetric() and b.has_zero_sums()
    assert b == circulation(4, 1, 2, 3)
    with pytest.raises(ValueError):
        circ(4, 1, 1, 2)
    with pytest.raises(ValueError):
        circ(3, 1, 2, 4)


def test_circulation_sign_under_index_swaps():
    b = Dense.of(circ(5, 1, 2, 3))
    assert Dense.of(circ(5, 2, 1, 3)) == b.scaled(-1)
    assert Dense.of(circ(5, 1, 3, 2)) == b.scaled(-1)
    assert Dense.of(circ(5, 2, 3, 1)) == b


@pytest.mark.parametrize("n", [3, 4, 5])
def test_coupling_bracket_identities(n):
    for i, j, k in combinations(range(1, n + 1), 3):
        c_ij, c_jk, c_ik = coupling(n, i, j), coupling(n, j, k), coupling(n, i, k)
        b = circulation(n, i, j, k)
        assert b.is_skew_symmetric() and b.has_zero_sums()
        assert circulation(n, j, i, k) == circulation(n, i, k, j) == b.scaled(-1)
        assert dense_bracket(c_ij, c_jk) == b
        a_ij = coupling_generator(n, (i, j))
        a_jk = coupling_generator(n, (j, k))
        a_ik = coupling_generator(n, (i, k))
        circ = bracket(a_ij, a_jk)
        assert Dense.of(circ) == b
        assert Dense.of(bracket(a_jk, a_ik)) == b
        assert Dense.of(bracket(a_ik, a_ij)) == b
        assert Dense.of(bracket(a_ij, circ)) == (c_jk - c_ik).scaled(2)
        assert Dense.of(bracket(a_jk, circ)) == (c_ik - c_ij).scaled(2)
        assert Dense.of(bracket(a_ik, circ)) == (c_ij - c_jk).scaled(2)


def test_two_coupling_closure_is_four_dimensional():
    span = lie_closure([coupling_generator(3, (1, 2)), coupling_generator(3, (2, 3))])
    assert span.dim == 4
    for m in (
        coupling_generator(3, (1, 2)),
        coupling_generator(3, (2, 3)),
        coupling_generator(3, (1, 3)),
        circulation(3, 1, 2, 3).entries(),
    ):
        assert span.contains(m)


def test_symmetric_antisymmetric_grading():
    rng = random.Random(5)
    n = 5
    couples = [coupling(n, *p) for p in combinations(range(1, n + 1), 2)]
    circs = [circulation(n, 1, j, k) for j, k in combinations(range(2, n + 1), 2)]

    def combo(basis):
        acc = Dense.zeros(n)
        for m in basis:
            acc = acc + m.scaled(int(rng.random() * 7) - 3)
        return ExactMatrix(acc.rows)

    for _ in range(25):
        g1a, g1b = combo(couples), combo(couples)
        g2a, g2b = combo(circs), combo(circs)
        sym_sym = Dense.of(bracket(g1a, g1b))
        assert sym_sym.is_skew_symmetric() and sym_sym.has_zero_sums()
        anti_anti = Dense.of(bracket(g2a, g2b))
        assert anti_anti.is_skew_symmetric() and anti_anti.has_zero_sums()
        mixed = Dense.of(bracket(g1a, g2a))
        assert mixed.is_symmetric() and mixed.has_zero_sums()


# ------------------------------------------------------------- closure


def test_closure_of_rotation_chain_fills_the_algebra():
    span = lie_closure([rot(5, i, i + 1) for i in range(1, 5)])
    assert span.dim == 10


def test_closure_of_split_chain_stalls():
    span = lie_closure([rot(5, 1, 2), rot(5, 2, 3), rot(5, 4, 5)])
    assert span.dim == 4
    assert span.contains(rot(5, 1, 3))
    assert not span.contains(rot(5, 1, 4))


def test_closure_of_paired_rotation_sum():
    g = rot(4, 1, 2) + rot(4, 3, 4)
    span = lie_closure([g, rot(4, 2, 3)])
    assert span.dim == 4
    for m in (
        g,
        (rotation(4, 1, 3) - rotation(4, 2, 4)).entries(),
        rot(4, 1, 4) + rot(4, 2, 3),
        rot(4, 2, 3),
    ):
        assert span.contains(m)


def test_full_coupling_closure_dimension():
    for n in (3, 4, 5):
        gens = [coupling_generator(n, p) for p in combinations(range(1, n + 1), 2)]
        assert lie_closure(gens).dim == (n - 1) ** 2


def test_closure_generator_order_independence():
    gens = [rot(5, 1, 2), rot(5, 2, 3), rot(5, 3, 4), rot(5, 4, 5)]
    spans = [lie_closure(list(p)) for p in permutations(gens)]
    first = spans[0]
    for other in spans[1:]:
        assert other.dim == first.dim
        assert all(first.contains(m) for m in other.basis)
        assert all(other.contains(m) for m in first.basis)


def test_closure_is_bracket_closed():
    for gens in (
        [rot(5, 1, 2), rot(5, 2, 3), rot(5, 4, 5)],
        [coupling_generator(4, (1, 2)), coupling_generator(4, (2, 3))],
        [rot(4, 1, 2) + rot(4, 3, 4), rot(4, 2, 3)],
    ):
        span = lie_closure(gens)
        for x in span.basis:
            for y in span.basis:
                assert span.contains(bracket(x, y))


def _random_generator_sets(seed):
    """Seeded generator sets: (label, generators) for every kind of input."""
    rng = random.Random(seed)
    sets = []
    for n in range(3, 9):
        for kind, builder in (("rotation", rotation_generator), ("coupling", coupling_generator)):
            # the dense reference is slowest on the (n-1)^2-dimensional agent algebra
            for _ in range(3 if kind == "rotation" else 1 + (n < 7)):
                m = 1 + int(rng.random() * min(2 * n, n * (n - 1) // 2))
                sets.append((f"{kind} n={n}", [builder(n, p) for p in sample_pairs(rng, n, m)]))
    for n in range(3, 8):
        # probe style: signed sums of rotations on disjoint pairs
        for _ in range(3):
            gens = []
            for _ in range(1 + int(rng.random() * 3)):
                letters = shuffled(rng, range(1, n + 1))
                acc = {}
                for at in range(0, 2 * (1 + int(rng.random() * (n // 2))) - 1, 2):
                    i, j = sorted(letters[at : at + 2])
                    sign = 1 if rng.random() < 0.5 else -1
                    acc[i - 1, j - 1], acc[j - 1, i - 1] = sign, -sign
                gens.append(ExactMatrix.from_entries(n, acc))
            sets.append((f"probe n={n}", gens))
    for n in range(3, 7):
        # rational coefficients, in a mix of rotations and couplings
        for _ in range(2 if n < 5 else 1):
            gens = []
            for p in sample_pairs(rng, n, 1 + int(rng.random() * n)):
                coefficient = Fraction(1 + int(rng.random() * 5), 1 + int(rng.random() * 6))
                builder = rotation_generator if rng.random() < 0.5 else coupling_generator
                gens.append(times(builder(n, p), coefficient))
            sets.append((f"fraction n={n}", gens))
    for n in range(4, 9):
        # two or three disjoint blocks, sometimes an isolated letter; each block
        # draws its own builder, so blocks of one set can have different ambients
        for blocks in (2, 2, 3, 3) if n >= 6 else (2, 2):
            free = int(n - 2 * blocks >= 1 and rng.random() < 0.5)
            sizes = [2] * blocks
            for _ in range(n - free - 2 * blocks):
                sizes[int(rng.random() * blocks)] += 1
            letters = shuffled(rng, range(1, n + 1))
            gens = []
            for at, size in zip(accumulate(sizes, initial=0), sizes):
                block = letters[at : at + size]
                builder = rotation_generator if rng.random() < 0.5 else coupling_generator
                gens += [builder(n, p) for p in spanning_tree_pairs(rng, block)]
                if size >= 3 and rng.random() < 0.5:
                    gens.append(builder(n, sorted_pair(*rng.sample(block, 2))))
            sets.append((f"{blocks} blocks n={n}", shuffled(rng, gens)))
    for n in range(2, 9):
        # complete graphs: the generators alone span the ambient algebra
        pairs = list(combinations(range(1, n + 1), 2))
        sets.append((f"complete rotation n={n}", [rotation_generator(n, p) for p in pairs]))
        if n <= 6:
            sets.append((f"complete coupling n={n}", [coupling_generator(n, p) for p in pairs]))
    return sets


def test_closure_basis_matches_reference_engine():
    # exact basis equality, not only the dimension: the echelon rows are unique
    # for the span, and --dump-basis prints them
    for label, gens in _random_generator_sets(20261017):
        span = lie_closure(gens)
        assert dense_basis(span) == reference_closure_basis(gens), label
        assert span.dim == len(span.basis)


def test_sparse_bracket_matches_dense_bracket():
    for label, gens in _random_generator_sets(7):
        for a in gens:
            for b in gens:
                expected = dense_bracket(Dense.of(a), Dense.of(b))
                got = _bracket_indexed(a.entries(), *_index(b.entries()))
                assert got == expected.entries(), label
                assert Dense.of(bracket(a, b)) == expected, label


def test_span_accepts_entry_maps():
    span = lie_closure([rot(4, 1, 2), rot(4, 2, 3)])
    assert span.contains(rotation_entries(4, (1, 3)))
    assert span.contains({(0, 2): "1/2", (2, 0): Fraction(-1, 2), (1, 1): 0})
    assert not span.contains(rotation_entries(4, (1, 4)))
    # membership reduces a copy, never the caller's map
    probe = rotation_entries(4, (1, 3))
    assert span.contains(probe) and probe == rotation_entries(4, (1, 3))
    with pytest.raises(TypeError):
        span.contains({(0, 2): 0.5})
    with pytest.raises(ValueError):
        span.contains({(0, 4): 1})
    other = LinearSpan(4)
    assert other.insert({(0, 1): Fraction(2, 3), (1, 0): Fraction(-2, 3)})
    assert not other.insert(rot(4, 1, 2))
    assert other.basis == (rot(4, 1, 2),)


@pytest.mark.parametrize("bad", [0.5, "0", None, Fraction(1, 1)], ids=repr)
def test_entry_indices_must_be_integers(bad):
    # a float index once became a pivot, and the error came later from basis
    entry = {(bad, 1): 1}
    for call in (
        lambda: LinearSpan(3).insert(entry),
        lambda: LinearSpan(3).contains(entry),
        lambda: lie_closure([{(bad, 1): 1, (1, bad): -1}], 3),
        lambda: ExactMatrix.from_entries(3, entry),
        lambda: ExactMatrix.from_entries(3, {(1, bad): 1}),
    ):
        with pytest.raises(TypeError, match=r"entry \(.*\): -?1 needs integer indices"):
            call()
    # one check reads an entry map on both routes, so both give the same messages
    for entries, error, message in (
        ({(bad, 1): 1}, TypeError, f"entry {(bad, 1)!r}: 1 needs integer indices"),
        ({(3, 1): 1}, ValueError, "entry index (3, 1) outside a 3x3 matrix"),
        ({(0, -1): 1}, ValueError, "entry index (0, -1) outside a 3x3 matrix"),
        ({(0, 1): 0.5}, TypeError,
         "entries must be exact (int, Fraction, or rational string): 0.5"),
    ):
        for call in (
            lambda: LinearSpan(3).insert(entries),
            lambda: LinearSpan(3).contains(entries),
            lambda: ExactMatrix.from_entries(3, entries),
            lambda: liealg._grid_text(3, entries),
        ):
            with pytest.raises(error) as exc:
                call()
            assert str(exc.value) == message


def test_integral_entry_indices_are_stored_as_ints():
    span = LinearSpan(3)
    assert span.insert({(True, 1): 1, (2, True): 0})
    assert span.pivots == ((1, 1),) and all(type(i) is int for i in span.pivots[0])
    assert span.contains({(1, True): 2})
    assert span.basis == (ExactMatrix.from_entries(3, {(1, 1): 1}),)
    assert ExactMatrix.from_entries(3, {(False, True): 1}) == ExactMatrix.from_entries(
        3, {(0, 1): 1}
    )
    closure = lie_closure([{(0, True): 1, (True, 0): -1}], 3)
    assert closure.pivots == ((0, 1),)


def _decline_screen(monkeypatch):
    """Make the mod-3 screen decline, so every block runs the exact worklist."""
    monkeypatch.setattr(_mod3, "certified_basis", lambda *args: None)


def test_closure_stops_each_block_at_its_ambient_algebra(monkeypatch):
    _decline_screen(monkeypatch)
    tried = []
    real = liealg._bracket_indexed

    def counting(a, b_rows, b_cols):
        tried.append(a)
        return real(a, b_rows, b_cols)

    monkeypatch.setattr(liealg, "_bracket_indexed", counting)

    def dim_and_brackets(gens):
        tried.clear()
        return lie_closure(gens).dim, len(tried)

    # one worklist over all generators, without a stop, tries 378, 255, 30,
    # 50 and 30 brackets on these sets
    complete = list(combinations(range(1, 9), 2))
    assert dim_and_brackets([rotation_generator(8, p) for p in complete]) == (28, 0)
    complete = list(combinations(range(1, 7), 2))
    assert dim_and_brackets([coupling_generator(6, p) for p in complete]) == (25, 40)
    two_paths = [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
    assert dim_and_brackets([rotation_generator(7, p) for p in two_paths]) == (3 + 6, 7)
    assert dim_and_brackets([coupling_generator(7, p) for p in two_paths]) == (4 + 9, 14)
    assert dim_and_brackets([rot(5, i, i + 1) for i in range(1, 5)]) == (10, 22)


def test_closure_dimension_check_is_a_raised_error(monkeypatch):
    # a skew generator set closing beyond so(n) is an engine fault; the check
    # must survive python -O, so it cannot be an assert
    _decline_screen(monkeypatch)
    diagonal = cycle(range(3))

    def broken_bracket(a, b_rows, b_cols):
        i = next(diagonal)
        return {(i, i): 1}

    monkeypatch.setattr(liealg, "_bracket_indexed", broken_bracket)
    with pytest.raises(RuntimeError, match="skew-symmetric"):
        lie_closure([rot(3, 1, 2), rot(3, 2, 3)])


def test_closure_fault_outside_the_zero_sum_algebra_is_a_raised_error(monkeypatch):
    # a bound alone would not see this: the broken closure stays below (3-1)^2
    _decline_screen(monkeypatch)

    def broken_bracket(a, b_rows, b_cols):
        return {(0, 0): 1}

    monkeypatch.setattr(liealg, "_bracket_indexed", broken_bracket)
    with pytest.raises(RuntimeError, match="zero row and column sums"):
        lie_closure([coupling_generator(3, (1, 2)), coupling_generator(3, (2, 3))])


def test_closure_fault_outside_the_block_is_a_raised_error(monkeypatch):
    # the stray entry is skew, and the block {1, 2, 3} reaches dim so(3) = 3
    # with it, so only the support check stops a wrong span from returning
    _decline_screen(monkeypatch)
    real = liealg._bracket_indexed

    def broken_bracket(a, b_rows, b_cols):
        return {**real(a, b_rows, b_cols), (0, 3): 1, (3, 0): -1}

    monkeypatch.setattr(liealg, "_bracket_indexed", broken_bracket)
    with pytest.raises(RuntimeError, match="outside its block"):
        lie_closure([rot(5, 1, 2), rot(5, 2, 3), rot(5, 4, 5)])


def test_closure_fault_in_the_block_split_is_a_raised_error(monkeypatch):
    # a union-find that joins nothing splits {1, 2, 3} into two blocks that
    # share letter 2, and closing them apart would miss [g_1, g_2]
    class Unjoined(liealg.UnionFind):
        def union_pairs(self, pairs):
            pass

    monkeypatch.setattr(liealg, "UnionFind", Unjoined)
    with pytest.raises(RuntimeError, match=r"closure blocks share letters \[1\]"):
        lie_closure([rot(3, 1, 2), rot(3, 2, 3)])


def _signed_sum(n, rng):
    """Probe style: a signed sum of rotation generators on 1..n/2 disjoint pairs."""
    letters = list(range(n))
    rng.shuffle(letters)
    entries = {}
    for at in range(0, 2 * rng.randint(1, n // 2), 2):
        i, j = sorted(letters[at : at + 2])
        sign = rng.choice((1, -1))
        entries[i, j], entries[j, i] = sign, -sign
    return entries


def _screen_sets(seed):
    """Seeded sets up to n=10: (label, generators, a scaled copy of the set before it)."""
    rng = random.Random(seed)
    sets = []
    for n in range(3, 11):
        for kind, builder in (("rotation", rotation_generator), ("coupling", coupling_generator)):
            tree = [builder(n, p) for p in spanning_tree_pairs(rng, range(1, n + 1))]
            sets.append((f"{kind} tree n={n}", tree, False))
            sets.append((f"{kind} tree times 3 n={n}", [times(g, 3) for g in tree], True))
        for _ in range(2):
            gens = [_signed_sum(n, rng) for _ in range(3)]
            sets.append((f"signed sums n={n}", [ExactMatrix.from_entries(n, g) for g in gens], False))
            scale = rng.choice((3, -6, Fraction(3, 2)))
            sets.append(
                (f"signed sums times {scale} n={n}",
                 [times(ExactMatrix.from_entries(n, g), scale) for g in gens], True)
            )
    for label, gens in _random_generator_sets(seed):
        if label.startswith(("complete", "fraction", "2 blocks", "3 blocks")):
            sets.append((label, gens, False))
    return sets


def test_screen_and_exact_worklist_give_one_basis(monkeypatch):
    real = _mod3.certified_basis
    verdicts = []

    def recording(*args):
        basis = real(*args)
        verdicts.append(basis is not None)
        return basis

    certified = 0
    for label, gens, scaled in _screen_sets(20261018):
        verdicts.clear()
        monkeypatch.setattr(_mod3, "certified_basis", recording)
        screened = lie_closure(gens)
        _decline_screen(monkeypatch)
        exact = lie_closure(gens)
        assert screened.pivots == exact.pivots and screened.basis == exact.basis, label
        if scaled:
            # each generator is made primitive first, so a factor of 3 hides
            # nothing from the screen: the twin's verdicts and basis
            assert (verdicts, screened.basis) == twin, label
        elif gens[0].n <= 8 or "coupling" not in label:
            # the dense reference takes about 2 s on a coupling tree at n=10
            assert dense_basis(screened) == reference_closure_basis(gens), label
        twin = (list(verdicts), screened.basis)
        certified += sum(verdicts)
    # every tree and the full blocks of the signed-sum, fraction and block
    # sets that have fewer generators than their ambient dimension, each
    # scaled set as often as its twin
    assert certified == 63


def _recording_screen(monkeypatch):
    """Record each screen call's block letters, and whether it certified."""
    real = _mod3.certified_basis
    calls = []

    def recording(generators, letters, ambient):
        basis = real(generators, letters, ambient)
        calls.append((tuple(letters), basis is not None))
        return basis

    monkeypatch.setattr(_mod3, "certified_basis", recording)
    return calls


def _counting_inserts(monkeypatch):
    """Count every exact insertion into any span."""
    inserted = []
    real = LinearSpan._insert

    def counting(self, vec):
        inserted.append(dict(vec))
        return real(self, vec)

    monkeypatch.setattr(LinearSpan, "_insert", counting)
    return inserted


@pytest.mark.parametrize(
    ("entries", "n", "dim"),
    [(rotation_entries, 12, 66), (coupling_entries, 8, 49)],
    ids=["so_n path", "coupling path"],
)
def test_certified_blocks_make_no_exact_insertion(monkeypatch, entries, n, dim):
    calls = _recording_screen(monkeypatch)
    inserted = _counting_inserts(monkeypatch)
    path = [entries(n, (i, i + 1)) for i in range(1, n)]
    span = lie_closure(path, n)
    assert (calls, inserted, span.dim) == ([(tuple(range(n)), True)], [], dim)
    monkeypatch.undo()
    _decline_screen(monkeypatch)
    assert span.basis == lie_closure(path, n).basis


def test_dependent_generator_on_two_blocks_keeps_the_blocks(monkeypatch):
    # g = rot(1,2) + rot(5,6) joins the letters of two paths, but it is the sum
    # of two other generators: in either place it makes one block on all eight
    # letters, which closes to the two paths' so(4)s, below so(8), so the
    # screen declines it once and the exact worklist closes it
    n = 8
    paths = [rotation_entries(n, (i, i + 1)) for i in (1, 2, 3, 5, 6, 7)]
    bridge = {**paths[0], **paths[3]}
    for gens, screened, dim in (
        (paths + [bridge], [((0, 1, 2, 3, 4, 5, 6, 7), False)], 12),
        ([bridge] + paths, [((0, 1, 2, 3, 4, 5, 6, 7), False)], 12),
    ):
        calls = _recording_screen(monkeypatch)
        span = lie_closure(gens, n)
        assert calls == screened
        assert span.dim == dim
        monkeypatch.undo()
        matrices = [ExactMatrix.from_entries(n, g) for g in gens]
        assert dense_basis(span) == reference_closure_basis(matrices)
    # a generator equal to another times 3 is made primitive, so it repeats
    # that one; its block is still screened once, and certified
    calls = _recording_screen(monkeypatch)
    span = lie_closure(paths[:3] + [{k: 3 * x for k, x in paths[1].items()}], n)
    assert calls == [((0, 1, 2, 3), True)] and span.dim == 6


def test_no_block_is_screened_twice(monkeypatch):
    calls = _recording_screen(monkeypatch)
    sets = [(label, gens) for label, gens, _ in _screen_sets(20261019)]
    for label, gens in sets + _random_generator_sets(20261019):
        calls.clear()
        lie_closure(gens)
        letters = [block for block, _ in calls]
        assert len(letters) == len(set(letters)), label


def test_dense_probe_set_closes_without_exact_brackets(monkeypatch):
    # this set cost the exact worklist alone over a minute: 666 brackets,
    # each kept one back-substituted into hundreds of dense rows
    tried = []
    real = liealg._bracket_indexed
    monkeypatch.setattr(
        liealg, "_bracket_indexed", lambda *args: tried.append(1) or real(*args)
    )
    rng = random.Random(100 * 3 + 32)
    span = lie_closure([_signed_sum(32, rng) for _ in range(3)], 32)
    assert (span.dim, len(tried)) == (496, 0)
    assert span.basis == tuple(rotation_generator(32, p) for p in combinations(range(1, 33), 2))


def test_screen_stops_each_block_at_its_ambient_algebra(monkeypatch):
    tried = []
    real = _mod3.bracket

    def counting(plus, minus, layers):
        tried.append(plus)
        return real(plus, minus, layers)

    monkeypatch.setattr(_mod3, "bracket", counting)

    def dim_and_brackets(gens):
        tried.clear()
        return lie_closure(gens).dim, len(tried)

    # the exact worklist tries 0, 40, 7, 14 and 22 brackets on these sets;
    # the screen skips brackets that must vanish
    complete = list(combinations(range(1, 9), 2))
    assert dim_and_brackets([rotation_generator(8, p) for p in complete]) == (28, 0)
    complete = list(combinations(range(1, 7), 2))
    assert dim_and_brackets([coupling_generator(6, p) for p in complete]) == (25, 22)
    two_paths = [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
    assert dim_and_brackets([rotation_generator(7, p) for p in two_paths]) == (3 + 6, 6)
    assert dim_and_brackets([coupling_generator(7, p) for p in two_paths]) == (4 + 9, 13)
    assert dim_and_brackets([rot(5, i, i + 1) for i in range(1, 5)]) == (10, 16)


def test_screen_fault_outside_so_n_is_a_raised_error(monkeypatch):
    # the screen checks what it keeps just as the exact worklist does, with
    # the same message; local entry (i, i) of a 3-letter block is bit 4i
    diagonal = cycle(range(3))

    def broken_bracket(plus, minus, layers):
        return 1 << 4 * next(diagonal), 0

    monkeypatch.setattr(_mod3, "bracket", broken_bracket)
    with pytest.raises(RuntimeError, match="skew-symmetric"):
        lie_closure([rot(3, 1, 2), rot(3, 2, 3)])


def test_screen_fault_outside_the_zero_sum_algebra_is_a_raised_error(monkeypatch):
    def broken_bracket(plus, minus, layers):
        return 1, 0  # +1 at local (0, 0)

    monkeypatch.setattr(_mod3, "bracket", broken_bracket)
    with pytest.raises(RuntimeError, match="zero row and column sums"):
        lie_closure([coupling_generator(3, (1, 2)), coupling_generator(3, (2, 3))])


def test_bracket_mod3_matches_exact_bracket():
    rng = random.Random(3)
    for _ in range(300):
        b = rng.randint(1, 7)
        letters = sorted(rng.sample(range(9), b))
        local = {a: r for r, a in enumerate(letters)}
        grid = _mod3.grid_for(b)

        def draw(density):
            return {
                (i, j): rng.randint(-4, 4) for i in letters for j in letters
                if rng.random() < density
            }

        x, g = draw(rng.random()), draw(rng.random() / 2)
        signed, _, _ = _mod3.image(g, local, b)
        reach, layers = _mod3.bracket_terms(signed, grid, b)
        _, x_plus, x_minus = _mod3.image(x, local, b)
        expected = _mod3.image(_bracket_indexed(x, *_index(g)), local, b)[1:]
        assert _mod3.bracket(x_plus, x_minus, layers) == expected
        if not (x_plus | x_minus) & reach:
            assert expected == (0, 0)
        # the ambient tests mod 3 agree with the exact tests on entries reduced to -1, 0, 1
        reduced = {k: (v + 1) % 3 - 1 for k, v in x.items() if v % 3}
        assert _mod3.is_skew(x_plus, x_minus, grid) == liealg._is_skew(reduced)
        assert _mod3.has_zero_sums(x_plus, x_minus, grid) == all(
            sum(reduced.get((i, j), 0) for j in letters) % 3 == 0
            and sum(reduced.get((j, i), 0) for j in letters) % 3 == 0
            for i in letters
        )


@pytest.mark.parametrize("ambient", liealg._AMBIENTS, ids=lambda row: row[0])
def test_each_ambient_row_writes_its_algebra_in_reduced_echelon_form(ambient):
    name, holds, dim, holds_mod3, basis_of = ambient
    for b in range(1, 7):
        letters = [1, 4, 5, 9, 14, 20][:b]
        local = {a: r for r, a in enumerate(letters)}
        grid = _mod3.grid_for(b)
        basis = basis_of(letters)
        assert len(basis) == dim(b), b
        for pivot, row in basis.items():
            assert pivot == min(row) and row[pivot] > 0, (b, pivot)
            assert {a for entry in row for a in entry} <= set(letters), (b, pivot)
            assert holds(row), (b, pivot)
            _, plus, minus = _mod3.image(row, local, b)
            assert holds_mod3(plus, minus, grid), (b, pivot)
            # the screen's span.rows.update(basis) relies on reduced rows
            assert not any(other in row for other in basis if other != pivot), (b, pivot)


@pytest.mark.parametrize("kind", sorted(liealg._GENERATORS))
def test_each_standard_generator_lies_in_its_ambient_row(kind):
    build, ambient = liealg._GENERATORS[kind]
    _, holds, _, holds_mod3, _ = ambient
    for b in range(2, 7):
        letters = [1, 4, 5, 9, 14, 20][:b]
        local = {a: r for r, a in enumerate(letters)}
        grid = _mod3.grid_for(b)
        for a, c in combinations(letters, 2):
            entries = build(a, c)
            assert holds(entries), (b, a, c)
            _, plus, minus = _mod3.image(entries, local, b)
            assert holds_mod3(plus, minus, grid), (b, a, c)
            # the row the closure picks for these generators, whose dimension
            # the oracle compares the closure against
            assert next(row for row in liealg._AMBIENTS if row[1](entries)) is ambient, (b, a, c)


def test_closure_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        lie_closure([])
    with pytest.raises(ValueError):
        lie_closure([rot(3, 1, 2), rot(4, 1, 2)])
    with pytest.raises(ValueError):
        lie_closure([rotation_entries(3, (1, 2))])  # entry maps carry no size
    with pytest.raises(ValueError):
        lie_closure([rotation_entries(4, (1, 4))], 3)


def test_closure_of_no_generators_is_the_zero_span():
    span = lie_closure([], 3)
    assert (span.n, span.dim, span.pivots) == (3, 0, ())
    assert not span.contains(rotation_entries(3, (1, 2)))


def test_closure_of_entry_maps_equals_closure_of_matrices():
    for label, gens in _random_generator_sets(11):
        n = gens[0].n
        assert lie_closure([g.entries() for g in gens], n).basis == lie_closure(gens).basis, label


# ----------------------------------------------------------- spans


def test_span_membership():
    span = lie_closure([rot(4, 1, 2), rot(4, 2, 3)])
    assert span.contains(rot(4, 1, 3))
    assert not span.contains(rot(4, 1, 4))
    with pytest.raises(ValueError):
        span.contains(rot(5, 1, 2))


def test_span_size_must_be_an_integer():
    # LinearSpan(2.5) was accepted, and its insert returned True
    for bad in (2.5, "3", None):
        with pytest.raises(TypeError):
            LinearSpan(bad)
    assert type(LinearSpan(True).n) is int


def test_span_basis_is_reduced_and_spans():
    span = lie_closure([rot(4, 1, 2), rot(4, 2, 3)])
    assert len(span.basis) == span.dim == 3
    # a pivot is the first nonzero entry of its basis matrix
    assert span.pivots == tuple(min(m.entries()) for m in span.basis) == ((0, 1), (0, 2), (1, 2))
    rebuilt = LinearSpan(4)
    for m in span.basis:
        assert rebuilt.insert(m)
    assert rebuilt.dim == span.dim


def test_rank_at_points():
    full = lie_closure([rot(4, i, i + 1) for i in range(1, 4)])
    assert full.dim == 6
    assert full.rank_at([1, 2, 3, 4]) == 3  # tangent to the sphere
    assert full.rank_at([1, 0, 0, 0]) == 3
    assert full.rank_at([0, 0, 0, 0]) == 0
    single = lie_closure([coupling_generator(3, (1, 2))])
    assert single.rank_at([Fraction(1, 2), Fraction(1, 2), 0]) == 0
    assert single.rank_at([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]) == 1
    with pytest.raises(ValueError):
        full.rank_at([1, 2, 3])


@pytest.mark.parametrize(
    "rows, skew, symmetric, zero_sums",
    [
        ([[1, 0], [0, 0]], False, True, False),  # a nonzero diagonal entry
        ([[0, 1], [-1, 1]], False, False, False),
        ([[0, 1], [1, 0]], False, True, False),
        ([[1, -1], [1, -1]], False, False, False),  # zero row sums, nonzero column sums
        ([[1, 1], [-1, -1]], False, False, False),  # the transpose of the row above
        ([[0, 0], [0, 0]], True, True, True),
        ([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]], True, False, False),
        ([[Fraction(-1, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(-1, 3)]], False, True, True),
        ([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], True, False, True),
        ([[0, Fraction(1, 2), 0], [Fraction(-1, 2), 0, 0], [0, 0, 0]], True, False, False),
    ],
)
def test_shape_tests_on_edge_cases(rows, skew, symmetric, zero_sums):
    # the exact tests of the first two _AMBIENTS rows, on the entries and on
    # the entries of the transpose, against the dense reference's predicates
    m = ExactMatrix(rows)
    entries = m.entries()
    transposed = {(j, i): x for (i, j), x in entries.items()}
    for e in (entries, transposed):
        assert liealg._is_skew(e) is skew
        assert liealg._has_zero_sums(e) is zero_sums
    d = Dense(rows)
    assert (d.is_skew_symmetric(), d.is_symmetric(), d.has_zero_sums()) == (skew, symmetric, zero_sums)
