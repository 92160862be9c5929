"""System-level controllability analyzers.

A :class:`SystemSpec` describes a bilinear control system by its family, its
letter count, and the index pairs of its control (and optional drift)
fields.  :func:`analyze` decides controllability purely on the permutation
side, by merging the control pairs into an orbit partition: the system is
controllable exactly when everything merges into one orbit, and otherwise
the orbits describe the controllable submanifold componentwise.
:func:`oracle_check` independently settles the same question by exact
Lie-bracket closure and rank, and reports whether the two methods agree.

Families, each one row of the private table ``_FAMILIES`` that holds every
fact the analyzers know about it.  A row names the family's standard
generator type, ``rotation`` or ``coupling``: the oracle finds that
generator's one builder and the dimension of the algebra it spans in
``liealg``, and the report finds the orbit labels and closed-form orbit
dimension here.

* ``so_n`` - rotations of R^n; rotation generators.
* ``sphere`` - the induced action on the sphere in R^n; same generators.
* ``multi_agent`` - N interacting agents with symmetric couplings; coupling
  generators.
* ``markov`` - symmetric continuous-time Markov chains with tunable rates;
  a single-agent instance of the multi-agent family on the probability
  simplex, with conserved probability mass per orbit; coupling generators.
"""

from __future__ import annotations

import itertools
import sys
from math import comb
from operator import index

from ._record import Record, setfield
# partition_from_pairs stays a name here because perfbench/tracing.py wraps it
from .monoid import OrbitPartition, UnionFind, _partition, check_pair, partition_from_pairs

__all__ = [
    "FAMILIES",
    "SystemSpec",
    "OracleResult",
    "SubmanifoldComponent",
    "SubmanifoldDescription",
    "ControllabilityReport",
    "NonstandardProbeResult",
    "OracleSizeError",
    "analyze",
    "oracle_check",
    "check_oracle_size",
    "min_controls_check",
    "probe_nonstandard",
]

# Size guards for the bracket-closure oracle.  At the guards the dearest
# standard case is a sparse connected control graph: over five draws of a
# path plus random edges (2n pairs), oracle_check costs at most about
# 0.9 ms for so_n (n=12) and 1.5 ms for multi_agent (n=8); a complete graph
# costs 0.7 and 0.6 ms (best of 7, CPython 3.11.7, shared 2-core x86_64
# host).
ORACLE_MAX_ROTATION = 12
ORACLE_MAX_AGENTS = 8


class OracleSizeError(ValueError):
    """The instance is too large for the closure oracle's size guard."""


class SystemSpec(Record):
    """Description of one bilinear system instance.

    An immutable value record.  ``controls`` is stored as a frozenset of
    validated ``(i, j)`` tuples, ``drift`` as a validated tuple and a markov
    ``initial_distribution`` as a tuple of :class:`~fractions.Fraction`.
    """

    __slots__ = ("family", "n", "controls", "drift", "agent_space_dim", "initial_distribution")

    def __init__(
        self,
        family: str,
        n: int,
        controls: frozenset,
        drift: tuple | None = None,
        agent_space_dim: int | None = None,
        initial_distribution: tuple | None = None,
    ) -> None:
        # a tuple, so an unhashable family is refused here too
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
        optional, pairless = _FAMILIES[family][3:]
        n = index(n)
        if n < 2:
            raise ValueError(f"need at least two letters, got n={n}")
        if n > sys.maxsize - 1:
            # the orbit merge keeps one list slot per letter, and one more
            raise ValueError(
                f"n is larger than {sys.maxsize - 1}, the most letters a list can hold"
            )
        controls = frozenset(check_pair(p, n) for p in controls)
        if drift is not None:
            drift = check_pair(drift, n)
        if not controls and drift is None and not pairless:
            raise ValueError("controls may be empty only when a drift pair is present")
        if agent_space_dim is not None:
            if optional != "agent_space_dim":
                raise ValueError("agent_space_dim applies to the multi_agent family only")
            agent_space_dim = index(agent_space_dim)
            if agent_space_dim < 1:
                raise ValueError(f"agent_space_dim must be positive: {agent_space_dim}")
        if initial_distribution is not None:
            if optional != "initial_distribution":
                raise ValueError("initial_distribution applies to the markov family only")
            from . import _rationals

            initial_distribution = _rationals.distribution(initial_distribution, n)
        setfield(self, "family", family)
        setfield(self, "n", n)
        setfield(self, "controls", controls)
        setfield(self, "drift", drift)
        setfield(self, "agent_space_dim", agent_space_dim)
        setfield(self, "initial_distribution", initial_distribution)

    @property
    def all_pairs(self):
        """Control pairs together with the drift pair, if any."""
        if self.drift is None:
            return self.controls
        return self.controls | {self.drift}

    def orbit_class(self):
        """The permutation route's answer: :attr:`all_pairs` merged into an orbit partition."""
        # the constructor has checked every pair
        return _partition(self.all_pairs, self.n)


class OracleResult(Record):
    """Outcome of the exact rank-condition oracle on one spec.

    An immutable value record.  ``closure`` is the bracket closure itself,
    kept so that callers needing its basis or per-orbit dimensions do not
    close the algebra again; equality, hashing and the repr leave it out.
    """

    __slots__ = ("dim", "controllable", "orbits", "agrees", "closure")
    _compared = ("dim", "controllable", "orbits", "agrees")

    def __init__(
        self, dim: int, controllable: bool, orbits: tuple, agrees: bool, closure: LinearSpan
    ) -> None:
        setfield(self, "dim", dim)
        setfield(self, "controllable", controllable)
        setfield(self, "orbits", orbits)
        setfield(self, "agrees", agrees)
        setfield(self, "closure", closure)


class SubmanifoldComponent(Record):
    """One orbit of a :class:`SubmanifoldDescription`; an immutable value record.

    :func:`analyze` builds it from its orbit's label builder,
    :func:`_rotation_labels` or :func:`_agent_labels`, and builds no label:
    each of the CLI's reports asks the builder for the labels joined by its
    own separator, from the orbit's letters as the report already wrote them,
    and the ``generators`` tuple is split from the labels joined by spaces
    when first read.  A component built from a tuple keeps the tuple and has
    no builder.
    """

    __slots__ = ("orbit", "_generators", "dim", "_labels")
    __match_args__ = _compared = ("orbit", "generators", "dim")

    def __init__(self, orbit: tuple, generators: tuple, dim: int | None) -> None:
        setfield(self, "orbit", orbit)
        setfield(self, "_generators", generators)
        setfield(self, "dim", dim)
        setfield(self, "_labels", None)

    @property
    def generators(self):
        """The labels of the vector fields spanning the distribution on the orbit."""
        labels = self._generators
        if labels is None and self._labels is not None:
            text = self._labels(list(map(str, self.orbit)), " ")
            labels = tuple(text.split(" ")) if text else ()
            setfield(self, "_generators", labels)
        return labels


class SubmanifoldDescription(Record):
    """Componentwise description of the controllable submanifold.

    An immutable value record.  Each component carries one orbit, the labels
    of the vector fields spanning the distribution on it, and that
    distribution's dimension when a closed form or an oracle value is
    available.  For the markov family with a known initial distribution, the
    conserved probability mass per orbit and the frozen single states are
    listed as exact rationals.
    """

    __slots__ = ("components", "total_dim", "state_space", "conserved_sums", "frozen_states")

    def __init__(
        self,
        components: tuple,
        total_dim: int | None,
        state_space: str,
        conserved_sums: tuple | None = None,
        frozen_states: tuple | None = None,
    ) -> None:
        setfield(self, "components", components)
        setfield(self, "total_dim", total_dim)
        setfield(self, "state_space", state_space)
        setfield(self, "conserved_sums", conserved_sums)
        setfield(self, "frozen_states", frozen_states)


class ControllabilityReport(Record):
    """Outcome of :func:`analyze` on ``spec``; see there for the markov reading.

    An immutable value record.
    """

    __slots__ = (
        "spec",
        "controllable",
        "method_class",
        "orbits",
        "fixed_points",
        "min_controls_satisfied",
        "oracle",
        "submanifold",
    )

    def __init__(
        self,
        spec: SystemSpec,
        controllable: bool,
        method_class: OrbitPartition,
        orbits: tuple,
        fixed_points: tuple,
        min_controls_satisfied: bool,
        oracle: OracleResult | None,
        submanifold: SubmanifoldDescription,
    ) -> None:
        setfield(self, "spec", spec)
        setfield(self, "controllable", controllable)
        setfield(self, "method_class", method_class)
        setfield(self, "orbits", orbits)
        setfield(self, "fixed_points", fixed_points)
        setfield(self, "min_controls_satisfied", min_controls_satisfied)
        setfield(self, "oracle", oracle)
        setfield(self, "submanifold", submanifold)


class NonstandardProbeResult(Record):
    """Experimental diagnostic for generators outside the standard basis.

    An immutable value record.  The subgroup statistic is a conjectured
    controllability indicator only; the rank-condition verdict computed
    alongside is the trusted one, and the two need not agree.
    """

    __slots__ = (
        "n",
        "permutation_images",
        "subgroup_order",
        "subgroup_is_full_symmetric",
        "larc_dim",
        "larc_controllable",
        "experimental",
    )

    def __init__(
        self,
        n: int,
        permutation_images: tuple,
        subgroup_order: int,
        subgroup_is_full_symmetric: bool,
        larc_dim: int,
        larc_controllable: bool,
        experimental: bool = True,
    ) -> None:
        setfield(self, "n", n)
        setfield(self, "permutation_images", permutation_images)
        setfield(self, "subgroup_order", subgroup_order)
        setfield(self, "subgroup_is_full_symmetric", subgroup_is_full_symmetric)
        setfield(self, "larc_dim", larc_dim)
        setfield(self, "larc_controllable", larc_controllable)
        setfield(self, "experimental", experimental)


def min_controls_check(spec):
    """Necessary condition: at least n-1 control-plus-drift pairs.

    Fewer pairs can never merge all n letters into one orbit, so a spec
    failing this check is never reported controllable.
    """
    return len(spec.all_pairs) >= spec.n - 1


def _pair_rows(letters, head="", sep=" "):
    """``head + i,j)`` for each pair i < j of ``letters``; one row per i, joined by ``sep``.

    ``sep`` joins the pairs within a row; the caller joins the rows.
    """
    return [
        f"{head}{i}," + f"){sep}{head}{i},".join(letters[at:]) + ")"
        for at, i in enumerate(letters[:-1], 1)
    ]


# Each label builder writes an orbit's labels joined by ``sep``, in a few
# C-level joins, so each report gets them in its own separator with no
# rewriting pass.  It takes the orbit's letters as a list of their texts,
# which the report writers have already made for the orbit lists.  A label is
# printable ASCII without a space, '"' or '\\', so the text joined by spaces
# splits back into the labels, and JSON quotes each label as it is.


def _rotation_labels(letters, sep=" "):
    """``rot(i,j)`` for each pair i < j of the orbit, in combinations order, joined by ``sep``."""
    return sep.join(_pair_rows(letters, "rot(", sep))


def _agent_labels(letters, sep=" "):
    """``couple(i,j)`` for each pair, then ``circ(i,j,k)`` for each triple, joined by ``sep``.

    ``circ(i,j,k)`` names the bracket [couple(i,j), couple(j,k)], which
    ``liealg.bracket`` builds from two ``coupling_generator`` values.
    """
    rows = _pair_rows(letters)
    if not rows:
        return ""
    # the pairs "i,j)" joined by spaces; a label holds no space
    pairs = " ".join(rows)
    # the triples of i are "circ(i," before each pair from the row after i's on
    starts = itertools.accumulate((len(row) + 1 for row in rows[:-1]), initial=0)
    next(starts)
    return "couple(" + pairs.replace(" ", sep + "couple(") + "".join(
        f"{sep}circ({i}," + pairs[at:].replace(" ", f"{sep}circ({i},")
        for i, at in zip(letters, starts)
    )


# Report facts by generator type: an orbit's generator labels, their count for an
# orbit of k letters, and the orbit's closed-form dimension, which is the
# permutation route's answer and so is not read from the oracle.  None is asserted
# for the agent algebra; the oracle's closure gives it.
_REPORTS = {
    "rotation": (_rotation_labels, lambda k: comb(k, 2), lambda orbit: comb(len(orbit), 2)),
    "coupling": (_agent_labels, lambda k: comb(k, 2) + comb(k, 3), None),
}

# family: (generator type, the key of ``_REPORTS`` and ``liealg._GENERATORS``;
# oracle size guard; state-space text, formatted with n, m = n - 1 and d, the
# agent simplex dimension; the one optional spec field; whether a spec may have
# no pairs at all: a markov chain with every rate frozen is classifiable).
_FAMILIES = {
    "so_n": ("rotation", ORACLE_MAX_ROTATION, "SO({n})", None, False),
    "multi_agent": ("coupling", ORACLE_MAX_AGENTS, "(Delta^{d})^{n}", "agent_space_dim", False),
    "markov": ("coupling", ORACLE_MAX_AGENTS, "Delta^{m}", "initial_distribution", True),
    "sphere": ("rotation", ORACLE_MAX_ROTATION, "S^{m}", None, False),
}
FAMILIES = tuple(_FAMILIES)


def _label_count(report):
    """How many generator labels the report's components list, from the orbit sizes alone."""
    count = _REPORTS[_FAMILIES[report.spec.family][0]][1]
    return sum(count(len(orbit)) for orbit in report.orbits)


def _submanifold(spec, orbits, fixed_points, closure):
    labels, _, orbit_dim = _REPORTS[_FAMILIES[spec.family][0]]
    if orbit_dim is None and closure is not None:
        # Generators on disjoint letter sets have disjoint support and commute,
        # so the closure is a direct sum of orbit blocks: each reduced echelon
        # basis matrix lies in the block holding the letter of its first
        # nonzero row, which is the row of its pivot.
        first_rows = [i + 1 for i, _ in closure.pivots]

        def orbit_dim(orbit):
            return sum(r in orbit for r in first_rows)

    components = tuple(
        SubmanifoldComponent._trusted(orbit, None, orbit_dim and orbit_dim(orbit), labels)
        for orbit in orbits
    )
    dims = [c.dim for c in components]
    conserved = frozen = None
    if spec.initial_distribution is not None:
        from fractions import Fraction

        from ._rationals import common_sum

        dist = spec.initial_distribution
        conserved = tuple(
            (orbit, Fraction(*common_sum([dist[i - 1] for i in orbit]))) for orbit in orbits
        )
        frozen = tuple((j, dist[j - 1]) for j in fixed_points)
    d = "(n-1)" if spec.agent_space_dim is None else spec.agent_space_dim - 1
    return SubmanifoldDescription(
        components=components,
        total_dim=None if None in dims else sum(dims),
        state_space=_FAMILIES[spec.family][2].format(n=spec.n, m=spec.n - 1, d=d),
        conserved_sums=conserved,
        frozen_states=frozen,
    )


def analyze(spec, with_oracle=False, oracle_max_n=None):
    """Decide controllability by orbit merging and describe the submanifold.

    The drift pair, when present, is folded into the control set before the
    merge.  The fold is proven for the rotation families, whose flows form
    a compact connected Lie group, where the rank condition is equivalent
    to controllability (Jurdjevic & Sussmann, J. Diff. Eq. 12, 1972), and
    for specs without a drift.  A drift on ``multi_agent`` or ``markov`` is
    an open gap (item 1 of ``ROADMAP.md``), and a markov verdict under
    nonnegative rates, u >= 0, means accessibility only.  The permutation
    verdict never touches matrix arithmetic.  With ``with_oracle=True`` the
    exact rank-condition oracle runs as well and its result is attached;
    otherwise ``oracle`` is None.  The report keeps ``spec`` itself rather
    than copies of its fields.  For a markov spec ``controllable`` says
    whether the chain is irreducible, and ``orbits`` together with the
    singletons of ``fixed_points`` are its communication classes.
    """
    method_class = spec.orbit_class()
    orbits = method_class.orbits
    fixed_points = tuple(sorted(method_class.fixed_points()))
    oracle = oracle_check(spec, method_class, max_n=oracle_max_n) if with_oracle else None
    return ControllabilityReport(
        spec=spec,
        controllable=method_class.is_full(),
        method_class=method_class,
        orbits=orbits,
        fixed_points=fixed_points,
        min_controls_satisfied=min_controls_check(spec),
        oracle=oracle,
        submanifold=_submanifold(spec, orbits, fixed_points, oracle and oracle.closure),
    )


def lie_closure(generators, n=None):
    """Stand-in for :func:`ctrlperm.liealg.lie_closure` until the first closure.

    The oracle route loads on first use, so a command that only merges
    orbits never compiles ``liealg``.  The first call rebinds this global
    to the real function, which serves every later call directly; it stays
    a global of this module because ``perfbench/tracing.py`` wraps it here.
    """
    global lie_closure
    from . import liealg

    lie_closure = liealg.lie_closure
    return lie_closure(generators, n)


def generate_subgroup(generators, n):
    """Forwarder to :func:`ctrlperm.permutation.generate_subgroup`, loaded on first call.

    Only ``probe`` orders a subgroup, so no other command compiles
    ``permutation``.  Unlike :func:`lie_closure` it never rebinds itself:
    it stays one global of this module, which ``perfbench/tracing.py``
    wraps, and ``probe_nonstandard`` calls it through that global.
    """
    from . import permutation

    return permutation.generate_subgroup(generators, n)


def check_oracle_size(family, n, max_n=None):
    """Raise :class:`OracleSizeError` if ``n`` letters are beyond the oracle size guard.

    The guard is ``ORACLE_MAX_ROTATION`` for rotation families and
    ``ORACLE_MAX_AGENTS`` for agent families; ``max_n`` overrides both.  It
    needs only the family and the letter count, so callers can refuse an
    instance before building it.
    """
    guard = _FAMILIES[family][1] if max_n is None else max_n
    if n > guard:
        raise OracleSizeError(
            f"n={n} exceeds the oracle size guard {guard}; "
            "raise it explicitly if you really want the closure"
        )


def oracle_check(spec, method_class, max_n=None):
    """Settle controllability by exact Lie-bracket closure and rank.

    Builds the generator entry maps for the spec's pairs, closes them under
    the bracket, and compares the closure dimension against the full algebra
    dimension.  The orbit structure is recovered independently of the
    permutation method: two letters belong together exactly when the basis
    generator on that letter pair lies in the closure.  ``method_class`` is
    the permutation method's output, ``spec.orbit_class()``, and is read
    only for ``agrees``: True when both the verdict and the recovered orbit
    partition match it.
    """
    check_oracle_size(spec.family, spec.n, max_n)
    from .liealg import _GENERATORS, LinearSpan

    pair_entries, (_, _, full_dim, _, _) = _GENERATORS[_FAMILIES[spec.family][0]]
    # SystemSpec has checked the pairs, and lie_closure checks every entry index
    pairs = sorted(spec.all_pairs)
    if pairs:
        closure = lie_closure([pair_entries(i - 1, j - 1) for i, j in pairs], spec.n)
    else:
        # a markov chain with every rate frozen has no generators: the zero algebra
        closure = LinearSpan(spec.n)
    controllable = closure.dim == full_dim(spec.n)
    uf = UnionFind(spec.n)
    pairs = itertools.combinations(range(spec.n), 2)
    uf.union_pairs((a + 1, b + 1) for a, b in pairs if closure.contains(pair_entries(a, b)))
    blocks = tuple(g for g in uf.groups() if len(g) >= 2)
    agrees = controllable == method_class.is_full() and blocks == method_class.orbits
    return OracleResult(
        dim=closure.dim, controllable=controllable, orbits=blocks, agrees=agrees,
        closure=closure,
    )


def probe_nonstandard(generators, max_n=None):
    """Experimental subgroup test for non-standard-basis generators.

    Each generator must be a signed sum of rotation generators on pairwise
    disjoint index pairs; it is mapped to the product of the corresponding
    disjoint transpositions.  The probe reports the order of the subgroup
    those permutations generate alongside the trusted rank-condition verdict
    computed from the matrices themselves.  The subgroup statistic is a
    conjecture-level indicator and must not be read as a verdict.

    All generators are n-by-n, n taken from the first one.  ``n`` must not
    exceed the rotation oracle guard (``max_n`` overrides it), checked before
    any work.  The subgroup order is exact at every size: it comes from a
    stabilizer chain, so the guard is there for the closure alone.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].n
    check_oracle_size("so_n", n, max_n)
    from .liealg import _GENERATORS, _disjoint_pair_decomposition
    from .permutation import Permutation

    images = []
    for g in generators:
        if g.n != n:
            raise ValueError(f"generator size {g.n} != {n}")
        pairs = _disjoint_pair_decomposition(g)
        images.append(Permutation.from_cycles(n, pairs))
    subgroup = generate_subgroup(images, n)
    closure = lie_closure(generators)
    return NonstandardProbeResult(
        n=n,
        permutation_images=tuple(images),
        subgroup_order=subgroup.order,
        subgroup_is_full_symmetric=subgroup.is_full_symmetric,
        larc_dim=closure.dim,
        larc_controllable=closure.dim == _GENERATORS["rotation"][1][2](n),  # dim so(n)
    )
