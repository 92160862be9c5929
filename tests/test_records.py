"""Contracts of the nine immutable value records.

Each record type constructs positionally and by keyword with its defaults,
refuses assignment and deletion, equals only instances of its own class,
hashes consistently with that equality, prints as ``Name(field=value, ...)``
and survives pickle, copy and deepcopy.  The repr strings are the text the
records printed when they were frozen dataclasses.  The three value types
``Permutation``, ``OrbitPartition`` and ``ExactMatrix`` derive from the same
base and are checked at the end (only ``ExactMatrix`` keeps a repr of its
own), followed by the one unchecked constructor, ``_trusted``, that every
record inherits from the base.
"""

import contextlib
import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from ctrlperm import (
    ControlGraph,
    ControllabilityReport,
    CycleDecomposition,
    ExactMatrix,
    LinearSpan,
    NonstandardProbeResult,
    OracleResult,
    OrbitPartition,
    Permutation,
    SubgroupSummary,
    SubmanifoldComponent,
    SubmanifoldDescription,
    SystemSpec,
    partition_from_pairs,
    rotation_generator,
)

SPAN = LinearSpan(3)
SPEC = SystemSpec("so_n", 3, frozenset({(1, 2)}))
COMPONENT = SubmanifoldComponent((1, 2), ("rot(1,2)",), 1)
SUBMANIFOLD = SubmanifoldDescription((COMPONENT,), 1, "SO(3)")
SWAP = Permutation((2, 1, 3))

SPEC_REPR = (
    "SystemSpec(family='so_n', n=3, controls=frozenset({(1, 2)}), drift=None,"
    " agent_space_dim=None, initial_distribution=None)"
)
COMPONENT_REPR = "SubmanifoldComponent(orbit=(1, 2), generators=('rot(1,2)',), dim=1)"
SUBMANIFOLD_REPR = (
    f"SubmanifoldDescription(components=({COMPONENT_REPR},), total_dim=1,"
    " state_space='SO(3)', conserved_sums=None, frozen_states=None)"
)

# (type, positional arguments, every field by keyword in constructor order,
#  repr, an instance differing in one compared field)
CASES = [
    (
        SystemSpec,
        ("so_n", 3, frozenset({(1, 2)})),
        dict(
            family="so_n", n=3, controls=frozenset({(1, 2)}), drift=None,
            agent_space_dim=None, initial_distribution=None,
        ),
        SPEC_REPR,
        SystemSpec("so_n", 3, frozenset({(1, 2)}), drift=(2, 3)),
    ),
    (
        OracleResult,
        (1, False, ((1, 2),), True, SPAN),
        dict(dim=1, controllable=False, orbits=((1, 2),), agrees=True, closure=SPAN),
        "OracleResult(dim=1, controllable=False, orbits=((1, 2),), agrees=True)",
        OracleResult(1, False, ((1, 2),), False, SPAN),
    ),
    (
        SubmanifoldComponent,
        ((1, 2), ("rot(1,2)",), 1),
        dict(orbit=(1, 2), generators=("rot(1,2)",), dim=1),
        COMPONENT_REPR,
        SubmanifoldComponent((1, 2), ("rot(1,2)",), None),
    ),
    (
        SubmanifoldDescription,
        ((COMPONENT,), 1, "SO(3)"),
        dict(
            components=(COMPONENT,), total_dim=1, state_space="SO(3)",
            conserved_sums=None, frozen_states=None,
        ),
        SUBMANIFOLD_REPR,
        SubmanifoldDescription((COMPONENT,), 1, "S^2"),
    ),
    (
        ControllabilityReport,
        (SPEC, False, partition_from_pairs({(1, 2)}, 3), ((1, 2),), (3,), False, None, SUBMANIFOLD),
        dict(
            spec=SPEC, controllable=False, method_class=partition_from_pairs({(1, 2)}, 3),
            orbits=((1, 2),), fixed_points=(3,), min_controls_satisfied=False, oracle=None,
            submanifold=SUBMANIFOLD,
        ),
        f"ControllabilityReport(spec={SPEC_REPR}, controllable=False,"
        " method_class=OrbitPartition(n=3, orbits=((1, 2),)), orbits=((1, 2),),"
        " fixed_points=(3,), min_controls_satisfied=False, oracle=None,"
        f" submanifold={SUBMANIFOLD_REPR})",
        ControllabilityReport(
            SPEC, False, partition_from_pairs({(1, 2)}, 3), ((1, 2),), (3,), True, None,
            SUBMANIFOLD,
        ),
    ),
    (
        NonstandardProbeResult,
        (3, (SWAP,), 2, False, 1, False),
        dict(
            n=3, permutation_images=(SWAP,), subgroup_order=2,
            subgroup_is_full_symmetric=False, larc_dim=1, larc_controllable=False,
            experimental=True,
        ),
        "NonstandardProbeResult(n=3, permutation_images=(Permutation(image=(2, 1, 3)),),"
        " subgroup_order=2, subgroup_is_full_symmetric=False, larc_dim=1,"
        " larc_controllable=False, experimental=True)",
        NonstandardProbeResult(3, (SWAP,), 2, False, 1, False, experimental=False),
    ),
    (
        CycleDecomposition,
        (((1, 2),), frozenset({3})),
        dict(cycles=((1, 2),), fixed_points=frozenset({3})),
        "CycleDecomposition(cycles=((1, 2),), fixed_points=frozenset({3}))",
        CycleDecomposition(((1, 2, 3),), frozenset()),
    ),
    (
        SubgroupSummary,
        (2, False),
        dict(order=2, is_full_symmetric=False),
        "SubgroupSummary(order=2, is_full_symmetric=False)",
        SubgroupSummary(6, True),
    ),
    (
        ControlGraph,
        (3, frozenset({(2, 3)})),
        dict(n=3, edges=frozenset({(2, 3)})),
        "ControlGraph(n=3, edges=frozenset({(2, 3)}))",
        ControlGraph(3, frozenset({(1, 2)})),
    ),
]
IDS = [case[0].__name__ for case in CASES]
cases = pytest.mark.parametrize("cls, args, fields, text, other", CASES, ids=IDS)


def test_the_nine_records_are_covered():
    assert len({case[0] for case in CASES}) == 9


@cases
def test_positional_and_keyword_construction(cls, args, fields, text, other):
    record = cls(*args)
    assert cls(**fields) == record
    for name, value in fields.items():
        assert getattr(record, name) == value, name
    params = inspect.signature(cls).parameters
    assert list(params) == list(fields)
    # omitted positional arguments are exactly the defaulted ones, at their values
    for name in list(fields)[len(args):]:
        assert params[name].default == fields[name], name
    for name in list(fields)[: len(args)]:
        assert params[name].default is inspect.Parameter.empty, name
    assert cls.__match_args__ == tuple(fields)


@cases
def test_assignment_and_deletion_raise_attribute_error(cls, args, fields, text, other):
    record = cls(*args)
    name = next(iter(fields))
    for action in (
        lambda: setattr(record, name, None),
        lambda: delattr(record, name),
        lambda: setattr(record, "extra", 1),
    ):
        with pytest.raises(AttributeError) as exc:
            action()
        assert type(exc.value) is AttributeError
    assert getattr(record, name) == fields[name]


@cases
def test_equality_within_the_class_only(cls, args, fields, text, other):
    record = cls(*args)
    twin = cls(*args)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert record != other
    assert record != tuple(fields.values())
    assert record != tuple(args)

    class Lookalike(cls):
        __slots__ = ()

    lookalike = Lookalike(*args)
    assert record != lookalike and lookalike != record
    assert Lookalike.__match_args__ == cls.__match_args__


@cases
def test_repr_keeps_the_dataclass_text(cls, args, fields, text, other):
    assert repr(cls(*args)) == text


@cases
@pytest.mark.parametrize(
    "round_trip",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(cls, args, fields, text, other, round_trip):
    record = cls(*args)
    again = round_trip(record)
    assert type(again) is cls
    assert again == record and hash(again) == hash(record)
    for name in cls.__match_args__:
        if name != "closure":  # a LinearSpan compares by identity
            assert getattr(again, name) == getattr(record, name), name


def test_oracle_result_leaves_the_closure_out():
    grown = LinearSpan(3)
    grown.insert(rotation_generator(3, (1, 2)))
    one = OracleResult(1, False, ((1, 2),), True, SPAN)
    two = OracleResult(1, False, ((1, 2),), True, grown)
    assert one == two and hash(one) == hash(two)
    assert repr(one) == repr(two)
    assert "closure" not in repr(two)
    assert two.closure is grown
    assert pickle.loads(pickle.dumps(two)).closure.dim == 1


def test_records_normalize_their_pairs():
    spec = SystemSpec("markov", 3, [[1, 2]], initial_distribution=["1/2", "1/2", 0])
    assert spec.controls == frozenset({(1, 2)})
    assert spec.initial_distribution == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert SystemSpec("so_n", 3, [(1, 2)], drift=[2, 3]).drift == (2, 3)
    assert ControlGraph(3, [[2, 3]]) == ControlGraph(3, frozenset({(2, 3)}))
    with pytest.raises(ValueError, match="index pair"):
        ControlGraph(3, [(3, 1)])
    with pytest.raises(ValueError, match="unknown family"):
        SystemSpec("so_m", 3, [(1, 2)])


def test_records_do_not_iterate():
    with pytest.raises(TypeError):
        iter(SubgroupSummary(2, False))



# The three value types, checked apart from CASES: (a factory, a field name);
# a factory, so that no test sees what another did to its instance
VALUES = [
    (lambda: Permutation.from_cycles(4, [(1, 2, 3)]), "image"),
    (lambda: OrbitPartition(5, [{5, 4}, {3, 1, 2}]), "orbits"),
    (lambda: ExactMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]), "rows"),
]
VALUE_IDS = ["Permutation", "OrbitPartition", "ExactMatrix"]
values = pytest.mark.parametrize("make, name", VALUES, ids=VALUE_IDS)


@values
def test_value_types_refuse_assignment_and_deletion(make, name):
    value = make()
    kept = getattr(value, name)
    for action in (
        lambda: setattr(value, name, kept[:1]),
        lambda: delattr(value, name),
        lambda: setattr(value, "extra", 1),
    ):
        with pytest.raises(AttributeError) as exc:
            action()
        assert type(exc.value) is AttributeError
    assert getattr(value, name) is kept


@values
def test_value_types_stay_findable_in_a_set(make, name):
    value = make()
    held = {value}
    with contextlib.suppress(AttributeError):
        setattr(value, name, getattr(value, name)[:1])
    assert value in held
    assert make() in held


@values
@pytest.mark.parametrize(
    "round_trip",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_value_types_pickle_and_copy(make, name, round_trip):
    value = make()
    again = round_trip(value)
    assert type(again) is type(value)
    assert again == value and hash(again) == hash(value)
    assert repr(again) == repr(value)


@values
def test_value_types_equal_only_their_own_class(make, name):
    value = make()

    class Lookalike(type(value)):
        __slots__ = ()

    lookalike = Lookalike(*[getattr(value, f) for f in type(value).__match_args__])
    assert lookalike != value and value != lookalike
    assert value != getattr(value, name)


# every record above, built checked; ``_trusted`` is given its slot values
TRUSTED = [(lambda cls=cls, args=args: cls(*args)) for cls, args, *_ in CASES] + [
    make for make, _ in VALUES
]
trusted = pytest.mark.parametrize("make", TRUSTED, ids=IDS + VALUE_IDS)


def _slot_values(record):
    return [getattr(record, name) for name in type(record).__slots__]


@trusted
def test_trusted_equals_the_checked_instance(make):
    checked = make()
    cls = type(checked)
    record = cls._trusted(*_slot_values(checked))
    assert type(record) is cls
    assert record == checked and checked == record
    assert hash(record) == hash(checked)
    assert repr(record) == repr(checked)


@trusted
def test_trusted_refuses_assignment(make):
    checked = make()
    record = type(checked)._trusted(*_slot_values(checked))
    name = type(checked).__slots__[0]
    for action in (
        lambda: setattr(record, name, None),
        lambda: delattr(record, name),
        lambda: setattr(record, "extra", 1),
    ):
        with pytest.raises(AttributeError) as exc:
            action()
        assert type(exc.value) is AttributeError


@trusted
def test_trusted_lookalike_keeps_the_slot_order(make):
    checked = make()
    cls = type(checked)

    class Lookalike(cls):
        __slots__ = ()

    values = _slot_values(checked)
    record = Lookalike._trusted(*values)
    assert type(record) is Lookalike
    assert [getattr(record, name) for name in cls.__slots__] == values
    assert record == Lookalike._trusted(*values) and record != checked
