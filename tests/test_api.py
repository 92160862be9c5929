import ast
import importlib
import sys
from pathlib import Path

import pytest

import ctrlperm
from ctrlperm import _textreport, liealg, specio

ROOT = Path(__file__).resolve().parent.parent


def test_public_names_are_pinned():
    names = ctrlperm.__all__
    assert len(names) == len(set(names)) == 41
    for name in names:
        assert hasattr(ctrlperm, name), name
    # a markov report from analyze already is the classification
    assert "markov_classify" not in names
    assert "MarkovClassification" not in names


# The public attributes of the library's core types, each with its class:
#   route        - a CLI command or a report runs it;
#   record       - the value contract every Record gives (immutable, equal
#                  by fields, hashed, pickled, printed as Name(field=value));
#   test oracle  - absorbing_product, which the north star keeps;
#   demo         - only a demo calls it;
#   item 8 ...   - kept for the ROADMAP items that give it a route;
#   traced       - perfbench/tracing.py wraps it, so it waits for item 7;
#   bench        - perfbench/workloads.py calls it, so it waits for a benchmark change.
# A dunder counts when a class other than object defines it, unless it only
# builds or describes the class.  A second name for a concept fails here.
_RECORD = dict.fromkeys(
    ("__delattr__", "__eq__", "__hash__", "__reduce__", "__repr__", "__setattr__"), "record"
)
_SURFACES = {
    "Permutation": (lambda: ctrlperm.identity(2), {
        **_RECORD,
        "image": "route",  # probe's subgroup order reads the images
        "n": "route",
        "from_cycles": "route",  # probe maps each generator to a permutation
        "moved_letters": "test oracle",  # absorbing_product's absorption test
        "__str__": "route",  # probe prints the images in cycle notation
    }),
    "OrbitPartition": (lambda: ctrlperm.OrbitPartition(2, ()), {
        **_RECORD,
        "n": "route",
        "orbits": "route",
        "fixed_points": "route",  # analyze
        "is_full": "route",  # the verdict of analyze and compare
        "__str__": "route",  # the report's class text; a hand-built report's writer calls it
        "sorted_orbits": "bench",  # the planner's self-test; a second name for orbits
        "merge": "traced",
    }),
    "UnionFind": (lambda: ctrlperm.UnionFind(2), {
        "parent": "route",
        "size": "route",
        "find": "route",  # the closure's block split
        "union_pairs": "route",  # every merge: orbits, blocks, oracle orbits, subgroup bound
        "groups": "route",
    }),
    "ExactMatrix": (lambda: ctrlperm.ExactMatrix([[0]]), {
        **_RECORD,
        "rows": "route",
        "n": "route",
        "from_entries": "route",  # generators and closure bases as matrices
        "entries": "route",  # probe generators enter the closure as entry maps
        "format_grid": "demo",  # demo 01 prints a bracket
        "__add__": "demo",  # demo 03 sums two rotation generators
    }),
    "LinearSpan": (lambda: ctrlperm.LinearSpan(2), {
        "n": "route",
        "rows": "route",
        "dim": "route",
        "pivots": "route",  # per-orbit dimensions from the closure
        "contains": "route",  # the oracle's orbit recovery
        "insert": "traced",
        "basis": "items 8 and 10",  # the closure as matrices, kept with rank_at and basis_bracket
        "rank_at": "item 8",  # the state-space dimension
    }),
}
_DESCRIBES = {
    "__annotations__", "__dict__", "__doc__", "__firstlineno__", "__init__", "__init_subclass__",
    "__match_args__", "__module__", "__qualname__", "__slots__", "__static_attributes__",
    "__weakref__",
}


def _surface(value):
    """The public attributes of ``value``, with the dunders its classes define."""
    mro = [klass for klass in type(value).__mro__ if klass is not object]
    return {
        name for name in dir(value)
        if not name.startswith("_")
        or name.startswith("__") and name.endswith("__") and name not in _DESCRIBES
        and any(name in vars(klass) for klass in mro)
    }


@pytest.mark.parametrize("name", sorted(_SURFACES))
def test_core_types_name_each_concept_once(name):
    make, table = _SURFACES[name]
    value = make()
    assert type(value) is getattr(ctrlperm, name)
    assert _surface(value) == set(table)
    assert set(table.values()) <= {
        "route", "record", "test oracle", "demo", "item 8", "items 8 and 10", "traced", "bench",
    }


def test_package_namespace_lists_the_public_names():
    namespace = {}
    exec("from ctrlperm import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ctrlperm.__all__)
    listed = dir(ctrlperm)
    assert set(ctrlperm.__all__) <= set(listed)
    assert {"graphview", "liealg", "monoid", "permutation", "systems"} <= set(listed)
    # a name resolves to the submodule's own object
    assert ctrlperm.lie_closure is ctrlperm.liealg.lie_closure
    assert ctrlperm.SystemSpec is ctrlperm.systems.SystemSpec
    with pytest.raises(AttributeError, match="no_such_name"):
        ctrlperm.no_such_name


def test_bench_tracing_hooks_exist(monkeypatch):
    # the traced bench run looks every hook up with owner.__dict__[attr], so a
    # renamed or deleted name breaks `perfbench/run.py --trace 1`
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    assert tracing.PATCHES
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.PATCHES
        if attr not in vars(owner)
    ]
    assert missing == []


@pytest.mark.parametrize(
    ("module", "private"),
    [
        (liealg, ()),
        (specio, ("_report_text", "_spec_text", "_sum_texts", "_digest")),
        (_textreport, ("_text_report", "_pairs_text")),
    ],
    ids=["liealg", "specio", "_textreport"],
)
def test_references_import_nothing_from_what_they_check(module, private):
    # the dense algebra in tests/helpers.py checks the library's bracket and
    # closure, and the dict references check the report and spec writers, so
    # neither may share the code it checks
    tree = ast.parse((ROOT / "tests" / "helpers.py").read_text())
    name = module.__name__.rpartition(".")[2]
    owned = {*getattr(module, "__all__", ()), *private, name}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith(module.__name__) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith(module.__name__), node.module
            if node.module == "ctrlperm":
                assert owned.isdisjoint(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            assert node.attr not in owned, node.attr
