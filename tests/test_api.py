import ast
import importlib
import sys
from pathlib import Path

import pytest

import ctrlperm
from ctrlperm import liealg, specio

ROOT = Path(__file__).resolve().parent.parent


def test_public_names_are_pinned():
    names = ctrlperm.__all__
    assert len(names) == len(set(names)) == 42
    for name in names:
        assert hasattr(ctrlperm, name), name
    # a markov report from analyze already is the classification
    assert "markov_classify" not in names
    assert "MarkovClassification" not in names


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
        (specio, ("_report_text", "_spec_text", "_text_report", "_sum_texts", "_digest")),
    ],
    ids=["liealg", "specio"],
)
def test_references_import_nothing_from_what_they_check(module, private):
    # the dense algebra in tests/helpers.py checks the library's bracket and
    # closure, and the dict references check the report and spec writers, so
    # neither may share the code it checks
    tree = ast.parse((ROOT / "tests" / "helpers.py").read_text())
    name = module.__name__.rpartition(".")[2]
    owned = {*module.__all__, *private, name}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith(module.__name__) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith(module.__name__), node.module
            if node.module == "ctrlperm":
                assert owned.isdisjoint(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            assert node.attr not in owned, node.attr
