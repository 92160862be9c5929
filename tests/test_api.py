import importlib
import sys
from pathlib import Path

import pytest

import ctrlperm

ROOT = Path(__file__).resolve().parent.parent


def test_public_names_are_pinned():
    names = ctrlperm.__all__
    assert len(names) == len(set(names)) == 44
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
