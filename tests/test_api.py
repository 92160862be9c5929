import importlib
import sys
from pathlib import Path

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
