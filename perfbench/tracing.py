"""Span tracing around the calls between ctrlperm modules.

Each wrapper is installed on the name the caller looks up: a module global
for plain functions, the class attribute for methods.  A span records its
name, start, end, parent span and operation id.  Spans stay in memory until
the run ends; :func:`summarize` turns them into per-layer totals.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import ctrlperm.cli
import ctrlperm.liealg
import ctrlperm.monoid
import ctrlperm.systems

# (owner, attribute, span name).  Names cover every boundary where one
# module calls the next on the CLI path.
_cli, _sys, _lie = ctrlperm.cli, ctrlperm.systems, ctrlperm.liealg
PATCHES = [
    (_cli, "main", "cli.main"),
    (_cli, "parse_spec", "specio.parse_spec"),
    (_cli, "parse_probe", "specio.parse_probe"),
    (_cli, "report_to_dict", "specio.report_to_dict"),
    (_cli, "spec_to_dict", "specio.spec_to_dict"),
    (_cli, "canonical_json", "specio.canonical_json"),
    (_cli, "control_graph", "graphview.control_graph"),
    (_cli, "to_dot", "graphview.to_dot"),
    (_cli, "analyze", "systems.analyze"),
    (_cli, "oracle_check", "systems.oracle_check"),
    (_cli, "probe_nonstandard", "systems.probe_nonstandard"),
    (_sys, "oracle_check", "systems.oracle_check"),  # analyze --oracle
    (_sys, "partition_from_pairs", "monoid.partition_from_pairs"),
    (_sys, "lie_closure", "liealg.lie_closure"),
    (_sys, "generate_subgroup", "permutation.generate_subgroup"),
    (_lie, "lie_closure", "liealg.lie_closure"),  # cli._closure_basis imports it locally
    (_lie, "bracket", "liealg.bracket"),
    (_lie.LinearSpan, "insert", "liealg.span_insert"),
    (_lie.LinearSpan, "contains", "liealg.span_contains"),
    (ctrlperm.monoid.OrbitPartition, "merge", "monoid.merge"),
]


def _tally(counts, name, result):
    """Counters taken from a call's result at the boundary it crosses."""
    if name == "specio.canonical_json":
        counts["specio.canonical_json.bytes"] += len(result.encode())
    elif name == "liealg.span_insert":
        counts["liealg.span_insert.kept"] += bool(result)
    elif name == "liealg.lie_closure":
        counts["liealg.closure_dim_sum"] += result.dim
    elif name == "permutation.generate_subgroup":
        counts["permutation.generate_subgroup.order_sum"] += result.order


class Tracer:
    """Records spans while installed; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            _tally(counts, name, result)
            return result

        return traced

    def install(self):
        for owner, attr, name in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        for owner, attr, _ in PATCHES:
            if hasattr(owner.__dict__[attr], "__wrapped__"):
                raise RuntimeError(f"tracing wrapper left on {owner.__name__}.{attr}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def write(self, path):
        """All spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, round(start, 9), round(end, 9), parent, op]) + "\n")


def summarize(tracer):
    """Per-name calls, busy time and self time, plus the result counters."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    child = [0.0] * len(tracer.spans)
    closure_ops = set()
    for name, start, end, parent, op in tracer.spans:
        calls[name] += 1
        busy[name] += end - start
        if parent >= 0:
            child[parent] += end - start
        if name == "liealg.lie_closure":
            closure_ops.add(op)
    self_time = defaultdict(float)
    for (name, start, end, _, _), covered in zip(tracer.spans, child):
        self_time[name] += end - start - covered
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = self_time[name]
    out.update(tracer.counts)
    out["liealg.closure_ops"] = len(closure_ops)
    return out
