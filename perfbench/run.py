"""ctrlperm benchmark: closed loop, one client, in-process CLI calls.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload orbit_large --seed 1 --seconds 40 --trace 0

Each operation is one call of ``ctrlperm.cli.main(argv)`` with stdout
captured, on spec or probe files generated from ``--seed``.  A run
repeats whole passes over the workload's operation list while another
pass fits in ``--seconds`` (and at least MIN_PASSES passes).  Every output is
checked: the first output of an operation against the planted expectation,
each later repeat against that output's digest.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (see tracing.py).  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_PASSES = 3
SETUP_BATCH = 2  # launches per batch; about ten batches per run
# share of --seconds given to the untraced passes of a traced run; the two
# traced repeats of the same passes take most of the rest
TRACE_BASE_SHARE = 0.25

# counters that must repeat exactly between two traced runs of one seed
EXACT_SUFFIXES = (".calls", ".bytes", ".kept", "closure_dim_sum", "order_sum", "closure_ops")

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import ctrlperm.cli\n"
    "print(time.perf_counter() - start)\n"
)


class ImportTimer:
    """Times ``import ctrlperm.cli`` in fresh interpreters, spread over a run.

    Load from other tenants comes and goes within seconds, so the launches
    are made in small batches between passes rather than all at once.
    """

    def __init__(self, interval):
        self.interval = interval
        self.due = 0.0
        self.samples = []
        self._launch()  # the first launch may compile bytecode

    def _launch(self):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, SRC],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        return float(done.stdout)

    def sample(self):
        self.samples += [self._launch() for _ in range(SETUP_BATCH)]
        self.due = time.perf_counter() + self.interval

    def between_passes(self):
        if time.perf_counter() >= self.due:
            self.sample()


class Runner:
    """Runs operations in process, recording latencies and output digests.

    The first run of each operation gives its reference output: that output
    is checked against the plan, and every later run must reproduce it byte
    for byte.
    """

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.samples = [[] for _ in ops]  # seconds, one entry per run of each op
        self.outputs = [None] * len(ops)  # (stdout, exit code) of the first run
        self.digests = [None] * len(ops)
        self.mismatches = [0] * len(ops)  # later runs whose output differed
        self.bad = set()  # ops whose reference output failed its check
        self.errors = []
        self.runs = 0  # operation runs so far; ids the spans of each run

    def call(self, argv):
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crashing op is a failed op
            rc = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        return out.getvalue(), rc, elapsed

    def run_pass(self, tracer=None):
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = self.runs
            self.runs += 1
            out, rc, elapsed = self.call(op.argv)
            self.samples[i].append(elapsed)
            digest = hashlib.sha256(out.encode()).digest()
            if self.digests[i] is None:
                self.outputs[i], self.digests[i] = (out, rc), digest
            elif (digest, rc) != (self.digests[i], self.outputs[i][1]):
                self.mismatches[i] += 1
                self.errors.append(f"op {i} ({op.kind}): output differs from its first run")

    def run_for(self, seconds, min_passes=1, tracer=None, between=None):
        """Whole passes while another one fits in ``seconds``; at least ``min_passes``."""
        start = time.perf_counter()
        done, last = 0, 0.0
        while done < min_passes or time.perf_counter() - start + last <= seconds:
            if between is not None:
                between()
            began = time.perf_counter()
            self.run_pass(tracer)
            last = time.perf_counter() - began
            done += 1
        return done, time.perf_counter() - start

    def verify(self):
        """Check each reference output against the plan; a bad op fails every run."""
        for i, op in enumerate(self.ops):
            out, rc = self.outputs[i]
            try:
                op.verify(out, rc)
            except (workloads.CheckFailed, ValueError, KeyError, TypeError) as exc:
                self.bad.add(i)
                self.errors.append(f"op {i} ({op.kind} {' '.join(op.argv)}): {exc!r}")

    @property
    def failed(self):
        return sum(
            len(runs) if i in self.bad else mismatched
            for i, (runs, mismatched) in enumerate(zip(self.samples, self.mismatches))
        )


def end_to_end(runner, seconds):
    """End-to-end metrics over each operation's best latency in the run.

    Other tenants of a shared machine only ever add time, in bursts of a few
    seconds; the best of an operation's repeats spread over the run is the
    estimate of its cost that such bursts disturb least.
    """
    imports = ImportTimer(seconds / 10)
    passes, wall = runner.run_for(seconds, MIN_PASSES, between=imports.between_passes)
    imports.sample()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    best_ms = [min(runs) * 1000 for runs in runner.samples]
    count = len(best_ms)
    values = {
        "ops_per_s": (count * 1000 / sum(best_ms), count),
        "op_p50_ms": (statistics.median(best_ms), count),
        "op_p90_ms": (statistics.quantiles(best_ms, n=10)[8], count),
        "setup_s": (statistics.median(imports.samples), len(imports.samples)),
        "peak_rss_mb": (peak_mb, 1),
    }
    return values, f"{passes} passes of {count} ops in {wall:.2f} s; latency = best of {passes} runs per op"


def _closures_by_kind(tracer, ops, passes):
    """lie_closure calls per operation, for each kind of operation that closes."""
    calls = collections.Counter(
        ops[span[4] % len(ops)].kind for span in tracer.spans if span[0] == "liealg.lie_closure"
    )
    runs = collections.Counter(op.kind for op in ops)
    return {kind: count / (runs[kind] * passes) for kind, count in calls.items()}


def layer_run(runner, seconds, trace_path):
    """Per-layer metrics from two traced repeats of the same passes, per pass."""
    from tracing import Tracer, summarize

    _, first_pass = runner.run_for(0)  # reference outputs, warm caches
    passes = max(1, int(seconds * TRACE_BASE_SHARE / first_pass))
    _, base = runner.run_for(0, passes)
    tracers, walls = [Tracer(), Tracer()], []
    for tracer in tracers:
        with tracer:
            walls.append(runner.run_for(0, passes, tracer=tracer)[1])
    tracers[0].write(trace_path + ".spans.jsonl")
    by_kind = _closures_by_kind(tracers[0], runner.ops, passes)
    first, second = (summarize(tracer) for tracer in tracers)
    keys = set(first) | set(second)
    unstable = sorted(
        key for key in keys if key.endswith(EXACT_SUFFIXES) and first.get(key) != second.get(key)
    )
    total = {key: first.get(key, 0) + second.get(key, 0) for key in keys}
    per_pass = {key: value / (2 * passes) for key, value in total.items()}
    inserts = total.get("liealg.span_insert.calls", 0)
    closure_ops = total.get("liealg.closure_ops", 0)
    per_pass["liealg.span_insert.kept_ratio"] = (
        total.get("liealg.span_insert.kept", 0) / inserts if inserts else 0.0
    )
    per_pass["liealg.lie_closure.calls_per_op"] = (
        total.get("liealg.lie_closure.calls", 0) / closure_ops if closure_ops else 0.0
    )
    per_pass["trace.overhead_ratio"] = sum(walls) / (2 * base)
    per_pass["trace.unstable_counters"] = len(unstable)
    with open(trace_path + ".summary.json", "w", encoding="utf-8") as handle:
        json.dump(
            {"passes": passes, "untraced_s": base, "traced_s": walls,
             "unusable_counters": unstable, "per_pass": per_pass,
             "lie_closure_calls_per_op_by_kind": by_kind},
            handle, indent=2, sort_keys=True,
        )
    values = collections.defaultdict(lambda: (0, 2 * passes))
    values.update((key, (value, 2 * passes)) for key, value in per_pass.items())
    note = f"{passes} passes untraced in {base:.2f} s, traced twice in {walls[0]:.2f} s / {walls[1]:.2f} s"
    if by_kind:
        note += "; lie_closure calls per op: " + ", ".join(f"{k} {v:g}" for k, v in sorted(by_kind.items()))
    if unstable:
        note += "; counters unusable for count claims: " + ", ".join(unstable)
    return values, note


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ctrlperm", "cli.py")):
        print(f"error: no ctrlperm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from ctrlperm import cli

    work = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(cli, workloads.build(args.workload, args.seed, work))
    errors = []
    try:
        workloads.self_test(args.seed)
    except workloads.CheckFailed as exc:
        errors.append(f"generator self-test: {exc}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if args.trace:
        values, note = layer_run(runner, args.seconds, os.path.join(work, "trace"))
    else:
        values, note = end_to_end(runner, args.seconds)
    runner.verify()
    errors += runner.errors
    if not args.trace:
        values["ok_ratio"] = (1 - runner.failed / runner.runs, runner.runs)
    for line in errors[:20]:
        print("FAILED", line, file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {note}")
    for name, unit in units.items():
        value, samples = values[name]
        print(f"  {name:<44} {value:>14.6g} {unit:<6} n={samples}")
    print(f"  error_rate: {runner.failed} failed of {runner.runs} operation runs")
    result = {
        "correct": not errors and runner.failed == 0,
        "attempted": runner.runs,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name][0], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
