"""Check that two ctrlperm source trees give the same outputs on the benchmark.

Runs every operation of every ``perfbench/workloads.py`` workload in process,
once against ``src/`` of this checkout and once against ``OTHER_SRC``, and
compares each operation's stdout, stderr and exit code.  It only reads
``perfbench/``.  Run from the repository root::

    python tools/same_outputs.py OTHER_SRC [--seeds 303 4242] [--workloads NAME ...]

Exits 0 when every output is equal, 1 otherwise, naming the first
operations that differ.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def _run(src, workloads, seeds, work):
    """Each operation's argv and digests of its stdout, stderr and exit code, under ``src``."""
    sys.path[:0] = [src, BENCH]
    import workloads as bench
    from ctrlperm import cli

    rows = []
    for name in workloads:
        for seed in seeds:
            for op in bench.build(name, seed, os.path.join(work, f"{name}-{seed}")):
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(op.argv)
                except (Exception, SystemExit) as exc:
                    code = f"raised {exc!r}"
                digest = hashlib.sha256(f"{out.getvalue()}\0{err.getvalue()}\0{code}".encode())
                rows.append([name, seed, op.argv, digest.hexdigest()])
    return rows


def _outputs(src, args, work):
    command = [sys.executable, os.path.abspath(__file__), "--child", src, "--seeds"]
    command += [str(s) for s in args.seeds] + ["--workloads", *args.workloads]
    done = subprocess.run(command + ["--work", work], capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other_src", metavar="OTHER_SRC")
    parser.add_argument("--seeds", type=int, nargs="+", default=[303, 4242])
    parser.add_argument("--workloads", nargs="+", default=["orbit_large", "oracle_compare", "small_mix"])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_run(os.path.abspath(args.other_src), args.workloads, args.seeds, args.work)))
        return 0
    with tempfile.TemporaryDirectory() as work:
        # both trees read the same input files, so a path in a message reads the same
        ours = _outputs(os.path.join(ROOT, "src"), args, work)
        theirs = _outputs(os.path.abspath(args.other_src), args, work)
    differ = [a for a, b in zip(ours, theirs) if a != b]
    if len(ours) != len(theirs):
        differ.append(["operation count", len(ours), len(theirs)])
    for row in differ[:10]:
        print("differs:", *row[:3])
    print(f"{len(ours) - len(differ)} of {len(ours)} operations give the same outputs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
