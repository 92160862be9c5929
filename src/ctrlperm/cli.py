"""Command-line front end.

Exit codes encode the verdict so shell pipelines can branch without parsing
JSON: 0 means controllable (for ``compare``: full agreement), 1 means not
controllable (``compare``: a disagreement), 2 means bad input, a size
guard violation, or an internal error.

Randomized subcommands use Python's Mersenne Twister (MT19937) seeded
explicitly, drawing only from ``Random.random()``, whose output stream for a
given integer seed is stable across platforms and Python versions.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import itertools
import math
import os
import random
import sys

from ._version import __version__
from .graphview import control_graph, to_dot
from .specio import (
    SpecFormatError,
    _sum_texts,
    canonical_json,
    parse_probe,
    parse_spec,
    report_to_dict,
    spec_to_dict,
)
from .systems import (
    FAMILIES,
    SystemSpec,
    _label_count,
    analyze,
    check_oracle_size,
    oracle_check,
    probe_nonstandard,
)

ORACLE_MAX_ENV = "CTRLPERM_ORACLE_MAX_N"
# The most generator labels an analyze report may list.  A k-letter orbit lists
# C(k,2) of them, or C(k,2) + C(k,3) in an agent family, so a spec of a few KB
# can ask for gigabytes; past the cap the report is refused before any label is
# built.  Just under it, the JSON report of a so_n path on 4472 letters is
# 275 MB and peaks at 0.81 GB resident, and that of a multi_agent path on 391
# letters is 300 MB and peaks at 0.59 GB (CPython 3.11.7, x86_64).
REPORT_MAX_LABELS = 10**7


def _oracle_max_n():
    raw = os.environ.get(ORACLE_MAX_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise SpecFormatError(f"{ORACLE_MAX_ENV} must be an integer, got {raw!r}")


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}")


def _sample_pairs(rng, n, m):
    """Draw m distinct index pairs uniformly, using only rng.random().

    Each draw picks an index among the pairs not yet drawn, in lexicographic
    order, as if popping it from the list of all n(n-1)/2 pairs; that list is
    never built.  The index becomes a rank by skipping the ranks already
    drawn, and the rank becomes the pair (i, j).
    """
    if m < 0:
        raise SpecFormatError(f"m must be nonnegative, got {m}")
    total = n * (n - 1) // 2 if n > 1 else 0
    if m > total:
        raise SpecFormatError(f"m={m} exceeds the {total} available pairs for n={n}")
    drawn = []  # ranks drawn so far, sorted
    chosen = []
    for _ in range(m):
        left = total - len(drawn)
        idx = min(int(rng.random() * left), left - 1)
        # drawn[at] - at ranks below drawn[at] are undrawn, so the ranks drawn
        # below the idx-th undrawn one are those with drawn[at] - at <= idx
        below = bisect.bisect_right(range(len(drawn)), idx, key=lambda at: drawn[at] - at)
        rank = idx + below
        drawn.insert(below, rank)
        # the last t rows, i = n-t .. n-1, hold the last t(t+1)/2 ranks
        t = (math.isqrt(8 * (total - 1 - rank) + 1) + 1) // 2
        chosen.append((n - t, n + 1 + rank - total + t * (t - 1) // 2))
    return chosen


def _format_pairs(pairs):
    return " ".join(f"({i},{j})" for i, j in pairs) if pairs else "none"


def _render_text(report):
    spec = report.spec
    lines = [
        f"family:         {spec.family}",
        f"n:              {spec.n}",
        f"controls:       {_format_pairs(sorted(spec.controls))}",
        f"drift:          {_format_pairs([spec.drift]) if spec.drift else 'none'}",
        f"verdict:        {'controllable' if report.controllable else 'not controllable'}",
        f"orbit class:    {report.method_class}",
        f"fixed points:   {', '.join(map(str, report.fixed_points)) or 'none'}",
        f"min controls:   {'satisfied' if report.min_controls_satisfied else 'NOT satisfied'}"
        f" (needs >= {spec.n - 1})",
        f"state space:    {report.submanifold.state_space}",
    ]
    if report.submanifold.components:
        lines.append("components:")
        for comp in report.submanifold.components:
            dim = "dim ?" if comp.dim is None else f"dim {comp.dim}"
            orbit = "{" + ",".join(map(str, comp.orbit)) + "}"
            lines.append(f"  {orbit}  {dim}  {comp._label_text(' ')}")
    total = report.submanifold.total_dim
    lines.append(f"total dim:      {'?' if total is None else total}")
    if report.submanifold.conserved_sums is not None:
        for orbit, value in _sum_texts(report.submanifold):
            lines.append(
                "conserved sum:  {" + ",".join(map(str, orbit)) + "} = " + value
            )
        for state, value in report.submanifold.frozen_states:
            lines.append(f"frozen state:   {state} = {value}")
    if report.oracle is not None:
        o = report.oracle
        lines.append(
            f"oracle:         dim {o.dim}, "
            f"{'controllable' if o.controllable else 'not controllable'}, "
            f"{'agrees' if o.agrees else 'DISAGREES'}"
        )
    return "\n".join(lines) + "\n"


def _cmd_analyze(args):
    spec = parse_spec(_read(args.spec))
    # only the oracle and the basis dump are guarded, so only they read the override
    max_n = _oracle_max_n() if args.oracle or args.dump_basis else None
    report = analyze(spec, with_oracle=args.oracle, oracle_max_n=max_n)
    labels = _label_count(report)
    if labels > REPORT_MAX_LABELS:
        raise ValueError(
            f"the report would list {labels} generator labels, more than the cap of"
            f" {REPORT_MAX_LABELS}"
        )
    if args.dump_basis:
        oracle = report.oracle or oracle_check(spec, report.method_class, max_n=max_n)
        basis = oracle.closure.basis
    if args.text:
        sys.stdout.write(_render_text(report))
        if args.dot:
            sys.stdout.write(to_dot(control_graph(spec)))
        if args.dump_basis:
            sys.stdout.write("closure basis:\n")
            for m in basis:
                sys.stdout.write(m.format_grid() + "\n\n")
    else:
        # labels and control pairs are written once, by canonical_json
        doc = report_to_dict(report, _written=True)
        if args.dot:
            doc["dot"] = to_dot(control_graph(spec))
        if args.dump_basis:
            doc["closure_basis"] = [m.format_grid() for m in basis]
        sys.stdout.write(canonical_json(doc))
    return 0 if report.controllable else 1


def _cmd_compare(args):
    max_n = _oracle_max_n()
    if args.random is not None and args.spec is not None:
        raise SpecFormatError("compare takes a spec path or --random N M SEED COUNT, not both")
    if args.random is not None:
        n, m, seed, count = args.random
        if count < 1:
            raise SpecFormatError(f"COUNT must be positive, got {count}")
        # refuse before drawing, and before the header, so a refused run
        # neither samples nor prints anything
        check_oracle_size("so_n", n, max_n)
        rng = random.Random(seed)
        specs = (
            SystemSpec("so_n", n, frozenset(_sample_pairs(rng, n, m)))
            for _ in range(count)
        )
        # each spec is drawn just before its row; the first one before the
        # header, so a bad N or M, shared by every draw, prints nothing
        specs = itertools.chain([next(specs)], specs)
    elif args.spec is not None:
        spec = parse_spec(_read(args.spec))
        check_oracle_size(spec.family, spec.n, max_n)
        specs, count = [spec], 1
    else:
        raise SpecFormatError("compare needs a spec path or --random N M SEED COUNT")
    agreements = 0
    header = f"{'idx':>5}  {'n':>3}  {'m':>3}  {'perm':<7} {'oracle':<7} {'dim':>4}  agree"
    print(header)
    for idx, spec in enumerate(specs):
        # the table needs only the permutation verdict, not a full report
        method_class = spec.orbit_class()
        oracle = oracle_check(spec, method_class, max_n=max_n)
        agree = oracle.agrees
        agreements += agree
        print(
            f"{idx:>5}  {spec.n:>3}  {len(spec.all_pairs):>3}  "
            f"{'yes' if method_class.is_full() else 'no':<7} "
            f"{'yes' if oracle.controllable else 'no':<7} "
            f"{oracle.dim:>4}  {'ok' if agree else 'DISAGREEMENT'}"
        )
        if not agree:
            print("  reproduce with spec:")
            print("  " + canonical_json(spec_to_dict(spec)).replace("\n", "\n  ").rstrip())
    print(f"{agreements}/{count} agree")
    return 0 if agreements == count else 1


def _cmd_probe(args):
    n, generators = parse_probe(_read(args.spec))
    result = probe_nonstandard(generators, max_n=_oracle_max_n())
    print(
        "EXPERIMENTAL: the subgroup statistic below is a conjecture-level"
        " indicator; trust the rank-condition verdict."
    )
    print(f"n:               {n}")
    print(f"generators:      {len(generators)}")
    print("permutations:    " + ", ".join(str(p) for p in result.permutation_images))
    group_note = "the full symmetric group" if result.subgroup_is_full_symmetric else "a proper subgroup"
    print(f"subgroup order:  {result.subgroup_order} ({group_note})")
    print(f"larc dimension:  {result.larc_dim} of {n * (n - 1) // 2}")
    print(
        "larc verdict:    "
        + ("controllable" if result.larc_controllable else "not controllable")
    )
    return 0 if result.larc_controllable else 1


def _cmd_gen(args):
    rng = random.Random(args.seed)
    pairs = _sample_pairs(rng, args.n, args.m)
    spec = SystemSpec(args.family, args.n, frozenset(pairs))
    sys.stdout.write(canonical_json(spec_to_dict(spec)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ctrlperm",
        description=(
            "Decide controllability of right-invariant bilinear systems by orbit"
            " merging on index pairs, with an exact Lie-algebra rank oracle for"
            " cross-validation. Exit codes: 0 controllable / full agreement,"
            " 1 not controllable / disagreement, 2 input error."
        ),
    )
    parser.add_argument("--version", action="version", version=f"ctrlperm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one spec file")
    p.add_argument("spec", help="path to a spec JSON file")
    p.add_argument("--oracle", action="store_true", help="also run the exact rank oracle")
    p.add_argument("--dot", action="store_true", help="emit the control graph as DOT")
    p.add_argument(
        "--dump-basis",
        action="store_true",
        help="emit the bracket-closure basis as rational grids",
    )
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report on stdout (default)")
    fmt.add_argument("--text", action="store_true", help="human-readable report")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="cross-validate the two methods")
    p.add_argument("spec", nargs="?", help="path to a spec JSON file")
    p.add_argument(
        "--random",
        nargs=4,
        type=int,
        metavar=("N", "M", "SEED", "COUNT"),
        help="compare on COUNT random so_n specs with M pairs on N letters",
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("probe", help="experimental subgroup probe for nonstandard generators")
    p.add_argument("spec", help="path to a probe JSON file with matrix generators")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("gen", help="generate a random spec file on stdout")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int, help="number of control pairs")
    p.add_argument("seed", type=int)
    p.set_defaults(func=_cmd_gen)

    return parser


@functools.cache
def _parser():
    """The process's parser, built on the first call of :func:`main`.

    Building it costs about as much as analyzing a small spec, and nothing in
    it changes between calls: each call still gets its own namespace, reads
    the environment afresh and looks up the library functions at call time.
    """
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means "not controllable"; a crash must never read as that
        import traceback  # only on this path, to keep start-up lean

        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
