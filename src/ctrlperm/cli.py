"""Command-line front end.

Exit codes encode the verdict so shell pipelines can branch without parsing
JSON: 0 means controllable (for ``compare``: full agreement), 1 means not
controllable (``compare``: a disagreement), 2 means bad input, a size
guard violation, or an internal error.

Randomized subcommands use Python's Mersenne Twister (MT19937) seeded
explicitly, drawing only from ``Random.random()``, whose output stream for a
given integer seed is stable across platforms and Python versions.

The command line is read in one walk against one table, ``_COMMANDS``, which
also gives the usage lines and the ``--help`` text.  Its grammar is that of
the argparse parser it replaced (as CPython 3.11 reads it), so every command
line gives the same fields, help or usage error as before:

- options may come anywhere after the command;
- a unique prefix of a long option names it (``--ora``), and an ambiguous
  one (``--d``) is a usage error;
- ``--`` ends the options; it is itself an unrecognized argument when every
  positional came before the last option (``analyze a --oracle --``);
- a token matching ``^-\\d+$|^-\\d*\\.\\d+$`` is a value, not an option, and so
  is a lone ``-``: ``gen so_n 5 -1 3`` reaches ``m must be nonnegative``;
- ints are read by ``int(token)``, so `` 5`` and ``5_0`` are accepted, and
  ``gen``'s family is one of ``FAMILIES``;
- ``--json`` and ``--text`` exclude each other; ``compare`` takes an
  optional spec path, and ``--random`` exactly four ints;
- ``-h``/``--help`` works at the top level and after each command, and exits
  0; ``--version`` works at the top level only.

Help, the version and a usage error take effect where they stand, so an
error before ``-h`` wins and an unknown option or a missing positional does
not; an ambiguous option wins wherever it stands.  A usage error writes a
``usage: ctrlperm ...`` line and a ``ctrlperm CMD: error: ...`` line to stderr
and raises ``SystemExit(2)``.  One reading differs: argparse handed a
positional whose token is a second ``--`` an empty list, on which ``gen``
crashed (exit 2); here that token is an int like any other, and a usage
error.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import random
import re
import sys
from types import SimpleNamespace

from .specio import (
    SpecFormatError,
    _component_letters,
    _orbit_letters,
    _report_text,
    _spec_text,
    _sum_texts,
    # canonical_json, report_to_dict and spec_to_dict are not called here:
    # perfbench/tracing.py wraps these three globals
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
# random() returns a multiple of 2**-53
_FLOAT_EXACT = 2**53


# graphview loads with the first --dot.  Both forwarders stay globals of this
# module and never rebind themselves, because perfbench/tracing.py wraps them here.
def control_graph(spec):
    """Forwarder to :func:`ctrlperm.graphview.control_graph`."""
    from . import graphview

    return graphview.control_graph(spec)


def to_dot(graph):
    """Forwarder to :func:`ctrlperm.graphview.to_dot`."""
    from . import graphview

    return graphview.to_dot(graph)


def _oracle_max_n():
    raw = os.environ.get(ORACLE_MAX_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise SpecFormatError(f"{ORACLE_MAX_ENV} must be an integer, got {raw!r}")


def _read(path):
    """The text of the file at ``path``, as ``open(path, encoding="utf-8").read()`` gives it.

    The bytes come in one unbuffered read and are decoded in one call, so an
    invalid byte is reported at its position in the file.  Text mode's
    universal newlines are applied only to a text that holds a carriage
    return: a CRLF or CR spec reads, and its JSON errors point, as an LF one.
    """
    try:
        with open(path, "rb", buffering=0) as handle:
            data = handle.read()
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}")
    text = data.decode()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _sample_pairs(rng, n, m):
    """Draw m distinct index pairs uniformly, using only rng.random().

    Each draw picks an index among the pairs not yet drawn, in lexicographic
    order, as if popping it from the list of all n(n-1)/2 pairs; that list is
    never built.  The index becomes a rank by skipping the ranks already
    drawn, and the rank becomes the pair (i, j).  Up to 2**53 pairs left, the
    index is ``int(random() * left)``; beyond, that would reach only
    float-spaced indices, so the index is built from several draws.
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
        if left <= _FLOAT_EXACT:
            idx = min(int(rng.random() * left), left - 1)
        else:
            # random() has 53 bits, too few to reach every index: join k draws
            # into one exact fraction r / 2**(53k) with 53 bits to spare
            k = (left.bit_length() + 105) // 53
            r = 0
            for _ in range(k):
                r = r << 53 | int(rng.random() * _FLOAT_EXACT)
            idx = r * left >> 53 * k
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
    letters, _, class_text = _orbit_letters(report)
    lines = [
        f"family:         {spec.family}",
        f"n:              {spec.n}",
        f"controls:       {_format_pairs(sorted(spec.controls))}",
        f"drift:          {_format_pairs([spec.drift]) if spec.drift else 'none'}",
        f"verdict:        {'controllable' if report.controllable else 'not controllable'}",
        f"orbit class:    {class_text}",
        f"fixed points:   {', '.join(map(str, report.fixed_points)) or 'none'}",
        f"min controls:   {'satisfied' if report.min_controls_satisfied else 'NOT satisfied'}"
        f" (needs >= {spec.n - 1})",
        f"state space:    {report.submanifold.state_space}",
    ]
    if report.submanifold.components:
        lines.append("components:")
        for comp, texts in _component_letters(report, letters):
            dim = "dim ?" if comp.dim is None else f"dim {comp.dim}"
            orbit = "{" + ",".join(texts) + "}"
            lines.append(f"  {orbit}  {dim}  {comp._label_text(' ', texts)}")
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
    grids = None
    if args.dump_basis:
        oracle = report.oracle or oracle_check(spec, report.method_class, max_n=max_n)
        grids = oracle.closure._grids()
    if args.text:
        sys.stdout.write(_render_text(report))
        if args.dot:
            sys.stdout.write(to_dot(control_graph(spec)))
        if args.dump_basis:
            sys.stdout.write("closure basis:\n")
            for grid in grids:
                sys.stdout.write(grid + "\n\n")
    else:
        # written in one pass, with the labels and control pairs written once
        dot = to_dot(control_graph(spec)) if args.dot else None
        sys.stdout.write(_report_text(report, dot, grids))
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
            print("  " + _spec_text(spec).replace("\n", "\n  ").rstrip())
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
    sys.stdout.write(_spec_text(spec))
    return 0


# The command line, one row per command: its handler, its help, its
# positionals and its options; the parser, the usage lines and the help all
# read these rows.  A positional is (name, conversion, required, help), where
# the conversion is str for a path, int, or the tuple of the allowed words.
# An option is (flag, metavars, help): a flag without metavars is False until
# given, and each metavar takes one int.  The flags in a row's last tuple
# exclude each other.
_COMMANDS = {
    "analyze": (
        _cmd_analyze,
        "analyze one spec file",
        (("spec", str, True, "path to a spec JSON file"),),
        (
            ("--oracle", (), "also run the exact rank oracle"),
            ("--dot", (), "emit the control graph as DOT"),
            ("--dump-basis", (), "emit the bracket-closure basis as rational grids"),
            ("--json", (), "JSON report on stdout (default)"),
            ("--text", (), "human-readable report"),
        ),
        ("--json", "--text"),
    ),
    "compare": (
        _cmd_compare,
        "cross-validate the two methods",
        (("spec", str, False, "path to a spec JSON file"),),
        (
            (
                "--random",
                ("N", "M", "SEED", "COUNT"),
                "compare on COUNT random so_n specs with M pairs on N letters",
            ),
        ),
        (),
    ),
    "probe": (
        _cmd_probe,
        "experimental subgroup probe for nonstandard generators",
        (("spec", str, True, "path to a probe JSON file with matrix generators"),),
        (),
        (),
    ),
    "gen": (
        _cmd_gen,
        "generate a random spec file on stdout",
        (
            ("family", FAMILIES, True, "the system family"),
            ("n", int, True, "number of letters"),
            ("m", int, True, "number of control pairs"),
            ("seed", int, True, "seed of the draw"),
        ),
        (),
        (),
    ),
}


def _dest(flag):
    """The field that a long flag sets: ``--dump-basis`` sets ``dump_basis``."""
    return flag[2:].replace("-", "_")


_HELP = {"-h": "help", "--help": "help"}
# each flag names "help", "version" or its metavars
_TOP_FLAGS = {**_HELP, "--version": "version"}
# the top level's one positional, whose value picks the row read after it
_TOP_POSITIONALS = (("command", _COMMANDS, True, None),)
_FLAGS = {
    name: {**_HELP, **{flag: metavars for flag, metavars, _ in row[3]}}
    for name, row in _COMMANDS.items()
}
_DEFAULTS = {
    name: {
        **{pos[0]: None for pos in row[2]},
        **{_dest(flag): None if metavars else False for flag, metavars, _ in row[3]},
    }
    for name, row in _COMMANDS.items()
}
# a token like these is a value, not an option
_NUMBER = r"^-\d+$|^-\d*\.\d+$"


class _Stop(Exception):
    """Ends parsing with exit ``code``: 0 for ``text`` "help" or "version", or a usage error.

    ``command`` is the command read before it, or None at the top level.
    """

    def __init__(self, code, text, command):
        super().__init__(text)
        self.code, self.text, self.command = code, text, command


def _option(token, flags, command):
    """The flag that ``token`` names among ``flags`` with its ``=`` value, or None.

    None means the token is a value.  An unknown option gives ``(None, None)``.
    A unique prefix of a long flag names it, and an ambiguous one is a usage
    error; ``-hh`` is ``-h`` with the value ``h``.
    """
    if token in flags:
        return token, None
    if token[:1] != "-" or len(token) == 1:
        return None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return name, value
    if token[1] != "-":
        if token[:2] in flags:
            return token[:2], token[2:]
    else:
        hits = [flag for flag in flags if flag.startswith(name)]
        # "--=" is ambiguous even to a command with one long flag: argparse
        # reads every token against --help and --version first
        if len(hits) == 1 and name != "--":
            return hits[0], value if eq else None
        if hits:
            raise _Stop(2, f"ambiguous option: {token} could match {', '.join(hits)}", command)
    if re.match(_NUMBER, token) or " " in token:
        return None
    return None, None


def _value(name, convert, token, command):
    """``token`` read as the value of ``name``: itself, an int, or one of the allowed words."""
    if convert is int:
        try:
            return int(token)
        except ValueError:
            raise _Stop(2, f"argument {name}: invalid int value: {token!r}", command) from None
    if convert is not str and token not in convert:
        choices = ", ".join(map(repr, convert))
        raise _Stop(2, f"argument {name}: invalid choice: {token!r} (choose from {choices})", command)
    return token


def _walk(argv):
    """The handler and arguments that ``argv`` asks for; a :class:`_Stop` otherwise.

    One walk over ``argv``, against the top level's flags until the command
    is read and against the command's row after it.  Help, the version and
    the first usage error end parsing where they stand, but only once the
    rest of ``argv`` is known to hold no ambiguous option; an unknown option
    or a missing positional is reported only at the end.
    """
    command = handler = None
    flags, positionals, exclusive, values = _TOP_FLAGS, _TOP_POSITIONALS, (), {}
    extras = []
    filled = at_option = 0  # positionals given so far, and before the last option
    chosen = stop = None
    rest = False  # after "--" every token is a value
    at, end = 0, len(argv)
    while at < end:
        token = argv[at]
        at += 1
        if rest:
            hit = None
        elif token == "--":
            rest = True
            if command is not None:
                # argparse keeps this "--" as an extra argument when every
                # positional came before the last option
                if at_option == len(positionals):
                    extras.append(token)
                continue
            hit = None  # before the command, argparse reads "--" as the command
        else:
            hit = _option(token, flags, command)
        if stop is not None:
            continue  # only looking for an ambiguous option
        try:
            if hit is None:
                if filled == len(positionals):
                    extras.append(token)
                elif command is None:
                    command = _value("command", _COMMANDS, token, None)
                    handler, _, positionals, _, exclusive = _COMMANDS[command]
                    flags, values = _FLAGS[command], dict(_DEFAULTS[command])
                else:
                    name, convert, _, _ = positionals[filled]
                    filled += 1
                    values[name] = _value(name, convert, token, command)
                continue
            flag, value = hit
            if flag is None:
                extras.append(token)
                continue
            at_option = filled
            # a flag takes no "=" value, but -hh and -h=h are -h
            if value is not None and (flag != "-h" or not value or value.strip("h")):
                raise _Stop(2, f"argument {flag}: ignored explicit argument {value!r}", command)
            metavars = flags[flag]
            if metavars in ("help", "version"):
                raise _Stop(0, metavars, command)
            if not metavars:
                if flag in exclusive:
                    if chosen not in (None, flag):
                        raise _Stop(2, f"argument {flag}: not allowed with argument {chosen}", command)
                    chosen = flag
                values[_dest(flag)] = True
                continue
            taken = argv[at : at + len(metavars)]
            if len(taken) < len(metavars) or any(t == "--" or _option(t, flags, command) for t in taken):
                raise _Stop(2, f"argument {flag}: expected {len(metavars)} arguments", command)
            at += len(metavars)
            values[_dest(flag)] = [_value(flag, int, t, command) for t in taken]
        except _Stop as exc:
            stop = exc
    if stop is not None:
        raise stop
    missing = [name for name, _, required, _ in positionals[filled:] if required]
    if missing:
        raise _Stop(2, "the following arguments are required: " + ", ".join(missing), command)
    if extras:
        raise _Stop(2, "unrecognized arguments: " + " ".join(extras), command)
    return handler, SimpleNamespace(**values)


def _parse(argv):
    """The handler and arguments that ``argv`` asks for.

    Help and the version go to stdout and raise ``SystemExit(0)``; a usage
    error writes a usage line and an ``error:`` line to stderr and raises
    ``SystemExit(2)``.
    """
    try:
        return _walk(argv)
    except _Stop as stop:
        from . import _clihelp  # only on this path, to keep start-up lean

        raise SystemExit(_clihelp.report(stop)) from None


def main(argv=None):
    handler, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
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
