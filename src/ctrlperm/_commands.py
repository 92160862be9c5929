"""The ``compare``, ``probe`` and ``gen`` commands, loaded with the first of them.

A plain ``analyze`` never compiles this module.  Each handler looks up
``cli.parse_spec``, ``cli.parse_probe``, ``cli.oracle_check`` and
``cli.probe_nonstandard`` when called, so a name rebound on ``cli`` (as
``perfbench/tracing.py`` and the tests rebind them) is the one these
commands call.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import sys

from . import cli
from .specio import SpecFormatError, _spec_text
from .systems import SystemSpec, check_oracle_size

# random() returns a multiple of 2**-53
_FLOAT_EXACT = 2**53


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


def _cmd_compare(args):
    max_n = cli._oracle_max_n()
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
        spec = cli.parse_spec(cli._read(args.spec))
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
        oracle = cli.oracle_check(spec, method_class, max_n=max_n)
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
    n, generators = cli.parse_probe(cli._read(args.spec))
    result = cli.probe_nonstandard(generators, max_n=cli._oracle_max_n())
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
