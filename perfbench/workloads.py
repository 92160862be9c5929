"""Seeded workload generator with planted structure.

Every spec is built from planted blocks: the letters are split into disjoint
blocks, each block gets a random spanning tree plus a few extra edges inside
it, and letters left out of every block are fixed points.  The expected
verdict, orbits, fixed points and closure dimension therefore follow from the
plan alone, without calling the library:

* orbits are the blocks, fixed points are the letters in no block;
* the system is controllable iff one block covers every letter;
* the bracket closure of a rotation family has dimension sum C(k, 2) over the
  blocks, that of an agent family sum (k - 1)^2.

The generator takes the seed as an argument and writes spec and probe files;
the library only ever sees those files.  Block counts and sizes follow a fixed
schedule per workload, so different seeds change which letters and edges are
drawn but hardly how much work an operation is.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

ROTATION = ("so_n", "sphere")
AGENT = ("multi_agent", "markov")
FAMILIES = ROTATION + AGENT


class CheckFailed(Exception):
    """An operation's output differs from the planted expectation."""


def _expect(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Plan:
    """A planted instance: its family, letter count, blocks and pairs."""

    family: str
    n: int
    orbits: tuple  # sorted tuples of letters, ordered by smallest letter
    fixed: tuple
    controls: tuple  # sorted pairs
    drift: tuple | None = None
    dist: tuple | None = None  # markov initial distribution, as Fractions

    @property
    def all_pairs(self):
        pairs = set(self.controls)
        if self.drift is not None:
            pairs.add(self.drift)
        return sorted(pairs)

    @property
    def controllable(self):
        return len(self.orbits) == 1 and not self.fixed

    @property
    def rotation(self):
        return self.family in ROTATION

    def orbit_dim(self, size):
        return comb(size, 2) if self.rotation else (size - 1) ** 2

    @property
    def closure_dim(self):
        return sum(self.orbit_dim(len(o)) for o in self.orbits)

    def label_count(self, size):
        return comb(size, 2) if self.rotation else comb(size, 2) + comb(size, 3)

    def spec_doc(self):
        doc = {"family": self.family, "n": self.n, "controls": [list(p) for p in self.controls]}
        if self.drift is not None:
            doc["drift"] = list(self.drift)
        if self.dist is not None:
            doc["initial_distribution"] = [str(x) for x in self.dist]
        return doc


def _block_sizes(total, blocks):
    """Split ``total`` letters into ``blocks`` sizes that differ by at most one.

    Equal sizes fix the closure dimension of every schedule row, so a seed
    changes the structure drawn but not the amount of bracket work.
    """
    return [total // blocks + (i < total % blocks) for i in range(blocks)]


def plant(rng, family, n, blocks, free=0, extra=0.3, drift=False, dist=False):
    """Draw a planted instance with ``blocks`` orbits and ``free`` fixed letters."""
    if n - free < 2 * blocks:
        raise ValueError(f"cannot fit {blocks} blocks in {n - free} letters")
    letters = list(range(1, n + 1))
    rng.shuffle(letters)
    fixed, rest = sorted(letters[:free]), letters[free:]
    pairs = set()
    orbits = []
    at = 0
    for size in _block_sizes(len(rest), blocks):
        block = rest[at : at + size]
        at += size
        orbits.append(tuple(sorted(block)))
        for i in range(1, size):
            a, b = block[rng.randrange(i)], block[i]
            pairs.add((min(a, b), max(a, b)))
        for _ in range(int(extra * size)):
            a, b = rng.sample(block, 2)
            pairs.add((min(a, b), max(a, b)))
    pairs = sorted(pairs)
    drift_pair = pairs.pop(rng.randrange(len(pairs))) if drift else None
    distribution = None
    if dist:
        weights = [rng.randrange(10) for _ in range(n)]
        weights[rng.randrange(n)] += 1
        distribution = tuple(Fraction(w, sum(weights)) for w in weights)
    return Plan(family, n, tuple(sorted(orbits)), tuple(fixed), tuple(pairs), drift_pair, distribution)


# ---------------------------------------------------------------- checks


def _check_report(doc, plan, oracle, dot, basis):
    """Check a JSON analyze report against the plan."""
    orbits = [list(o) for o in plan.orbits]
    _expect(doc["family"] == plan.family and doc["n"] == plan.n, "family or n")
    _expect(doc["controllable"] == plan.controllable, "verdict")
    _expect(doc["orbits"] == orbits, "orbits")
    _expect(doc["fixed_points"] == list(plan.fixed), "fixed points")
    _expect(doc["min_controls_satisfied"] == (len(plan.all_pairs) >= plan.n - 1), "min controls")
    sub = doc["submanifold"]
    _expect([c["orbit"] for c in sub["components"]] == orbits, "component orbits")
    dims = [
        plan.orbit_dim(len(o)) if plan.rotation or oracle else None for o in plan.orbits
    ]
    _expect([c["dim"] for c in sub["components"]] == dims, "component dims")
    _expect(
        sub["total_dim"] == (None if None in dims else sum(dims)), "total dim"
    )
    _expect(
        [len(c["generators"]) for c in sub["components"]]
        == [plan.label_count(len(o)) for o in plan.orbits],
        "generator labels",
    )
    if plan.dist is not None:
        sums = [
            {"orbit": list(o), "value": str(sum(plan.dist[i - 1] for i in o))}
            for o in plan.orbits
        ]
        frozen = [{"state": j, "value": str(plan.dist[j - 1])} for j in plan.fixed]
        _expect(sub["conserved_sums"] == sums, "conserved sums")
        _expect(sub["frozen_states"] == frozen, "frozen states")
    if oracle:
        expected = {
            "dim": plan.closure_dim,
            "controllable": plan.controllable,
            "orbits": orbits,
            "agrees": True,
        }
        _expect(doc["oracle"] == expected, "oracle")
    else:
        _expect(doc["oracle"] is None, "oracle present without --oracle")
    if dot:
        _expect(doc["dot"] == _expected_dot(plan), "dot")
    if basis:
        _expect(len(doc["closure_basis"]) == plan.closure_dim, "closure basis size")


def _expected_dot(plan):
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(1, plan.n + 1))
    lines.extend(f"  {i} -- {j};" for i, j in plan.all_pairs)
    return "\n".join(lines + ["}"]) + "\n"


def _check_text(out, plan, dot, basis):
    """Check a ``--text`` report: verdict, fixed points, components, extras."""
    lines = out.split("\n")
    verdict = "controllable" if plan.controllable else "not controllable"
    _expect(f"verdict:        {verdict}" in lines, "text verdict")
    fixed = ", ".join(map(str, plan.fixed)) or "none"
    _expect(f"fixed points:   {fixed}" in lines, "text fixed points")
    comps = [line.split()[0] for line in lines if line.startswith("  {")]
    _expect(comps == ["{" + ",".join(map(str, o)) + "}" for o in plan.orbits], "text orbits")
    if dot:
        _expect(_expected_dot(plan) in out, "text dot")
    if basis:
        _, _, grids = out.partition("closure basis:\n")
        _expect(grids.count("\n\n") == plan.closure_dim, "text closure basis size")


def _compare_stdout(plan):
    yes = "yes" if plan.controllable else "no"
    header = f"{'idx':>5}  {'n':>3}  {'m':>3}  {'perm':<7} {'oracle':<7} {'dim':>4}  agree"
    row = (
        f"{0:>5}  {plan.n:>3}  {len(plan.all_pairs):>3}  {yes:<7} {yes:<7} "
        f"{plan.closure_dim:>4}  ok"
    )
    return f"{header}\n{row}\n1/1 agree\n"


def _probe_stdout(plan):
    n = plan.n
    group = "the full symmetric group" if plan.controllable else "a proper subgroup"
    order = prod(factorial(len(o)) for o in plan.orbits)
    verdict = "controllable" if plan.controllable else "not controllable"
    return "\n".join(
        [
            "EXPERIMENTAL: the subgroup statistic below is a conjecture-level"
            " indicator; trust the rank-condition verdict.",
            f"n:               {n}",
            f"generators:      {len(plan.controls)}",
            "permutations:    " + ", ".join(f"({i} {j})" for i, j in plan.controls),
            f"subgroup order:  {order} ({group})",
            f"larc dimension:  {plan.closure_dim} of {n * (n - 1) // 2}",
            f"larc verdict:    {verdict}",
            "",
        ]
    )


def _probe_doc(rng, plan):
    """Probe document: one signed rotation generator per planted pair."""
    grids = []
    for i, j in plan.controls:
        sign = rng.choice((1, -1))
        grid = [[0] * plan.n for _ in range(plan.n)]
        grid[i - 1][j - 1], grid[j - 1][i - 1] = sign, -sign
        grids.append(grid)
    return {"n": plan.n, "generators": grids}


# ---------------------------------------------------------------- operations


@dataclass
class Op:
    """One CLI call: its argv, its kind, and a check of (stdout, exit code)."""

    kind: str
    argv: list
    expect_rc: int
    check: object  # callable(stdout) raising CheckFailed

    def verify(self, out, rc):
        _expect(rc == self.expect_rc, f"exit code {rc}, expected {self.expect_rc}")
        self.check(out)


class _Writer:
    """Writes input files for one workload into a directory."""

    def __init__(self, directory):
        self.directory = directory
        self.count = 0

    def write(self, doc):
        path = os.path.join(self.directory, f"in{self.count:03d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path


def _rc(plan):
    return 0 if plan.controllable else 1


def analyze_op(writer, plan, oracle=False, dot=False, basis=False, text=False):
    argv = ["analyze", writer.write(plan.spec_doc())]
    argv += ["--oracle"] * oracle + ["--dot"] * dot + ["--dump-basis"] * basis + ["--text"] * text
    kind = "analyze" + "".join(
        f"+{flag}" for flag, on in (("oracle", oracle), ("dot", dot), ("basis", basis), ("text", text)) if on
    )

    def check(out):
        if text:
            _check_text(out, plan, dot, basis)
        else:
            _check_report(json.loads(out), plan, oracle, dot, basis)

    return Op(kind, argv, _rc(plan), check)


def compare_op(writer, plan):
    expected = _compare_stdout(plan)

    def check(out):
        _expect(out == expected, "compare table")

    return Op("compare", ["compare", writer.write(plan.spec_doc())], 0, check)


def probe_op(writer, rng, plan):
    expected = _probe_stdout(plan)

    def check(out):
        _expect(out == expected, "probe report")

    return Op("probe", ["probe", writer.write(_probe_doc(rng, plan))], _rc(plan), check)


def gen_op(family, n, m, seed):
    def check(out):
        doc = json.loads(out)
        _expect(doc["family"] == family and doc["n"] == n, "gen family or n")
        pairs = [tuple(p) for p in doc["controls"]]
        _expect(len(pairs) == m and len(set(pairs)) == m, "gen pair count")
        _expect(pairs == sorted(pairs), "gen pair order")
        _expect(all(1 <= i < j <= n for i, j in pairs), "gen pair range")

    return Op("gen", ["gen", family, str(n), str(m), str(seed)], 0, check)


# ---------------------------------------------------------------- workloads
#
# Every pass holds 110 operations, so that at least ten of them lie beyond
# the 90th percentile.  Block sizes are fixed by each schedule row, so a
# seed changes the drawn letters and edges but hardly the cost of a pass.


def orbit_large(rng, writer):
    """40 agent specs, n 30..70, and 70 rotation specs, n 60..300.

    The cost of a rotation spec is mostly the orbit merge (pairs x letters),
    so it grows as n^2.  Costs fall in two tiers: the agent specs and 50
    rotation specs with n 60..90, then 19 rotation specs with n 120..130 and
    one with n = 300, about twice as slow or more.  The median (rank 55) lies
    inside the first tier and the 90th percentile (rank 100) in the middle of
    the second, not at the edge of a tier where the luckiest or unluckiest
    repeat of one operation would decide it.  Specs stay small enough for a
    pass of about a second, so that every operation repeats a few dozen
    times in a run.  Agent blocks keep at most 22 letters because their
    report labels grow as C(k, 3).
    """
    rows = []
    for j in range(40):
        n = 30 + (j * 23) % 41
        rows.append((AGENT[j % 2], n, max(1, n // 15), int(j % 3 == 1)))
    rows += [(ROTATION[j % 2], 60 + (j * 13) % 31, 1 + j % 8, j % 3) for j in range(50)]
    rows += [(ROTATION[j % 2], 120 + (j * 7) % 11, 1 + j % 8, j % 3) for j in range(19)]
    rows.append(("so_n", 300, 8, 0))
    return [
        analyze_op(writer, plant(rng, family, n, blocks, free, drift=family == "markov"))
        for family, n, blocks, free in rows
    ]


# (family, n, blocks, free letters, copies).  88 small specs come first;
# the 21 agent specs at the n = 8 guard cost about twice the dearest of them
# and form the tier that holds the 90th percentile (rank 100); one rotation
# spec at the n = 12 guard tops the pass.  Each closure's cost depends on the
# drawn edges, so the tier is many draws of two rows rather than a few rows,
# and a pass stays short enough for more than ten repeats per run.
_ORACLE_COMPARE = [
    ("so_n", 6, 1, 0, 8), ("so_n", 7, 2, 0, 8), ("so_n", 8, 2, 0, 8),
    ("sphere", 6, 1, 0, 8), ("sphere", 7, 2, 1, 8), ("sphere", 9, 3, 0, 8),
    ("multi_agent", 4, 1, 0, 8), ("multi_agent", 5, 1, 0, 8), ("multi_agent", 6, 2, 0, 8),
    ("markov", 5, 1, 0, 8), ("markov", 7, 2, 0, 8),
    ("markov", 8, 2, 0, 10), ("multi_agent", 8, 2, 0, 11),
    ("so_n", 12, 3, 0, 1),
]


def oracle_compare(rng, writer):
    """Rotation specs n 6..12 and agent specs n 4..8, controllable and not."""
    return [
        compare_op(writer, plant(rng, family, n, blocks, free, drift=family == "markov"))
        for family, n, blocks, free, copies in _ORACLE_COMPARE
        for _ in range(copies)
    ]


def small_mix(rng, writer):
    """88 small documents, then 14 oracle dumps with basis and 8 probes.

    The 22 heavy operations are the slowest of the pass, so the 90th
    percentile lands in their middle.
    """
    ops = []
    for i in range(88):
        family = FAMILIES[i % 4]
        n = 3 + (37 * i) % 38  # 3..40, spread over the pass
        blocks = 1 + i % min(3, n // 2)
        if family in AGENT and n > 24:
            blocks = max(blocks, 2)  # one big agent orbit would outweigh the oracle dumps
        free = (i // 4) % 2 if n - 2 * blocks >= 1 else 0
        if i % 9 == 8:
            ops.append(gen_op(family, n, min(n, comb(n, 2)), rng.randrange(1 << 30)))
            continue
        plan = plant(
            rng, family, n, blocks, free,
            drift=family == "markov" or i % 5 == 0,
            dist=family == "markov" and i % 8 == 3,
        )
        ops.append(analyze_op(writer, plan, dot=i % 4 == 1, text=i % 3 == 1))
    for i in range(14):  # two-orbit agent specs on six letters
        family = AGENT[i % 2]
        plan = plant(rng, family, 6, 2, 0, drift=family == "markov")
        ops.append(analyze_op(writer, plan, oracle=True, basis=True, text=i % 3 == 2))
    for _ in range(8):
        ops.append(probe_op(writer, rng, plant(rng, "so_n", 6, 1, 0, extra=0.0)))
    return ops


WORKLOADS = {
    "orbit_large": orbit_large,
    "oracle_compare": oracle_compare,
    "small_mix": small_mix,
}


def build(name, seed, directory):
    """The operation list of one workload, its inputs written to ``directory``."""
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(seed)
    ops = WORKLOADS[name](rng, _Writer(directory))
    random.Random(seed).shuffle(ops)
    return ops


def self_test(seed):
    """Planted orbits must equal the orbit partition of the absorbing product.

    ``absorbing_product`` is the permutation-level fold the repository keeps
    as an independent oracle; this checks the generator, not the library.
    """
    from ctrlperm.monoid import absorbing_product, orbit_partition

    rng = random.Random(seed)
    for n, blocks, free in itertools.product(range(5, 13), (1, 2), (0, 1)):
        plan = plant(rng, rng.choice(FAMILIES), n, blocks, free, drift=rng.random() < 0.5)
        pairs = plan.all_pairs
        rng.shuffle(pairs)
        part = orbit_partition(absorbing_product(pairs, n))
        _expect(part.sorted_orbits() == plan.orbits, f"planted orbits, n={n}")
        _expect(tuple(sorted(part.fixed_points())) == plan.fixed, f"planted fixed points, n={n}")
