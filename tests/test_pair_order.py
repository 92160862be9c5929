"""Report bytes do not depend on how the control pairs arrive.

A spec's pairs are sorted once and every report reads that order.  For each
family, with and without a drift pair, the JSON and the ``--text`` report of
`analyze` must come out the same whatever the order and repetition of the
pairs in the spec file, whatever container hands them to ``SystemSpec``, and
whatever ``PYTHONHASHSEED`` the interpreter runs with.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ctrlperm import _textreport, cli
from ctrlperm.specio import _report_text, parse_spec
from ctrlperm.systems import FAMILIES, SystemSpec, analyze
from helpers import shuffled, spanning_tree_pairs

SRC = Path(cli.__file__).resolve().parent.parent
LAYOUTS = {"json": [], "text": ["--text"]}
CASES = [(family, drift) for family in FAMILIES for drift in (False, True)]


def canonical_doc(family, drift):
    """A spec on 11 letters with two planted orbits and a fixed point, pairs sorted."""
    rng = random.Random(f"{family}-{drift}")
    letters = shuffled(rng, range(1, 12))
    pairs = spanning_tree_pairs(rng, letters[:6]) + spanning_tree_pairs(rng, letters[6:10])
    pairs += [tuple(sorted(rng.sample(letters[:6], 2))) for _ in range(3)]
    pairs = sorted(set(pairs))
    doc = {"family": family, "n": 11}
    if drift:
        doc["drift"] = list(pairs.pop(int(rng.random() * len(pairs))))
    doc["controls"] = [list(p) for p in pairs]
    return doc


def file_variants(doc):
    """The canonical document and the same pairs reversed, shuffled and repeated."""
    rng = random.Random(len(doc["controls"]))
    pairs = doc["controls"]
    return {
        "sorted": pairs,
        "reversed": pairs[::-1],
        "repeated": shuffled(rng, pairs * 3),
    }


def containers(pairs):
    """The same pairs in each kind of container the library constructor takes."""
    tuples = [tuple(p) for p in pairs]
    return {
        "list": lambda: list(tuples),
        "reversed tuple": lambda: tuple(tuples[::-1]),
        "frozenset": lambda: frozenset(tuples),
        "set": lambda: set(tuples),
        "generator": lambda: (p for p in tuples[::-1]),
        "lists": lambda: [list(p) for p in tuples[::-1] * 2],
    }


def run_analyze(path, flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["analyze", *flags, path])
    return code, out.getvalue()


def write_variants(tmp_path, family, drift):
    doc = canonical_doc(family, drift)
    paths = {}
    for name, pairs in file_variants(doc).items():
        path = tmp_path / f"{family}-{drift}-{name}.json"
        path.write_text(json.dumps({**doc, "controls": pairs}))
        paths[name] = str(path)
    return doc, paths


@pytest.mark.parametrize("family, drift", CASES)
def test_report_ignores_the_order_and_repetition_of_pairs_in_the_file(tmp_path, family, drift):
    _, paths = write_variants(tmp_path, family, drift)
    for flags in LAYOUTS.values():
        reports = {name: run_analyze(path, flags) for name, path in paths.items()}
        assert len(set(reports.values())) == 1, flags
        code, text = reports["sorted"]
        assert code == 1 and text


@pytest.mark.parametrize("family, drift", CASES)
def test_report_ignores_the_container_handed_to_the_spec(family, drift):
    doc = canonical_doc(family, drift)
    expected = analyze(parse_spec(json.dumps(doc)))
    drift_pair = tuple(doc["drift"]) if drift else None
    for name, make in containers(doc["controls"]).items():
        spec = SystemSpec(family, doc["n"], make(), drift=drift_pair)
        report = analyze(spec)
        assert _report_text(report) == _report_text(expected), name
        assert _textreport._text_report(report) == _textreport._text_report(expected), name


_HASH_SEED_SCRIPT = """
import contextlib, hashlib, io, json, sys
from ctrlperm import _textreport, cli
from ctrlperm.specio import _report_text
from ctrlperm.systems import SystemSpec, analyze

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()

runs = json.loads(sys.stdin.read())
out = []
for path, flags in runs["files"]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["analyze", *flags, path])
    out.append([code, digest(buffer.getvalue())])
for family, n, pairs, drift in runs["specs"]:
    report = analyze(SystemSpec(family, n, frozenset(map(tuple, pairs)), drift and tuple(drift)))
    out.append([digest(_report_text(report)), digest(_textreport._text_report(report))])
print(json.dumps(out))
"""


def test_report_ignores_the_hash_seed(tmp_path):
    files, specs = [], []
    for family, drift in CASES:
        doc, paths = write_variants(tmp_path, family, drift)
        files += [(path, flags) for path in paths.values() for flags in LAYOUTS.values()]
        specs.append((family, doc["n"], doc["controls"], doc.get("drift")))
    runs = json.dumps({"files": files, "specs": specs})
    outputs = []
    for seed in ("0", "1"):
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p), PYTHONHASHSEED=seed)
        env.pop("CTRLPERM_ORACLE_MAX_N", None)
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            input=runs, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]
    # and both equal the reports made in this process
    here = [
        [code, hashlib.sha256(text.encode()).hexdigest()]
        for code, text in (run_analyze(path, flags) for path, flags in files)
    ]
    assert outputs[0][: len(files)] == here
