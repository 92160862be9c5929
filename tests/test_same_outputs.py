"""tools/same_outputs.py tells equal source trees from unequal ones."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"


def _compare(other):
    return subprocess.run(
        [sys.executable, str(TOOL), str(other), "--seeds", "303", "--workloads", "small_mix"],
        capture_output=True, text=True, timeout=300,
    )


def test_same_outputs_tells_a_copy_from_an_edited_copy(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    same = _compare(copy)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.endswith("110 of 110 operations give the same outputs\n")
    version = copy / "ctrlperm" / "_version.py"
    version.write_text(version.read_text().replace('"', '"edited-', 1))
    edited = _compare(copy)
    assert edited.returncode == 1, edited.stdout + edited.stderr
    assert "differs: small_mix 303" in edited.stdout
