import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctrlperm

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the directory this run imports ctrlperm from: src/ of the checkout, or an
# installed package's site-packages
PACKAGE_PARENT = Path(ctrlperm.__file__).resolve().parent.parent


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    path = [str(PACKAGE_PARENT), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
