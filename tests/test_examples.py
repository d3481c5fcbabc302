"""Every script under ``examples/`` runs to completion.

The examples are documentation that executes: each one is run in a
fresh interpreter against the in-tree sources and must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: Examples too slow for the PR tier (the recursion sweep takes ~35 s).
SLOW = {"social_network_recursion.py"}


def test_examples_are_found():
    assert EXAMPLES and SLOW <= {path.name for path in EXAMPLES}


@pytest.mark.parametrize(
    "script",
    [
        pytest.param(path, marks=pytest.mark.nightly) if path.name in SLOW else path
        for path in EXAMPLES
    ],
    ids=lambda path: path.stem,
)
def test_example_exits_cleanly(script):
    source = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": source + (os.pathsep + path if path else "")}
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
