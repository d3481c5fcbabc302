"""Every script under ``examples/`` runs to completion.

The examples are documentation that executes: each one is run in a
fresh interpreter against the in-tree sources and must exit 0.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: Lines an example's output must contain.  Table 4's shape: P's naive
#: fixpoint fails (row cap) the two heaviest recursive queries.
EXPECTED_OUTPUT = {
    "social_network_recursion": (r"^q4\*\s+-\s", r"^q5\*\s+-\s"),
}


def test_examples_are_found():
    assert EXAMPLES and set(EXPECTED_OUTPUT) <= {path.stem for path in EXAMPLES}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
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
    for pattern in EXPECTED_OUTPUT.get(script.stem, ()):
        assert re.search(pattern, completed.stdout, re.MULTILINE), pattern
