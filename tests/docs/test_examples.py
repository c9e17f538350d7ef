"""The example scripts stay runnable: each ``examples/*.py`` runs to exit 0.

The examples assert their own results (rewritten against unrewritten
answers, Table 5 shapes), so a script that runs is a script whose claims
still hold.  Each runs in a fresh interpreter with ``PYTHONPATH=src``, the
way the README tells readers to run them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_exist() -> None:
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_runs(script: Path) -> None:
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, (
        f"{script.name} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
    )
