"""The experiment scripts run to completion on small settings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["worked_examples.py"],
        ["orthogonal_search.py", "--slices", "3"],
        ["antidiagonal_symmetry.py", "--trials", "50"],
    ],
    ids=["worked_examples", "orthogonal_search", "antidiagonal_symmetry"],
)
def test_script_exits_zero(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
