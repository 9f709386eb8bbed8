"""The experiment scripts run to completion on small settings, and the two
deterministic ones print exactly the output pinned here as sha256 digests."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["worked_examples.py"],
         "4e7fff6993f4f7c64f2bbab50d570f65af9020571ced83d1e15e181de775997c"),
        (["orthogonal_search.py", "--slices", "3"],
         "20c7d254d8f1ea47bfd14956f65129d33aaad9d66ae2e48695264affe0d88b7b"),
        (["antidiagonal_symmetry.py", "--trials", "50"], None),
    ],
    ids=["worked_examples", "orthogonal_search", "antidiagonal_symmetry"],
)
def test_script_exits_zero(argv, digest):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    if digest is not None:
        assert hashlib.sha256(proc.stdout).hexdigest() == digest
