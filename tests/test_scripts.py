"""The experiment scripts run to completion on small settings and print
exactly the output pinned here as sha256 digests."""

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
        (["orthogonal_search.py", "--slices", "4"],
         "8b416d0abba2191ae1664261ca975ec59c6f4f744d9293874db6bd94683b8358"),
        (["antidiagonal_symmetry.py", "--trials", "50"],
         "44005ab7bb56492ce5ea7d2df79b58a1050ec027ad7d657b09dd015ad068d543"),
    ],
    ids=["worked_examples", "orthogonal_search", "orthogonal_search_4", "antidiagonal_symmetry"],
)
def test_script_exits_zero(argv, digest):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
