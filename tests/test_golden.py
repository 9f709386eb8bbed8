"""Golden CLI output: every fdist command on data/worked_sets.json.

Each case is one argv; its digest is sha256 over the exit status, stdout
and stderr of an in-process ``fdist.cli.main`` call. The digests in
``golden_cli.json`` pin the output byte for byte, so a refactor that
changes any number, message or strategy name fails here.

Regenerate the file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from fdist.cli import main
from fdist.mass import NumericFuzzySet, _Keyed

ROOT = Path(__file__).resolve().parent.parent
SPEC = "data/worked_sets.json"
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
STRATEGIES = (None, "product", "diagonal", "antidiagonal")


def _sets():
    sets = json.loads((ROOT / SPEC).read_text(encoding="utf-8"))["sets"]
    return [(s["name"], s["kind"]) for s in sets]


def cases() -> list:
    """Every argv of the matrix, with the spec path relative to the repo."""
    sets = _sets()
    names = [n for n, _ in sets]
    points = [n for n, k in sets if k == "points"]
    numeric = [n for n, k in sets if k != "discrete"]
    masses = [n for n, k in sets if k == "mass"]
    out = [["mass", SPEC, n] for n in names]
    out += [["mass", SPEC, n, "--slices", "3"] for n in points]
    out += [["defuzz", SPEC, n] for n in names]
    for a in numeric:
        for b in numeric:
            for strategy in STRATEGIES:
                for directional in (False, True):
                    argv = ["distance", SPEC, a, b]
                    if strategy:
                        argv += ["--strategy", strategy]
                    if directional:
                        argv.append("--directional")
                    out.append(argv)
    for a in points:
        for b in points:
            out.append(["distance", SPEC, a, b, "--slices", "5"])
            out.append(["distance", SPEC, a, b, "--plot-step", "0.25"])
    out += [["unify", SPEC, a, g] for a in names for g in names]
    for target in masses:
        basis = ",".join(n for n in masses if n != target)
        out.append(["restrict-check", SPEC, target, "--basis", basis])
    return out


def digest(argv: list) -> str:
    """sha256 of [exit status, stdout, stderr] for one in-process run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    real = [str(ROOT / a) if a == SPEC else a for a in argv]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(real)
    blob = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


COMMANDS = ("mass", "defuzz", "distance", "unify", "restrict-check")


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_golden(command):
    golden = {k: v for k, v in _golden().items() if k.split(" ", 1)[0] == command}
    argvs = [argv for argv in cases() if argv[0] == command]
    assert sorted(" ".join(a) for a in argvs) == sorted(golden)
    changed = [" ".join(a) for a in argvs if digest(a) != golden[" ".join(a)]]
    assert not changed, f"{len(changed)} outputs changed, e.g. {changed[:5]}"


def test_commands_build_no_view(monkeypatch):
    # every value lives as keys from the reader through the writer: across
    # the whole matrix no stack, fuzzy set or assignment of either kind
    # builds its view, unify's label table included
    built, command = Counter(), None

    def counted(original):
        def build(self):
            built[type(self).__name__, command] += 1
            return original(self)
        return build

    for cls in (_Keyed, NumericFuzzySet):
        monkeypatch.setattr(cls, "_build", counted(cls._build))
    golden = _golden()
    changed = []
    for argv in cases():
        command = argv[0]
        if digest(argv) != golden[" ".join(argv)]:
            changed.append(" ".join(argv))
    assert not changed, f"{len(changed)} outputs changed, e.g. {changed[:5]}"
    assert built == {}


def test_matrix_covers_every_command():
    assert {argv[0] for argv in cases()} == set(COMMANDS)
    assert len(cases()) == len(_golden())


if __name__ == "__main__":
    table = {" ".join(argv): digest(argv) for argv in cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
