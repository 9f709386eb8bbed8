"""The traced benchmark run wraps fdist functions at the module attributes
listed by ``perfbench/spans.py``; each must still exist and be callable,
and each hook's counter must still count."""

import io
from contextlib import redirect_stdout
from pathlib import Path

from fdist.cli import main
from helpers import perfbench_module


def test_every_hook_point_resolves_to_a_callable():
    points = perfbench_module("spans").hook_points()
    assert points
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in points
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


DATA = Path(__file__).resolve().parent.parent / "data" / "worked_sets.json"

# One small op per command, together passing every hook that has a counter.
OPS = [
    ["mass", "A", "--slices", "2"],
    ["mass", "claim"],
    ["distance", "A", "B", "--slices", "4"],
    ["distance", "subA", "narrowB"],
    ["defuzz", "narrowA"],
    ["unify", "claim", "evidence"],
    ["restrict-check", "prod2", "--basis", "diag2,anti2"],
]


def test_every_counter_counts_under_the_tracer():
    # A counter reads fdist on its own (the reachability counter calls
    # fdist.mass.focal_issuperset), so a counter can drift from the code
    # while its hook still resolves.
    spans = perfbench_module("spans")
    tracer = spans.Tracer()
    with tracer.installed():
        for command, *rest in OPS:
            with redirect_stdout(io.StringIO()):
                assert main([command, str(DATA), *rest]) == 0, command
    counted = {name for _, _, name, counter in spans.hook_points() if counter}
    seen = {name for name, *_, counts in tracer.spans if counts}
    assert counted - seen == set()


def test_traced_distance_records_membership_and_emitter_spans():
    # Membership runs in the result's key space; its span must still be
    # recorded with its counts, not folded into distance.cells.
    spans = perfbench_module("spans")
    for argv in (["A", "B", "--slices", "4"], ["A", "B", "--slices", "4", "--strategy", "product"]):
        tracer = spans.Tracer()
        with tracer.installed():
            with redirect_stdout(io.StringIO()):
                assert main(["distance", str(DATA), *argv]) == 0
        names = [name for name, *_ in tracer.spans]
        membership = [counts for name, *_, counts in tracer.spans if name == "mass.membership"]
        assert len(membership) == 1
        assert all(membership[0][key] > 0 for key in ("focals", "breakpoints", "steps"))
        # mass_to_doc, the focal_to_doc calls it makes and fuzzy_to_doc
        assert names.count("specfile.to_doc") > 1
        own = dict(zip(names, tracer.self_times()))
        assert own["mass.membership"] > 0
