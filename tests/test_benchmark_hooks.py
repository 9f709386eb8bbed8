"""The traced benchmark run wraps fdist functions at the module attributes
listed by ``perfbench/spans.py``; each must still exist and be callable."""

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
