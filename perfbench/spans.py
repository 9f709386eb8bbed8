"""Span recording for the traced run, from outside the program.

``Tracer.installed`` replaces fdist's public functions at the module
attributes where their callers look them up (``fdist.cli.slice_shape``,
``fdist.distance.fuzzy_from_mass``, ``fdist.exactlp.maximize`` and so on)
with wrappers that record a span: name, start, end, parent span and op
id, plus counts taken from the arguments and the result at the same
boundary. Spans stay in memory until ``write``. Self time is a span's
duration minus the time its child spans cover, so the self times of
every span under an op add up to that op's time.
"""

import importlib
import json
import os
import time
from contextlib import contextmanager


def _membership_counts(args, result):
    focals = [f for f, _ in args[0].entries if not isinstance(f, frozenset) and not f.is_empty]
    points = {e for f in focals for p in f.parts for e in (p.lo, p.hi)}
    return {"focals": len(focals), "breakpoints": len(points), "steps": len(result.steps)}


def _lp_counts(args, result):
    c, a = args[0], args[1]
    return {"calls": 1, "vars": len(c), "rows": len(a), "tableau_cells": len(c) * len(a)}


def _table_cells(args, result):
    return {"cells": len(args[0].entries) * len(args[1].entries)}


def hook_points():
    """(module, attribute, span name, counter) for every traced boundary;
    a counter maps (args, result) to counts. Modules come from importlib
    because the package re-exports a function named ``distance`` over its
    submodule of that name."""
    cli, mass, distance, exactlp, specfile = (
        importlib.import_module(f"fdist.{name}")
        for name in ("cli", "mass", "distance", "exactlp", "specfile")
    )

    def density(args, result):
        return {"pieces": len(result.pieces)}

    def slices(args, result):
        return {"calls": 1, "out": len(result.slices)}

    def edges(args, result):
        src, dst = args
        return {"edges": sum(1 for fs, _ in src.entries for fd, _ in dst.entries
                             if mass.focal_issuperset(fs, fd))}

    def parts(args, result):
        return {"parts_out": 0 if isinstance(args[0], frozenset) else len(args[0].parts)}

    return [
        (specfile, "load", "specfile.load", lambda a, r: {"bytes_in": os.path.getsize(a[0])}),
        (specfile, "mass_to_doc", "specfile.to_doc", None),
        (specfile, "fuzzy_to_doc", "specfile.to_doc", None),
        (specfile, "truth_to_doc", "specfile.to_doc", None),
        (specfile, "focal_to_doc", "specfile.to_doc", parts),
        (cli, "fuzzy_from_mass", "mass.membership", _membership_counts),
        (distance, "fuzzy_from_mass", "mass.membership", _membership_counts),
        (cli, "least_prejudiced", "mass.density", density),
        (mass, "least_prejudiced", "mass.density", density),
        (cli, "max_likelihood_interval", "mass.density", None),
        (cli, "centre_of_gravity", "mass.cog", None),
        (cli, "slice_shape", "mass.slice", slices),
        (distance, "slice_shape", "mass.slice", slices),
        (distance, "align_levels", "mass.align", None),
        (cli, "mass_from_discrete", "mass.from_discrete", None),
        (cli, "distance", "distance.distance", lambda a, r: {"focals_out": len(r.mass)}),
        (distance, "assign_product", "distance.cells", _table_cells),
        (distance, "_paired", "distance.cells", lambda a, r: {"cells": len(a[0].slices)}),
        (cli, "unify_product", "unification.product", None),
        (cli, "unify_maximal", "unification.maximal", _table_cells),
        (exactlp, "maximize", "exactlp.maximize", _lp_counts),
        (cli, "reachable_type1", "restriction.reachable", edges),
        (cli, "linear_combination", "restriction.lincomb", None),
    ]


class Tracer:
    """In-memory span list; each span is [name, start, end, parent, op, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    def call(self, name, fn, args, kwargs, counter=None):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1,
               self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            rec[5] = counter(args, result)
        return result

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return traced

    @contextmanager
    def installed(self):
        """Patch every hook point (and MassAssignment construction) for
        the duration of the block."""
        saved = []
        try:
            for module, attr, name, counter in hook_points():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counter))
            cls = importlib.import_module("fdist.mass").MassAssignment
            original_init = cls.__init__
            saved.append((cls, "__init__", original_init))

            def canon(instance, entries, **kwargs):
                entries = list(entries)
                return self.call("mass.canon", original_init, (instance, entries), kwargs,
                                 lambda a, r: {"entries_in": len(entries),
                                               "focals_out": len(instance.entries)})

            cls.__init__ = canon
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def self_times(self):
        """Seconds of each span not covered by its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path, pass_argv):
        """JSON lines, one per span; root spans also carry their op's
        command line, ``pass_argv[op % len(pass_argv)]``."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
                line = {"id": i, "name": name, "start": start, "end": end,
                        "parent": parent, "op": op, "counts": counts or {}}
                if parent < 0:
                    line["argv"] = pass_argv[op % len(pass_argv)]
                handle.write(json.dumps(line) + "\n")


LAYER_METRICS = [
    # (metric, unit, span name, field): field "self" sums self time,
    # "total" sums whole span durations, anything else sums that count
    ("mass.membership_s", "s", "mass.membership", "self"),
    ("mass.membership_focals", "count", "mass.membership", "focals"),
    ("mass.membership_breakpoints", "count", "mass.membership", "breakpoints"),
    ("mass.membership_steps", "count", "mass.membership", "steps"),
    ("mass.density_s", "s", "mass.density", "self"),
    ("mass.density_pieces", "count", "mass.density", "pieces"),
    ("mass.cog_s", "s", "mass.cog", "self"),
    ("mass.slice_s", "s", "mass.slice", "self"),
    ("mass.slice_calls", "count", "mass.slice", "calls"),
    ("mass.slices_out", "count", "mass.slice", "out"),
    ("mass.align_s", "s", "mass.align", "self"),
    ("mass.canon_s", "s", "mass.canon", "self"),
    ("mass.canon_entries_in", "count", "mass.canon", "entries_in"),
    ("mass.canon_focals_out", "count", "mass.canon", "focals_out"),
    ("mass.from_discrete_s", "s", "mass.from_discrete", "self"),
    ("distance.total_s", "s", "distance.distance", "total"),
    ("distance.self_s", "s", "distance.distance", "self"),
    ("distance.cells_s", "s", "distance.cells", "self"),
    ("distance.cells", "count", "distance.cells", "cells"),
    ("distance.focals_out", "count", "distance.distance", "focals_out"),
    ("exactlp.maximize_s", "s", "exactlp.maximize", "self"),
    ("exactlp.maximize_calls", "count", "exactlp.maximize", "calls"),
    ("exactlp.vars", "count", "exactlp.maximize", "vars"),
    ("exactlp.rows", "count", "exactlp.maximize", "rows"),
    ("exactlp.tableau_cells", "count", "exactlp.maximize", "tableau_cells"),
    ("unification.maximal_s", "s", "unification.maximal", "self"),
    ("unification.product_s", "s", "unification.product", "self"),
    ("unification.cells", "count", "unification.maximal", "cells"),
    ("restriction.reachable_s", "s", "restriction.reachable", "self"),
    ("restriction.reachable_edges", "count", "restriction.reachable", "edges"),
    ("restriction.lincomb_s", "s", "restriction.lincomb", "self"),
    ("specfile.load_s", "s", "specfile.load", "self"),
    ("specfile.bytes_in", "count", "specfile.load", "bytes_in"),
    ("specfile.to_doc_s", "s", "specfile.to_doc", "self"),
    ("specfile.bytes_out", "count", "cli.main", "bytes_out"),
    ("intervals.parts_out", "count", "specfile.to_doc", "parts_out"),
    ("cli.self_s", "s", "cli.main", "self"),
]

def layer_totals(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per pass of the mix, summed over all spans."""
    own = tracer.self_times()
    sums: dict = {}
    for (name, start, end, _, _, counts), mine in zip(tracer.spans, own):
        acc = sums.setdefault(name, {})
        acc["self"] = acc.get("self", 0.0) + mine
        acc["total"] = acc.get("total", 0.0) + (end - start)
        for key, value in (counts or {}).items():
            acc[key] = acc.get(key, 0) + value
    out = {}
    for metric, unit, span, field in LAYER_METRICS:
        out[metric] = (sums.get(span, {}).get(field, 0) / passes, unit)
    cells = out["distance.cells"][0]
    out["distance.merge_ratio"] = (out["distance.focals_out"][0] / cells if cells else 0.0, "ratio")
    return out
