"""fdist benchmark: seeded closed-loop workloads through ``fdist.cli.main``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload distance-product --seed 1 --seconds 36 --trace 0

One process, one client, no threads: each op is an in-process
``fdist.cli.main(argv)`` call on a generated set document with stdout
captured, and the next op starts when the previous one returns. The ops
of a workload form a fixed seeded pass (see workloads.py) that the loop
replays for ``--seconds``: whole passes until the run holds MIN_OPS
latencies, so the p90 has about ten samples beyond it, and then up to
the deadline, so the last pass may stop part-way. Every op of the mix
weighs the same in the quantiles and the rate, however many times it
ran (see ``mix_quantile``).

Times are reported at reference speed. The shared machine runs the same
work up to twice as slowly for seconds to minutes at a time, so before
every op (and set-up) the loop times ``reference_work``, a fixed piece of
stdlib-only Python, and scales each op's time by REF_NOMINAL_S over the
median of the four reference timings around it (see ``at_reference``).
fdist never runs inside the reference, so a change to fdist moves the
scaled times as it moves the raw ones, while a slow spell of the machine
moves both the op and its reference and cancels out. The report prints
the raw figures and the machine's speed factor beside the scaled ones.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes (spans.py) for ``--seconds`` and reports
per-layer self times and counts per traced pass plus the tracing
overhead; its spans go to ``.perfbench_work/`` as JSON lines. End-to-end
numbers never come from a traced run.

Every distinct op's first output is checked against brute force
(oracle.py) outside the timed loop, each verifier must reject
deliberately corrupted copies of a real output, and every later run of
the op must print the same bytes. The last stdout line is the JSON
result; the lines before it are a readable report.
"""

import argparse
import bisect
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import oracle
import spans
from workloads import GENERATORS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_OPS = 100
SETUP_PER_PASS = 4  # fresh-interpreter set-ups timed before the loop and after each pass
HARD_CAP_S = 120  # no new pass after this many seconds of passes, to end within 180 s
# The fastest time of reference_work seen on the baseline machine (a
# 2-vCPU VM running Python 3.11); scaled times are ms at that speed.
REF_NOMINAL_S = 0.007
REFS = []  # every reference timing of the run, for the report

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fdist.cli
for path in sys.argv[2:]:
    fdist.specfile.load(path)
print(time.perf_counter() - t0)
"""


def import_fdist():
    """fdist from this checkout's sources, never an installed copy."""
    if not (SRC / "fdist" / "cli.py").is_file():
        sys.exit(f"perfbench: no fdist sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fdist
    import fdist.cli

    if Path(fdist.__file__).resolve().parent != SRC / "fdist":
        sys.exit(f"perfbench: imported fdist from {fdist.__file__}, not from {SRC}")
    return fdist


def execute(call, argv):
    """Run one op; returns (exit code or None on an exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = call(argv)
    except SystemExit as exc:  # argparse rejects bad command lines this way
        code = exc.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def reference_work():
    """A fixed piece of pure-stdlib work of the kind fdist does (small
    Fractions, tuples, sorting, dicts), taking about REF_NOMINAL_S."""
    acc, pts = Fraction(0), []
    for k in range(1, 700):
        f = Fraction(k % 37 + 1, k % 23 + 2)
        acc += f * f
        pts.append((f, k))
    pts.sort()
    return acc, len({p: i for i, p in enumerate(pts)})


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    elapsed = time.perf_counter() - t0
    REFS.append(elapsed)
    return elapsed


def at_reference(times, refs):
    """Scale ``times[k]``, which ran between ``refs[k]`` and ``refs[k+1]``,
    to reference speed by the median of ``refs[k-1:k+3]``."""
    return [t * REF_NOMINAL_S / statistics.median(refs[max(k - 1, 0):k + 3])
            for k, t in enumerate(times)]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Bench:
    def __init__(self, fdist, workload, work_dir: Path):
        self.fdist = fdist
        self.workload = workload
        self.work_dir = work_dir
        self.first = {}  # op index -> (code, stdout, stderr) of its first run
        self.failed_runs = 0
        self.messages = []

    def path(self, doc_name: str) -> str:
        return str(self.work_dir / f"{doc_name}.json")

    def argv(self, argv: list) -> list:
        """An op's command line with its document name swapped for a path."""
        return [argv[0], self.path(argv[1]), *argv[2:]]

    def write_docs(self):
        if self.work_dir.exists():
            shutil.rmtree(self.work_dir)
        self.work_dir.mkdir(parents=True)
        for name, doc in self.workload.docs.items():
            Path(self.path(name)).write_text(json.dumps(doc, indent=1), encoding="utf-8")
        # a defuzz op reads the mass document its source distance op emits
        for op in self.workload.ops:
            if op.source is None:
                continue
            code, text, err = execute(self.fdist.cli.main, self.argv(op.source.argv))
            if code != 0:
                raise RuntimeError(f"source op {op.source.argv} failed: {err.strip()}")
            doc = {"sets": [json.loads(text)["mass"]]}
            self.workload.docs[op.argv[1]] = doc
            Path(self.path(op.argv[1])).write_text(json.dumps(doc, indent=1), encoding="utf-8")

    def time_setups(self, count: int):
        """Seconds for each of ``count`` fresh interpreters to import
        fdist.cli and load every document of the workload once, with the
        reference timed before each and after the last; returns
        (times, refs)."""
        cmd = [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC),
               *(self.path(name) for name in self.workload.docs)]
        times, refs = [], []
        for _ in range(count):
            refs.append(time_reference())
            times.append(float(subprocess.run(cmd, capture_output=True, text=True,
                                              timeout=60, check=True).stdout))
        refs.append(time_reference())
        return times, refs

    def run_op(self, index, op, call):
        """Time one op; record its first output, compare later ones."""
        t0 = time.perf_counter()
        code, text, err = execute(call, self.argv(op.argv))
        elapsed = time.perf_counter() - t0
        if index not in self.first:
            self.first[index] = (code, text, err)
            ok = code == 0
        else:
            ok = code == 0 and digest(text) == digest(self.first[index][1])
        if not ok:
            self.failed_runs += 1
            self.note(f"op {' '.join(op.argv)}: exit {code}: {err.strip()[-300:]}")
        return elapsed, text

    def note(self, message: str):
        if len(self.messages) < 10:
            self.messages.append(message)

    def run_pass(self, call, deadline=None):
        """One pass of the mix, cut short at ``deadline``. Before each op
        the heap is collected and the reference timed, and once more after
        the last op, all outside the op's time; returns (latencies, refs)
        with one more reference timing than latencies."""
        latencies, refs = [], []
        for i, op in enumerate(self.workload.ops):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            gc.collect()
            refs.append(time_reference())
            latencies.append(self.run_op(i, op, call)[0])
        refs.append(time_reference())
        return latencies, refs

    def measure(self, seconds: float, between):
        """Passes of the mix for ``seconds``: whole passes until the run
        holds MIN_OPS latencies, then passes cut at the deadline (never
        later than HARD_CAP_S). ``between`` runs after each whole pass,
        outside the ops' times. Returns the raw and the scaled latencies
        of every run, per op."""
        ops = self.workload.ops
        raw, scaled = [[] for _ in ops], [[] for _ in ops]
        start, deadline = time.perf_counter(), None
        while True:
            latencies, refs = self.run_pass(self.fdist.cli.main, deadline)
            for i, (x, y) in enumerate(zip(latencies, at_reference(latencies, refs))):
                raw[i].append(x)
                scaled[i].append(y)
            if len(latencies) < len(ops):
                return raw, scaled
            between()
            if sum(map(len, raw)) >= MIN_OPS:
                deadline = start + min(seconds, HARD_CAP_S)
                if time.perf_counter() >= deadline:
                    return raw, scaled

    def traced_passes(self, seconds: float, tracer):
        """Untraced and traced passes in turn, stopping at the pair boundary
        nearest to ``seconds``, so drift in machine speed hits both alike;
        returns the number of traced passes and the traced and untraced
        op times at reference speed."""
        main = self.fdist.cli.main

        def call(argv):
            tracer.op += 1
            return tracer.call("cli.main", main, (argv,), {})

        passes, traced, untraced = 0, 0.0, 0.0
        start = time.perf_counter()
        while True:
            untraced += sum(at_reference(*self.run_pass(main)))
            with tracer.installed():
                traced += sum(at_reference(*self.run_pass(call)))
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / passes / 2 >= seconds or elapsed + elapsed / passes > HARD_CAP_S:
                break
        # every run of an op prints the bytes of its first run (or counts as failed)
        roots = (rec for rec in tracer.spans if rec[0] == "cli.main")
        for k, rec in enumerate(roots):
            rec[5] = {"bytes_out": len(self.first[k % len(self.workload.ops)][1].encode())}
        return passes, traced, untraced

    # -- checking ----------------------------------------------------------

    def companion_text(self, op) -> str:
        code, text, err = execute(self.fdist.cli.main, self.argv(op.companion))
        if code != 0:
            raise oracle.CheckError(f"companion {op.companion} failed: {err.strip()}")
        return text

    def check(self, op, text, companion=None):
        oracle.verify(op, text, self.workload.docs[op.argv[1]], self.fdist.specfile, companion)

    def verify_all(self, runs: list) -> bool:
        """Brute-force check of every first output, then the self-check:
        each verifier kind must reject corrupted copies of a real output."""
        good = {}
        companions = {}
        for i, op in enumerate(self.workload.ops):
            code, text, _ = self.first[i]
            if code != 0:
                continue
            try:
                if op.kind == "plot":
                    companions[i] = self.companion_text(op)
                self.check(op, text, companions.get(i))
            except (oracle.CheckError, KeyError, ValueError, TypeError) as exc:
                self.failed_runs += runs[i]
                self.note(f"op {' '.join(op.argv)}: wrong output: {exc!r}")
                continue
            good.setdefault(op.kind, []).append(i)
        sound = True
        for kind, indices in good.items():
            i = min(indices, key=lambda k: len(self.first[k][1]))
            op = self.workload.ops[i]
            for bad in oracle.corruptions(kind, self.first[i][1]):
                try:
                    self.check(op, bad, companions.get(i))
                except (oracle.CheckError, KeyError, ValueError, TypeError):
                    continue
                sound = False
                self.note(f"self-check: the {kind} verifier accepted a corrupted output")
        return sound

    def outputs_digest(self) -> str:
        h = hashlib.sha256()
        for i, op in enumerate(self.workload.ops):
            h.update(f"{' '.join(op.argv)}\t{digest(self.first[i][1])}\n".encode())
        return h.hexdigest()

    def input_stats(self) -> dict:
        stats: dict = {"ops_per_pass": len(self.workload.ops)}
        for op in self.workload.ops:
            stats[op.kind] = stats.get(op.kind, 0) + 1
            for key in ("cells", "focals", "slices", "labels", "chain"):
                if key in op.stats:
                    values = stats.setdefault(key, [])
                    values.append(op.stats[key])
        for key in ("slices", "labels", "chain"):
            if key in stats:
                stats[key] = f"{min(stats[key])}-{max(stats[key])}"
        for key in ("cells", "focals"):
            if key in stats:
                stats[key] = sum(stats[key])
        return stats


def mix_quantile(runs, q: float) -> float:
    """The q-quantile of the mix's latency: each op weighs the same,
    split evenly over its runs (the last pass of a run may not reach every
    op), interpolating between the midpoints of the runs' cumulative
    weights in sorted order."""
    points = sorted((x, 1 / len(xs)) for xs in runs for x in xs)
    total, cumulative, marks = len(runs), 0.0, []
    for _, weight in points:
        marks.append((cumulative + weight / 2) / total)
        cumulative += weight
    k = bisect.bisect_left(marks, q)
    if k == 0 or k == len(points):
        return points[min(k, len(points) - 1)][0]
    (x0, _), (x1, _) = points[k - 1], points[k]
    return x0 + (x1 - x0) * (q - marks[k - 1]) / (marks[k] - marks[k - 1])


def mix_rate(runs, failed_share: float) -> float:
    """Ops per second over the mix with one op at a time: the number of
    ops over the sum of their mean latencies, less the failed share."""
    return len(runs) * (1 - failed_share) / sum(statistics.fmean(xs) for xs in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fdist = import_fdist()
    workload = GENERATORS[args.workload](args.seed)
    bench = Bench(fdist, workload, WORK / f"{args.workload}-{args.seed}-{args.trace}")
    bench.write_docs()
    report = [f"workload {args.workload} seed {args.seed} trace {args.trace}",
              f"inputs {json.dumps(bench.input_stats())}"]

    if args.trace == 0:
        # set-ups are spread over the run, so their median sees the same
        # machine as the ops; the first child only writes bytecode
        bench.time_setups(1)
        setups = [bench.time_setups(SETUP_PER_PASS)]
        raw, scaled = bench.measure(
            args.seconds, between=lambda: setups.append(bench.time_setups(SETUP_PER_PASS)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runs = [len(xs) for xs in raw]
        attempted = sum(runs)
        sound = bench.verify_all(runs)
        failed_share = min(bench.failed_runs, attempted) / attempted
        setup_raw = [x for times, _ in setups for x in times]
        setup_scaled = [x for times, refs in setups for x in at_reference(times, refs)]
        p90 = mix_quantile(scaled, 0.9)
        metrics = {
            "op_p50_ms": (mix_quantile(scaled, 0.5) * 1000, "ms"),
            "op_p90_ms": (p90 * 1000, "ms"),
            "ops_per_s": (mix_rate(scaled, failed_share), "1/s"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report.append(f"samples {attempted} runs of {len(runs)} ops, {min(runs)}-{max(runs)} each "
                      f"({sum(x > p90 for xs in scaled for x in xs)} beyond p90); "
                      f"setup_s from {len(setup_scaled)} set-ups")
        report.append(f"machine speed: the reference took {statistics.median(REFS) * 1000:.3f} ms "
                      f"(median of {len(REFS)}), {REF_NOMINAL_S * 1000:g} ms at reference speed")
        report.append(f"raw (unscaled): op_p50_ms {mix_quantile(raw, 0.5) * 1000:.6g} "
                      f"op_p90_ms {mix_quantile(raw, 0.9) * 1000:.6g} "
                      f"ops_per_s {mix_rate(raw, failed_share):.6g} "
                      f"setup_s {statistics.median(setup_raw):.6g}")
    else:
        tracer = spans.Tracer()
        passes, traced, untraced = bench.traced_passes(args.seconds, tracer)
        attempted = 2 * passes * len(workload.ops)
        sound = bench.verify_all([2 * passes] * len(workload.ops))
        metrics = spans.layer_totals(tracer, passes)
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        own = tracer.self_times()
        roots = sum(end - start for name, start, end, *_ in tracer.spans if name == "cli.main")
        report.append(f"traced {passes} passes of {len(workload.ops)} ops; self times cover "
                      f"{sum(own) / roots:.6f} of op time")
        shares = {}
        for (name, *_), mine in zip(tracer.spans, own):
            shares[name] = shares.get(name, 0.0) + mine
        for name, total in sorted(shares.items(), key=lambda kv: -kv[1]):
            report.append(f"  share {name:24s} {total / roots:7.2%}")
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path, [op.argv for op in workload.ops])
        report.append(f"spans written to {spans_path.relative_to(ROOT)}")

    failed = min(bench.failed_runs, attempted)
    correct = sound and failed == 0
    report.append(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} ops)")
    report.append(f"outputs digest {bench.outputs_digest()} (information only)")
    for name, (value, unit) in metrics.items():
        report.append(f"{name} {value:.6g} {unit}")
    report.extend(bench.messages)
    shutil.rmtree(bench.work_dir)
    print("\n".join(report))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
