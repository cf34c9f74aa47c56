"""One measured run of one workload, in a fresh interpreter.

run.py starts this with PYTHONPATH pointing at the checkout's src/:

    python3 perfbench/measure.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --root CHECKOUT

It prints one JSON object as its last line: correct, attempted, failed,
metrics (name -> value) and extra (figures and error notes).

The loop is closed with one client: a pass starts when the previous one
has been checked.  Only run() is timed; making inputs and checking outputs
are not.  The first pass warms caches and is checked but not timed.

With --trace 0 it times passes for --seconds, and for at least MIN_PASSES
so that the 90th percentile has ten passes beyond it.  With --trace 1 it
alternates untraced and traced passes (the difference of their medians is
the tracing overhead), then runs ALLOC_PASSES passes under tracemalloc for
allocation peaks, and writes spans, counts and peaks to
perfbench/results/<workload>-seed<N>-spans.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

from oracle import CheckError

MIN_PASSES = 100
LOOP_CAP_S = 120.0
MIN_TRACED_PASSES = 10
TRACED_SHARE = 0.85    # of --seconds spent on untraced/traced pairs
ALLOC_PASSES = 2
KEEP_SPANS = 2         # passes whose raw spans go into the spans file
MAX_NOTES = 5


class Runner:
    """Runs passes of one workload and keeps the tallies."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []
        self.figures: dict[str, list[float]] = defaultdict(list)

    def _note(self, text: str) -> None:
        print(text, file=sys.stderr)
        if len(self.notes) < MAX_NOTES:
            self.notes.append(text)

    def one(self) -> int | None:
        """One pass; returns its run() time in ns, or None if it failed."""
        index = self.attempted
        inputs = self.wl.prepare(index)
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            outputs = self.wl.run(inputs)
        except Exception as exc:  # any error the program raises fails the pass
            elapsed = None
            self.failed += 1
            self._note(f"pass {index} failed: {exc!r}")
        else:
            elapsed = time.perf_counter_ns() - start
            try:
                figures = self.wl.check(inputs, outputs)
            except CheckError as exc:
                self.correct = False
                self._note(f"pass {index} incorrect: {exc}")
            else:
                for key, value in figures.items():
                    self.figures[key].append(float(value))
        return elapsed


def _untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    times = []
    t0 = time.monotonic()
    while True:
        spent = time.monotonic() - t0
        if (spent >= seconds and len(times) >= MIN_PASSES) or spent >= LOOP_CAP_S:
            break
        ns = runner.one()
        if ns is not None:
            times.append(ns / 1e6)
    if not times:
        raise SystemExit("no pass completed")
    return {
        "op_p75_ms": statistics.quantiles(times, n=4, method="inclusive")[2],
        "op_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"timed_passes": len(times), "op_p50_ms": statistics.median(times),
        "times_ms": times}


def _traced(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    import tracing

    tracer = tracing.Tracer()

    def traced_pass():
        undo = tracing.install(tracer)
        try:
            ns = runner.one()
        finally:
            undo()
        return ns, tracer.take_pass()

    plain, traced, summaries, kept = [], [], [], []
    t0 = time.monotonic()
    pair = 0
    while (time.monotonic() - t0 < seconds * TRACED_SHARE
           or len(traced) < MIN_TRACED_PASSES) and time.monotonic() - t0 < LOOP_CAP_S:
        # Alternate which side of the pair runs first.
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if not with_trace:
                ns = runner.one()
                if ns is not None:
                    plain.append(ns / 1e6)
                continue
            ns, (spans, counts) = traced_pass()
            if ns is None:
                continue
            traced.append(ns / 1e6)
            summaries.append(tracing.summarize(spans, counts, ns))
            if len(kept) < KEEP_SPANS:
                kept.append([dict(zip(("id", "parent", "name", "start_ns", "end_ns"), s))
                             for s in spans])
        pair += 1
    if not traced or not plain:
        raise SystemExit("no pass completed")

    tracemalloc.start()
    try:
        for _ in range(ALLOC_PASSES):
            traced_pass()
    finally:
        tracemalloc.stop()

    metrics = tracing.median_metrics([tracing.pass_metrics(s) for s in summaries])
    for layer in ("montecarlo", "sensitivity", "scanplan"):
        metrics[f"{layer}.peak_alloc_mib"] = tracer.peaks.get(layer, 0.0)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_ms"] = overhead
    layers = sorted({k for s in summaries for k in s["layer_share"]})
    share = {k: statistics.median(s["layer_share"].get(k, 0.0) for s in summaries)
             for k in layers}
    spans_path.write_text(json.dumps({
        "untraced_op_p50_ms": statistics.median(plain),
        "traced_op_p50_ms": statistics.median(traced),
        "overhead_ms": overhead,
        "layer_share": share,
        "peaks_mib": tracer.peaks,
        "passes": summaries,
        "spans": kept,
    }, indent=1))
    return metrics, {"timed_passes": len(plain), "traced_passes": len(traced),
                     "layer_share": share}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args()
    root = Path(args.root).resolve()

    import qdmsim
    if (root / "src") not in Path(qdmsim.__file__).resolve().parents:
        print(f"qdmsim imported from {qdmsim.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    results = root / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=results))
    try:
        runner = Runner(workloads.WORKLOADS[args.workload](args.seed, work))
        runner.one()  # warm-up
        if args.trace:
            spans = results / f"{args.workload}-seed{args.seed}-spans.json"
            metrics, extra = _traced(runner, args.seconds, spans)
        else:
            metrics, extra = _untraced(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    extra["figures_mean"] = {k: statistics.fmean(v) for k, v in runner.figures.items()}
    extra["notes"] = runner.notes
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics, "extra": extra}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
