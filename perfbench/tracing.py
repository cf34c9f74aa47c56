"""Spans and counts at the package's layer boundaries, for the traced run.

install() wraps each layer's public functions where the calling module
binds them (qdmsim.cli.sweep, qdmsim.montecarlo._BUILDERS, ScanPlan.rf_csv,
...) and returns a function that puts the originals back.  The package's
files are not changed.  A span records (id, parent id, name, start ns,
end ns); counts are kept at the same boundaries; with tracemalloc running,
the outermost call of each of three layers records its allocation peak
above the memory held on entry.

Photophysics curve evaluations are counted where sensitivity, config and
montecarlo call init_time, readout_time and contrast_at_delay; calls made
inside photophysics itself are not counted.
"""

from __future__ import annotations

import functools
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict

import qdmsim.calibration
import qdmsim.cli
import qdmsim.config
import qdmsim.montecarlo
import qdmsim.scanplan
import qdmsim.sensitivity
import qdmsim.sequence

SIM_PROTOCOLS = ("LCQDM", "Leibold", "Conventional")
PLAN_PROTOCOLS = ("LCQDM", "Conventional")

class Tracer:
    """Spans, counts and allocation peaks of the current pass."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, fn, name, *, peak=None, after=None):
        """fn with a span named name (a string, or a function of the call's
        arguments), an optional allocation peak key, and an after(result)
        hook for counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            measure = peak is not None and tracemalloc.is_tracing()
            if measure:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
            label = name(args) if callable(name) else name
            self.spans.append((sid, parent, label, start, end))
            if measure:
                grown = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peaks[peak] = max(self.peaks.get(peak, 0.0), grown)
            if after is not None:
                after(result)
            return result
        return traced

    def count(self, fn, key):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def take_pass(self) -> tuple[list, Counter]:
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def install(tr: Tracer):
    """Wrap the package's layer functions; returns the undo function."""
    cli, sens, mc = qdmsim.cli, qdmsim.sensitivity, qdmsim.montecarlo
    seq, plan, cal, cfg = (qdmsim.sequence, qdmsim.scanplan, qdmsim.calibration,
                           qdmsim.config)
    saved = []

    def patch(owner, attr, wrapper):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        saved.append((owner, attr, original))
        _put(owner, attr, wrapper(original))

    def bump(key, size):
        return lambda result: tr.counts.update({key: size(result)})

    def counting_flush(flush):
        @functools.wraps(flush)
        def counted(run):
            flush(run)
            tr.counts["cli.bytes_written"] += sum(
                (run.out_dir / name).stat().st_size
                for name in (*run.files, "manifest.txt"))
        return counted

    cells = bump("sensitivity.cells",
                 lambda g: len(g.spec.i_conf_grid) * len(g.spec.t_mw_grid))
    cycles = bump("scanplan.cycles", lambda p: len(p.cycles))

    patch(cli, "main", lambda f: tr.wrap(f, "cli.main"))
    patch(cli, "parse_config", lambda f: tr.wrap(f, "cli.parse_config"))
    patch(cli._Run, "flush", counting_flush)
    for owner in (cli, sens):
        patch(owner, "evaluate_point",
              lambda f: tr.wrap(f, "sensitivity.evaluate_point"))
    patch(cli, "sweep", lambda f: tr.wrap(f, "sensitivity.sweep",
                                          peak="sensitivity", after=cells))
    for method in ("to_csv", "to_pgm"):
        patch(sens.SensitivityGrid, method,
              lambda f, m=method: tr.wrap(f, f"sensitivity.{m}", peak="sensitivity"))
    for owner in (sens, cfg):
        for attr in ("init_time", "readout_time"):
            patch(owner, attr, lambda f: tr.count(f, "photophysics.curve_evals"))
    patch(mc, "contrast_at_delay", lambda f: tr.count(f, "photophysics.curve_evals"))

    for attr in ("build_lcqdm_cycle", "build_leibold_cycle",
                 "build_conventional_cycle"):
        patch(seq, attr, lambda f: tr.wrap(f, "sequence.build_cycle"))
    patch(seq, "validate_sequence", lambda f: tr.wrap(f, "sequence.validate_sequence"))
    for tag in list(mc._BUILDERS):
        patch(mc._BUILDERS, tag, lambda f: tr.wrap(f, "sequence.build_cycle"))
    patch(mc, "simulate_protocol", lambda f: tr.wrap(
        f, lambda a: f"montecarlo.simulate_protocol.{a[1]}", peak="montecarlo",
        after=lambda out: tr.counts.update(
            {f"montecarlo.trials.{out.protocol_tag}": out.n_trials})))
    patch(mc, "simulate_calibration", lambda f: tr.wrap(
        f, "montecarlo.simulate_calibration", peak="montecarlo"))

    patch(cli, "plan_acquisition", lambda f: tr.wrap(
        f, lambda a: f"scanplan.plan.{a[2]}", peak="scanplan", after=cycles))
    patch(plan, "plan_acquisition", lambda f: tr.wrap(
        f, "scanplan.plan_acquisition", after=cycles))
    patch(cli, "speedup_report", lambda f: tr.wrap(
        f, "scanplan.speedup_report", peak="scanplan"))
    for method in ("cycles_csv", "rf_csv"):
        patch(plan.ScanPlan, method,
              lambda f, m=method: tr.wrap(f, f"scanplan.{m}", peak="scanplan"))

    patch(cli, "read_trace_csv", lambda f: tr.wrap(
        f, "calibration.read_trace_csv",
        after=bump("calibration.samples", len)))
    patch(cli, "extract_times", lambda f: tr.wrap(f, "calibration.extract_times"))
    patch(cal, "trace_to_csv", lambda f: tr.wrap(f, "calibration.trace_to_csv"))
    patch(cal, "fit_log_quadratic", lambda f: tr.wrap(f, "calibration.fit"))

    def undo():
        for owner, attr, original in reversed(saved):
            _put(owner, attr, original)
    return undo


def _put(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def summarize(spans: list, counts: Counter, pass_ns: int) -> dict:
    """Per-pass totals and self times by span name, plus counts and layer shares."""
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, name, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    for sid, parent, name, start, end in spans:
        total[name] += end - start
        self_ns[name] += end - start - child_ns[sid]
    share: dict[str, float] = defaultdict(float)
    for name, ns in self_ns.items():
        share[name.split(".")[0]] += ns / pass_ns
    share["benchmark"] = 1.0 - sum(share.values())
    return {"pass_ms": pass_ns / 1e6, "total_ms": {k: v / 1e6 for k, v in total.items()},
            "self_ms": {k: v / 1e6 for k, v in self_ns.items()},
            "counts": dict(counts), "layer_share": dict(share)}


def pass_metrics(s: dict) -> dict[str, float]:
    """The per-layer metrics that one traced pass measures."""
    total, self_ms, counts = s["total_ms"], s["self_ms"], s["counts"]

    def ms(name):
        return total.get(name, 0.0)

    def per_s(count_key, span):
        return counts.get(count_key, 0) / (ms(span) / 1e3) if ms(span) else 0.0

    m = {
        "cli.main_self_ms": self_ms.get("cli.main", 0.0),
        "cli.bytes_written_per_op": counts.get("cli.bytes_written", 0),
        "photophysics.curve_evals_per_op": counts.get("photophysics.curve_evals", 0),
        "sequence.build_cycle_ms": ms("sequence.build_cycle"),
        "sequence.validate_ms": ms("sequence.validate_sequence"),
        "montecarlo.simulate_calibration_ms": ms("montecarlo.simulate_calibration"),
        "sensitivity.sweep_ms": ms("sensitivity.sweep"),
        "sensitivity.cells_per_s": per_s("sensitivity.cells", "sensitivity.sweep"),
        "sensitivity.to_csv_ms": ms("sensitivity.to_csv"),
        "sensitivity.to_pgm_ms": ms("sensitivity.to_pgm"),
        "sensitivity.evaluate_point_ms": ms("sensitivity.evaluate_point"),
        "scanplan.speedup_report_ms": ms("scanplan.speedup_report"),
        "scanplan.cycles_csv_ms": ms("scanplan.cycles_csv"),
        "scanplan.rf_csv_ms": ms("scanplan.rf_csv"),
        "scanplan.cycles_per_op": counts.get("scanplan.cycles", 0),
        "calibration.read_trace_csv_ms": ms("calibration.read_trace_csv"),
        "calibration.samples_per_s": per_s("calibration.samples",
                                           "calibration.read_trace_csv"),
        "calibration.trace_to_csv_ms": ms("calibration.trace_to_csv"),
        "calibration.extract_times_ms": ms("calibration.extract_times"),
        "calibration.fit_ms": ms("calibration.fit"),
    }
    for p in SIM_PROTOCOLS:
        name = f"montecarlo.simulate_protocol.{p}"
        trials = counts.get(f"montecarlo.trials.{p}", 0)
        m[f"montecarlo.simulate_protocol_ms.{p}"] = ms(name)
        # Self time leaves out the cycle build the simulation starts with.
        m[f"montecarlo.trial_us.{p}"] = (self_ms.get(name, 0.0) * 1e3 / trials
                                         if trials else 0.0)
    for p in PLAN_PROTOCOLS:
        m[f"scanplan.plan_ms.{p}"] = ms(f"scanplan.plan.{p}")
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
