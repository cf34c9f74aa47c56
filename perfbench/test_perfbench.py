"""Self-tests of the benchmark: smoke passes, checks that bite, the oracle
against 40-digit mpmath, and the command's contract.

    python3 -m pytest perfbench -q
"""

import dataclasses
import hashlib
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qdmsim  # noqa: E402
import qdmsim.calibration  # noqa: E402
import qdmsim.cli  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import CONVENTIONAL, LCQDM, LEIBOLD, CheckError  # noqa: E402

mp.mp.dps = 40
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_pass(name, tmp_path, seed=3):
    wl = workloads.WORKLOADS[name](seed, tmp_path, tiny=True)
    inputs = wl.prepare(0)
    return wl, inputs, wl.run(inputs)


def rewrite(path: Path, old: str, new: str) -> None:
    """Replace text in an output file and re-sign it in the manifest, so
    only the content check can notice."""
    data = path.read_text()
    assert data.count(old) >= 1
    before = hashlib.sha256(data.encode()).hexdigest()
    path.write_text(data.replace(old, new, 1))
    after = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = path.parent / "manifest.txt"
    manifest.write_text(manifest.read_text().replace(before, after))


# -- smoke ------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_is_correct(name, tmp_path):
    wl, inputs, outputs = one_pass(name, tmp_path)
    wl.check(inputs, outputs)


# -- the checks bite ----------------------------------------------------------------

def test_sweep_cell_off_by_1e_9_fails(tmp_path):
    wl, inputs, outputs = one_pass("design_study", tmp_path)
    csv = tmp_path / "sweep" / "sweep.csv"
    row = csv.read_text().splitlines()[1].split(",")
    assert row[-1] == "1"
    eta = float(row[2])
    rewrite(csv, ",".join(row), ",".join(row[:2] + [repr(eta * (1 + 1e-9))] + row[3:]))
    with pytest.raises(CheckError, match="sweep eta_lc"):
        wl.check(inputs, outputs)


@pytest.mark.parametrize("tag, protocol", [("lcqdm", LCQDM),
                                           ("conventional", CONVENTIONAL)])
def test_plan_total_off_by_one_slot_fails(tag, protocol, tmp_path):
    wl, v, outputs = one_pass("design_study", tmp_path)
    report = tmp_path / f"plan_{tag}" / "plan_report.txt"
    line = next(ln for ln in report.read_text().splitlines()
                if ln.startswith("total_time_us"))
    i_conf = v["p_conf"] / v["delta_conf"] ** 2
    slot = oracle.duration(workloads.READOUT, i_conf) + v["t_d"]
    total = float(line.split(" = ")[1])
    rewrite(report, line, f"total_time_us = {total + slot!r}")
    with pytest.raises(CheckError, match="total_time_us"):
        wl.check(v, outputs)


def test_plan_cycle_row_off_by_one_slot_fails(tmp_path):
    wl, v, outputs = one_pass("design_study", tmp_path)
    cycles = tmp_path / "plan_conventional" / "plan_cycles.csv"
    row = cycles.read_text().splitlines()[2].split(",")
    rewrite(cycles, ",".join(row),
            ",".join(row[:4] + [repr(float(row[4]) * 2)]))
    with pytest.raises(CheckError, match="cycle duration"):
        wl.check(v, outputs)


def test_flipped_byte_fails_the_manifest(tmp_path):
    wl, v, outputs = one_pass("design_study", tmp_path)
    rf = tmp_path / "plan_lcqdm" / "plan_rf.csv"
    data = bytearray(rf.read_bytes())
    data[-3] ^= 0x01
    rf.write_bytes(bytes(data))
    with pytest.raises(CheckError, match="sha256"):
        wl.check(v, outputs)


@pytest.mark.parametrize("k", range(len(workloads.SPOTS)))
def test_monte_carlo_mean_shifted_6_sigma_fails(k, tmp_path):
    wl, spots, outputs = one_pass("mc_oracle", tmp_path)
    spot = spots[k]
    cycle, report, sim = outputs[k]
    tm = workloads._timing(spot.i_conf, workloads.B["i_ls"], spot.t_mw,
                           workloads.B["t_d"], workloads.B["t1"])
    mu = oracle.flux(workloads.B["r_max"], workloads.B["i_sat"], spot.i_conf) * tm.t_ro
    ex = oracle.monte_carlo(spot.protocol, tm, workloads.B["c0"], mu)
    sigma = ex.trial_sd / math.sqrt(spot.trials)
    z = (sim.signal_mean - ex.signal_mean) / sigma
    shifted = sim.signal_mean + math.copysign(6.0, z) * sigma
    eta = (math.sqrt(ex.span / ex.windows) * workloads.B["c0"] / shifted
           if shifted > 0 else math.inf)
    outputs[k] = (cycle, report, dataclasses.replace(
        sim, signal_mean=shifted, eta_empirical=eta))
    with pytest.raises(CheckError, match="signal mean"):
        wl.check(spots, outputs)


def test_noiseless_extraction_one_step_off_fails(tmp_path):
    wl, camp, outputs = one_pass("calibration_roundtrip", tmp_path)
    report = tmp_path / "calibrate_0_exact" / "calibrate_report.txt"
    line = next(ln for ln in report.read_text().splitlines() if ln.startswith("t_ro_us"))
    step = float(camp.grids[0][1] - camp.grids[0][0])
    rewrite(report, line, f"t_ro_us = {float(line.split(' = ')[1]) + 1.5 * step!r}")
    with pytest.raises(CheckError, match="t_ro"):
        wl.check(camp, outputs)


def test_poisson_mean_shifted_6_sigma_fails(tmp_path):
    wl, camp, outputs = one_pass("calibration_roundtrip", tmp_path)
    trace = outputs["traces"][0, False]
    rate = oracle.flux(workloads.B["r_max"], workloads.B["i_sat"], float(camp.intensity[0]))
    window = float(workloads.SHOTS)
    sigma = math.sqrt(rate * window * len(trace))
    extra = math.ceil(6.0 * sigma / len(trace)) / window
    shifted = qdmsim.calibration.CalibrationTrace(
        trace.intensity, trace.t_sweep, trace.sig_pl + extra, trace.ref_pl + extra)
    outputs["traces"][0, False] = shifted
    (tmp_path / "trace_0_noisy.csv").write_text(qdmsim.calibration.trace_to_csv(shifted))
    with pytest.raises(CheckError, match="reference total"):
        wl.check(camp, outputs)


# -- the oracle against 40-digit arithmetic -----------------------------------------

TIMINGS = [oracle.Timing(20.0, 20.0, 5.0, 100.0, 0.1, 5000.0),
           oracle.Timing(8.3, 1.01, 2.78, 1000.0, 0.1, 5000.0),
           oracle.Timing(0.0, 50.1, 10.0, 10.0, 0.5, 700.0)]


@pytest.mark.parametrize("tm", TIMINGS)
def test_eta_formulas_match_mpmath(tm):
    f = {k: mp.mpf(getattr(tm, k)) for k in tm.__dataclass_fields__}
    pref = 2 / (1 + mp.e ** -1)
    want = {
        LCQDM: pref * mp.sqrt((f["t_init_ls"] + f["t_mw"] + f["t1"])
                              * (f["t_ro"] + f["t_d"]) / f["t1"]),
        LEIBOLD: pref * mp.sqrt((f["t_mw"] + f["t1"])
                                * (f["t_ro"] + f["t_init_conf"] + f["t_d"]) / f["t1"]),
        CONVENTIONAL: mp.sqrt(f["t_mw"] + f["t_ro"] + f["t_init_conf"] + f["t_d"]),
    }
    for protocol, eta in oracle.ETA.items():
        assert float(eta(tm)) == pytest.approx(float(want[protocol]), rel=1e-14)


@pytest.mark.parametrize("tm", TIMINGS)
@pytest.mark.parametrize("protocol", [LCQDM, LEIBOLD, CONVENTIONAL])
def test_monte_carlo_expectation_matches_mpmath(tm, protocol):
    batch, overhead, slot = oracle.cycle_layout(protocol, tm)
    assert batch * Fraction(slot) <= Fraction(tm.t1) or batch == 1
    c0, mu = 0.03, 75.0
    ex = oracle.monte_carlo(protocol, tm, c0, mu)
    s = [mp.exp(-k * mp.mpf(slot) / tm.t1) for k in range(batch)]
    mean_s = mp.fsum(s) / batch
    span = mp.mpf(overhead) + batch * mp.mpf(slot)
    assert ex.eta_exact == pytest.approx(float(mp.sqrt(span / batch) / mean_s), rel=1e-12)
    assert ex.signal_mean == pytest.approx(float(c0 * mean_s), rel=1e-12)
    var = mp.fsum(2 - c0 * x for x in s) / (batch * batch * mu)
    assert ex.trial_sd == pytest.approx(float(mp.sqrt(var)), rel=1e-12)


def test_readout_optimum_matches_mpmath():
    x = mp.findroot(lambda x: mp.diff(lambda y: (1 - mp.e ** -y) / mp.sqrt(y), x), 1.25)
    assert oracle.readout_optimum() == pytest.approx(float(x), abs=1e-5)


@pytest.mark.parametrize("protocol", [LCQDM, LEIBOLD, CONVENTIONAL])
def test_scan_accounting_matches_a_voxel_by_voxel_count(protocol):
    tm = TIMINGS[2]               # t1 = 700 us: several cycles per plane
    plane, nz, t_z = 35, 3, 42.5
    n = plane * nz
    batch, overhead, slot = oracle.cycle_layout(protocol, tm)
    if protocol != CONVENTIONAL:
        assert batch * Fraction(slot) <= Fraction(tm.t1) < (batch + 1) * Fraction(slot)
    durations, in_cycle = [], batch
    for u in range(n):
        if in_cycle == batch:
            durations.append(mp.mpf(overhead))
            in_cycle = 0
        durations[-1] += slot
        in_cycle += 1
        if u + 1 < n and (u + 1) % plane == 0:
            durations[-1] += mp.mpf(t_z) - mp.mpf(tm.t_d)
    rows = oracle.plan_rows(protocol, tm, n, plane, t_z)
    assert len(rows) == len(durations)
    np.testing.assert_allclose(rows[:, 3], [float(d) for d in durations], rtol=1e-14)
    assert oracle.scan_total(protocol, tm, n, nz, t_z) == pytest.approx(
        float(mp.fsum(durations)), rel=1e-13)


# -- tracing -------------------------------------------------------------------------

def test_traced_pass_feeds_every_per_layer_metric(tmp_path):
    tracer = tracing.Tracer()
    seen: dict[str, float] = {}
    for name in sorted(workloads.WORKLOADS):
        (tmp_path / name).mkdir()
        wl = workloads.WORKLOADS[name](5, tmp_path / name, tiny=True)
        inputs = wl.prepare(0)
        undo = tracing.install(tracer)
        try:
            wl.run(inputs)
        finally:
            undo()
        spans, counts = tracer.take_pass()
        for key, value in tracing.pass_metrics(
                tracing.summarize(spans, counts, 10**9)).items():
            seen[key] = max(seen.get(key, 0.0), value)
    assert qdmsim.cli.sweep is qdmsim.sensitivity.sweep  # undo restored it
    from_run_py = {"cli.import_s", "cli.parse_config_ms", "trace.overhead_ms",
                   "montecarlo.peak_alloc_mib", "sensitivity.peak_alloc_mib",
                   "scanplan.peak_alloc_mib"}
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(seen) | from_run_py == names
    assert [k for k, v in seen.items() if not v > 0] == []


# -- the command ------------------------------------------------------------------------

def test_without_the_package_the_command_fails_silently(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_command_prints_the_result_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calibration_roundtrip",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 100
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
