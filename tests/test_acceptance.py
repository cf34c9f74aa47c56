"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (visible
with `pytest -s`).  Expected values come from independent oracles computed
here: 40-digit mpmath evaluations of the sensitivity formulas, brute-force
scans of the readout objective, and closed-form scan accounting.
"""

import contextlib
import math
import time

import mpmath as mp
import numpy as np
import pytest

from qdmsim import (CONVENTIONAL, LCQDM, LEIBOLD, PhotophysicsModel,
                    ProtocolParams, RECURRENT_SNR_PREFACTOR, SimConfig,
                    VoxelGrid, build_cycle, default_config,
                    default_config_text, eta_paper, evaluate_point,
                    extract_init_time, extract_readout_time,
                    end_to_end_pipeline, fit_log_quadratic, init_time,
                    plan_acquisition, readout_time, rf_for_voxel,
                    simulate_calibration, simulate_protocol, speedup_report,
                    sweep, time_reduction_factor, trace_to_csv, voxel_for_rf)
from qdmsim.calibration import CalibrationTrace
from qdmsim.cli import main as cli_main
from qdmsim.photophysics import LogQuadraticCurve
from qdmsim.scanplan import AOMAxis, AOMCalibration

mp.mp.dps = 40


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL ({label})")
        raise
    print(f"[acceptance] criterion {number}: PASS ({label})")


def mp_eta_lcqdm(t_init_ls, t_mw, t1, t_ro, t_d):
    pref = 2 / (1 + mp.e ** -1)
    return pref * mp.sqrt((t_init_ls + t_mw + t1) * (t_ro + t_d) / t1)


def mp_eta_leibold(t_mw, t1, t_ro, t_init, t_d):
    pref = 2 / (1 + mp.e ** -1)
    return pref * mp.sqrt((t_mw + t1) * (t_ro + t_init + t_d) / t1)


def make_params(t_init_ls=20.0, t_init_conf=20.0, t_ro=5.0, t_mw=100.0,
                t_d=0.1, t1=5000.0):
    return ProtocolParams(t_init_ls=t_init_ls, t_init_conf=t_init_conf,
                          t_ro_conf=t_ro, t_mw=t_mw, t_d=t_d, t1=t1)


def params_from_model(model, i_conf, t_mw=100.0, i_ls=0.2, t1=5000.0, t_d=0.1):
    return ProtocolParams(t_init_ls=init_time(model, i_ls),
                          t_init_conf=init_time(model, i_conf),
                          t_ro_conf=readout_time(model, i_conf),
                          t_mw=t_mw, t_d=t_d, t1=t1)


def test_criterion_1_formula_fidelity():
    with criterion(1, "formula fidelity vs arbitrary-precision oracle"):
        td = mp.mpf("0.1")
        oracle_lc = float(mp_eta_lcqdm(20, 100, 5000, 5, td))
        oracle_leib = float(mp_eta_leibold(100, 5000, 5, 20, td))
        oracle_conv = float(mp.sqrt(100 + 5 + 20 + td))
        p = make_params()
        assert abs(eta_paper(p, LCQDM) - oracle_lc) / oracle_lc <= 1e-9
        assert abs(eta_paper(p, LEIBOLD) - oracle_leib) / oracle_leib <= 1e-9
        assert abs(eta_paper(p, CONVENTIONAL) - oracle_conv) / oracle_conv <= 1e-9
        # the quoted 5-digit figures hold to their printed precision
        assert eta_paper(p, LCQDM) == pytest.approx(3.3414, abs=1.5e-4)
        assert eta_paper(p, LEIBOLD) == pytest.approx(7.3982, abs=1.5e-4)
        assert eta_paper(p, CONVENTIONAL) == pytest.approx(11.185, abs=1.5e-3)
        assert abs(RECURRENT_SNR_PREFACTOR - 1.4621171573) <= 1e-10


def test_criterion_2_time_quadrature(rng):
    with criterion(2, "squared sensitivity ratio equals time ratio"):
        assert time_reduction_factor(5.0) == 25.0
        for _ in range(1000):
            pa = make_params(t_init_ls=rng.uniform(0, 200),
                             t_init_conf=rng.uniform(1, 1300),
                             t_ro=rng.uniform(2, 25), t_mw=rng.uniform(1, 1000),
                             t_d=rng.uniform(0, 0.5), t1=rng.uniform(500, 10000))
            pb = make_params(t_mw=rng.uniform(1, 1000), t_ro=rng.uniform(2, 25))
            for ea, eb in ((eta_paper(pa, LCQDM), eta_paper(pb, LEIBOLD)),
                           (eta_paper(pa, LEIBOLD), eta_paper(pb, CONVENTIONAL)),
                           (eta_paper(pa, CONVENTIONAL), eta_paper(pb, LCQDM))):
                # measurement time at equal SNR scales as eta**2
                assert time_reduction_factor(ea / eb) * eb ** 2 == pytest.approx(
                    ea ** 2, rel=1e-12)


def test_criterion_3_ordering_invariant(rng):
    with criterion(3, "light-sheet protocol never less sensitive"):
        start = time.monotonic()
        violations = 0
        for _ in range(10_000):
            t_init = rng.uniform(0.5, 1300)     # shared by both init styles
            t_ro = rng.uniform(2, 25)
            t_mw = 10 ** rng.uniform(0, 3)
            t_d = 0.1
            t1 = rng.uniform(500, 10000)
            if t_ro + t_d > t_mw + t1:
                continue
            p = make_params(t_init_ls=t_init, t_init_conf=t_init, t_ro=t_ro,
                            t_mw=t_mw, t_d=t_d, t1=t1)
            if eta_paper(p, LCQDM) > eta_paper(p, LEIBOLD) * (1 + 1e-12):
                violations += 1
        assert violations == 0
        assert time.monotonic() - start < 1.0


def test_criterion_4_sweep_qualitative_reproduction():
    with criterion(4, "comparison-map orderings and trends"):
        start = time.monotonic()
        cfg = default_config()
        spec = cfg.sweep_spec()
        assert len(spec.i_conf_grid) == 61 and len(spec.t_mw_grid) == 61
        assert spec.i_ls == pytest.approx(0.2)
        grid = sweep(spec)
        lc = grid.eta_lcqdm[grid.valid]
        leibold = grid.eta_leibold[grid.valid]
        conv = grid.eta_conventional[grid.valid]
        assert len(lc) == grid.n_valid > 0.95 * 61 * 61
        # light-sheet protocol at least as sensitive everywhere
        assert np.all(lc <= leibold * (1 + 1e-12))
        # and strictly better than conventional nearly everywhere
        frac_better = np.sum(lc < conv) / len(lc)
        assert frac_better >= 0.90
        # long-MW, near-saturation point: order-of-magnitude class advantage
        cell = evaluate_point(cfg.model(), 1.0, 1000.0, 0.2, cfg.t1, cfg.t_d)
        assert cell.ratio_conv_over_lc >= 5.0
        assert cell.ratio_conv_over_lc == pytest.approx(8.75915420563, rel=1e-9)
        # low-intensity advantage: the recurrent-reinit ratio falls as the
        # readout laser gets stronger, at fixed t_mw = 100 us
        row = min(range(61), key=lambda r: abs(spec.t_mw_grid[r] - 100.0))
        assert spec.t_mw_grid[row] == pytest.approx(100.0, rel=1e-9)
        ratios = grid.ratio_leibold_over_lc[row][grid.valid[row]].tolist()
        assert len(ratios) == 61
        assert all(a >= b * (1 - 1e-12) for a, b in zip(ratios, ratios[1:]))
        assert time.monotonic() - start < 5.0


def test_criterion_5_monte_carlo_oracle_agreement():
    with criterion(5, "simulation within 15% of the formulas; 1/sqrt(n) errors"):
        start = time.monotonic()
        model = PhotophysicsModel()
        spots = [
            (LCQDM, 1.0, 100.0),
            (LCQDM, 0.0712, 1000.0),
            (LEIBOLD, 1.0, 100.0),
            (LEIBOLD, 0.1, 10.0),
            (CONVENTIONAL, 7.1199715201139185, 1000.0),
        ]
        first_spot_outcome = None
        for protocol, i_conf, t_mw in spots:
            p = params_from_model(model, i_conf, t_mw=t_mw)
            cfg = SimConfig(params=p, model=model, i_conf=i_conf,
                            n_trials=100_000, master_seed=417)
            out = simulate_protocol(cfg, protocol)
            if first_spot_outcome is None:
                first_spot_outcome = out
            analytic = eta_paper(p, protocol)
            assert abs(out.eta_empirical - analytic) / analytic <= 0.15, (
                protocol, i_conf, t_mw)

        # stderr follows 1/sqrt(n) over three decades (the 1e5 point is the
        # first spot configuration above)
        p = params_from_model(model, 1.0)
        stderr = {100_000: first_spot_outcome.eta_stderr}
        for n in (1_000, 10_000):
            cfg = SimConfig(params=p, model=model, i_conf=1.0, n_trials=n,
                            master_seed=417)
            stderr[n] = simulate_protocol(cfg, LCQDM).eta_stderr
        for small, big in ((1_000, 10_000), (10_000, 100_000)):
            ratio = stderr[small] / stderr[big]
            # 3 sigma band for a sample-std ratio at the smaller n
            band = 3.0 * math.sqrt(1.0 / (2 * small))
            assert abs(ratio / math.sqrt(10.0) - 1.0) <= band
        assert time.monotonic() - start < 60.0


def test_criterion_6_calibration_extraction():
    with criterion(6, "1/e^3 crossing and SNR-optimal readout extraction"):
        start = time.monotonic()
        # brute-force scan of the closed-form objective (1 - e^-x)/sqrt(x)
        xs = np.linspace(0.01, 4.0, 400_001)
        x_star = float(xs[np.argmax((1 - np.exp(-xs)) / np.sqrt(xs))])
        assert x_star == pytest.approx(1.25643, abs=1e-4)
        for tau in (3.0, 10.0):
            t = np.linspace(0.0, 6.0 * tau, 3001)
            step = t[1] - t[0]
            c = 0.03 * np.exp(-t / tau)
            trace = CalibrationTrace(1.0, t, 15.0 * (1 - c),
                                     np.full(t.size, 15.0))
            assert extract_init_time(trace) == pytest.approx(3 * tau, abs=step)
            t_ro, _ = extract_readout_time(trace)
            assert t_ro == pytest.approx(x_star * tau, rel=0.01)
        assert time.monotonic() - start < 1.0


def test_criterion_7_fit_roundtrip():
    with criterion(7, "curve fit and simulate-extract-fit recovery"):
        gen = LogQuadraticCurve(1.0, -0.8, 0.05)
        intensities = [10.0 ** (-2 + 3 * k / 9) for k in range(10)]
        fit = fit_log_quadratic([(i, gen.duration(i)) for i in intensities])
        for got, expected in zip((fit.a, fit.b, fit.c), (1.0, -0.8, 0.05)):
            assert got == pytest.approx(expected, abs=1e-9)

        model = PhotophysicsModel()
        pipeline_intensities = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0)
        grids = [np.linspace(0.0, 1.25 * init_time(model, i), 1500)
                 for i in pipeline_intensities]
        result = end_to_end_pipeline(model, pipeline_intensities, grids,
                                     1, 99, noiseless=True)
        for got, expected in zip(
                (result.init_curve.a, result.init_curve.b, result.init_curve.c),
                (0.7, -0.9, 0.1)):
            assert got == pytest.approx(expected, abs=0.02)


def test_criterion_8_scan_accounting():
    with criterion(8, "exact scan totals, speedup, and RF roundtrip"):
        p = make_params()
        grid = VoxelGrid(100, 100, 1, 1.0)
        lc = plan_acquisition(grid, p, LCQDM)
        assert lc.total_time == pytest.approx(52_320.0, rel=1e-12)
        event_total = sum(
            build_cycle(LCQDM, p, c.voxel_end - c.voxel_start + 1).span()
            for c in lc.cycles)
        assert lc.total_time == pytest.approx(event_total, rel=1e-12)
        conv = plan_acquisition(grid, p, CONVENTIONAL)
        assert conv.total_time == pytest.approx(1_251_000.0, rel=1e-12)
        report = speedup_report(grid, p)
        assert report.conventional_over_lcqdm == pytest.approx(23.9, abs=0.1)

        cal = AOMCalibration(scan_x=AOMAxis(80.0, 0.1), scan_y=AOMAxis(80.0, 0.1),
                             descan_x=AOMAxis(80.0, -0.1),
                             descan_y=AOMAxis(80.0, -0.1))
        g16 = VoxelGrid(16, 16, 1, 1.0)
        for ix in range(16):
            for iy in range(16):
                freqs = rf_for_voxel((ix, iy, 0), g16, cal)
                assert voxel_for_rf(freqs, g16, cal) == (ix, iy, 0)


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical reruns under fixed config and seed"):
        text = default_config_text()
        for old, new in (("sweep_points_i = 61", "sweep_points_i = 7"),
                         ("sweep_points_t = 61", "sweep_points_t = 6"),
                         ("grid_nx = 100", "grid_nx = 9"),
                         ("grid_ny = 100", "grid_ny = 9"),
                         ("n_trials = 2000", "n_trials = 300")):
            assert old in text
            text = text.replace(old, new)
        cfg_path = tmp_path / "det.cfg"
        cfg_path.write_text(text)
        model = PhotophysicsModel()
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(trace_to_csv(simulate_calibration(
            model, 1.0, np.linspace(0.0, 8.0, 300), 1, seed=4, noiseless=True)))
        commands = [
            ("eval",),
            ("sweep", "--pgm"),
            ("simulate", "--protocol", "lcqdm", "--dump-trials"),
            ("calibrate", "--trace", str(trace_path), "--intensity", "1.0"),
            ("plan", "--protocol", "leibold"),
        ]
        for argv in commands:
            out_a = tmp_path / f"{argv[0]}_a"
            out_b = tmp_path / f"{argv[0]}_b"
            for out in (out_a, out_b):
                code = cli_main(["--config", str(cfg_path), argv[0],
                                 "--out", str(out), *argv[1:]])
                assert code == 0
            names = sorted(q.name for q in out_a.iterdir())
            assert names == sorted(q.name for q in out_b.iterdir())
            for name in names:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

        # the library reruns bitwise as well
        cfg = SimConfig(params=params_from_model(model, 1.0), model=model,
                        i_conf=1.0, n_trials=300, master_seed=99)
        assert simulate_protocol(cfg, LCQDM) == simulate_protocol(cfg, LCQDM)
