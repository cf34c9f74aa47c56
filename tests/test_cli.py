import dataclasses
import hashlib
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qdmsim
import qdmsim.cli

from qdmsim import (ConfigError, OutOfRangeError, default_config,
                    default_config_text, evaluate_point, init_time,
                    parse_config, simulate_calibration, trace_to_csv)
from qdmsim.cli import main


def run_cli(*args):
    return main(list(args))


def run_module(*args, timeout=None):
    """qdmsim in a child interpreter, so an uncaught error shows on stderr."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(qdmsim.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "qdmsim", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def read_report(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def small_config(tmp_path, **overrides):
    """Default config with light grids so CLI tests stay fast."""
    text = default_config_text()
    replacements = {
        "sweep_points_i = 61": "sweep_points_i = 5",
        "sweep_points_t = 61": "sweep_points_t = 4",
        "grid_nx = 100": "grid_nx = 8",
        "grid_ny = 100": "grid_ny = 8",
        "n_trials = 2000": "n_trials = 60",
    }
    replacements.update(overrides)
    for old, new in replacements.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_defaults_canonical_units(self):
        cfg = default_config()
        assert cfg.t_d == pytest.approx(0.1)      # 100 ns
        assert cfg.t1 == pytest.approx(5000.0)    # 5 ms
        assert cfg.p_ls == pytest.approx(2000.0)
        assert cfg.i_ls == pytest.approx(0.2)
        assert cfg.master_seed == 20260810

    def test_watt_conversion(self):
        text = default_config_text().replace("p_ls = 2000 mW", "p_ls = 2 W")
        assert parse_config(text).p_ls == pytest.approx(2000.0)

    def test_negative_time_names_line(self):
        text = default_config_text().replace("t_d = 100 ns", "t_d = -1 us")
        with pytest.raises(ConfigError, match=r"line \d+.*t_d"):
            parse_config(text)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(default_config_text() + "bogus_key = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(default_config_text() + "t_d = 100 ns\n")

    def test_missing_required_key(self):
        text = default_config_text().replace("t_d = 100 ns", "")
        with pytest.raises(ConfigError, match="missing required keys.*t_d"):
            parse_config(text)

    def test_malformed_unit(self):
        text = default_config_text().replace("t_d = 100 ns", "t_d = 100 lightyears")
        with pytest.raises(ConfigError, match="unknown time unit"):
            parse_config(text)

    def test_unit_required_on_dimensioned_key(self):
        text = default_config_text().replace("t_d = 100 ns", "t_d = 0.1")
        with pytest.raises(ConfigError, match="needs"):
            parse_config(text)

    def test_unit_forbidden_on_dimensionless_key(self):
        text = default_config_text().replace("c0 = 0.03", "c0 = 0.03 us")
        with pytest.raises(ConfigError, match="dimensionless"):
            parse_config(text)

    def test_cross_field_invariant(self):
        # c0 outside (0, 1) passes per-line checks, fails model construction
        text = default_config_text().replace("c0 = 0.03", "c0 = 1.5")
        with pytest.raises(ConfigError, match="invariant"):
            parse_config(text)

    def test_oversized_sweep_rejected_before_grids_are_built(self):
        text = default_config_text().replace("sweep_points_i = 61",
                                             f"sweep_points_i = {10**12}")
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(ConfigError, match="invariant.*sweep"):
                parse_config(text)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 2**20

    def test_non_finite_optional_key(self):
        with pytest.raises(ConfigError, match="t_z_step must be finite"):
            parse_config(default_config_text() + "t_z_step = nan us\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigError, match="expected `key = value`"):
            parse_config(default_config_text() + "grid_nx 100\n")

    def test_validity_window_reaches_model(self):
        cfg = parse_config(default_config_text() + "i_valid_min = 0.002 mW/um2\n"
                           "i_valid_max = 8 mW/um2\n")
        model = cfg.model()
        assert (model.valid_min, model.valid_max) == (0.002, 8.0)
        with pytest.raises(OutOfRangeError):
            init_time(model, 0.001)

    def test_roundtrip(self):
        cfg = default_config()
        assert parse_config(cfg.to_text()) == cfg

    def test_roundtrip_with_optional_keys(self):
        text = default_config_text() + "t_z_step = 250 ns\ni_conf = 1 mW/um2\n"
        cfg = parse_config(text)
        assert cfg.t_z_step == pytest.approx(0.25)
        assert cfg.intensity_conf() == 1.0
        assert parse_config(cfg.to_text()) == cfg

    def test_hash_inside_value_is_kept(self):
        text = default_config_text().replace("output_dir = out",
                                             "output_dir = out#1  # run 1")
        cfg = parse_config(text)
        assert cfg.output_dir == "out#1"
        assert parse_config(cfg.to_text()) == cfg

    @pytest.mark.parametrize("value", ["out #1", "out\t#x", "out\nx", " out",
                                       "out ", ""])
    def test_to_text_rejects_value_that_would_not_round_trip(self, value):
        cfg = dataclasses.replace(default_config(), output_dir=value)
        with pytest.raises(ConfigError, match="would not parse back"):
            cfg.to_text()

    @pytest.mark.parametrize("value", ["out#1", "out 1", "a=b"])
    def test_to_text_round_trips_string_values(self, value):
        cfg = dataclasses.replace(default_config(), output_dir=value)
        assert parse_config(cfg.to_text()) == cfg

    def test_hash_after_unit_is_config_error(self, tmp_path):
        text = default_config_text().replace("t_d = 100 ns", "t_d = 100 ns#x")
        with pytest.raises(ConfigError, match="unknown time unit 'ns#x'"):
            parse_config(text)
        path = tmp_path / "hash.cfg"
        path.write_text(text)
        assert run_cli("--config", str(path), "eval",
                       "--out", str(tmp_path / "o")) == 1

    def test_comment_after_whitespace_or_at_line_start(self):
        text = default_config_text().replace("t_d = 100 ns",
                                             "#t_d = 5 us\nt_d = 100 ns\t#x")
        assert parse_config(text) == default_config()

    def test_default_model_is_package_default(self):
        # the synthetic coefficients are written in photophysics.DEFAULT_*
        # and again in default_config_text
        assert default_config().model() == qdmsim.PhotophysicsModel()

    def test_derived_quantities(self):
        cfg = default_config()
        assert cfg.intensity_conf() == pytest.approx(2.0 / 0.2809, rel=1e-12)
        p = cfg.protocol_params()
        assert p.t_d == cfg.t_d
        assert p.t1 == cfg.t1

    def test_model_built_once_per_config(self, monkeypatch):
        builds = []
        check = qdmsim.PhotophysicsModel._check_init_slower_below_saturation
        monkeypatch.setattr(qdmsim.PhotophysicsModel,
                            "_check_init_slower_below_saturation",
                            lambda model: builds.append(model) or check(model))
        cfg = parse_config(default_config_text())
        cfg.protocol_params()
        cfg.sweep_spec()
        assert len(builds) == 1
        assert cfg.model() is builds[0] is cfg.sweep_spec().model
        # the cached model is no field: equality, text and replace ignore it
        assert cfg == default_config() and hash(cfg) == hash(default_config())
        assert parse_config(cfg.to_text()) == cfg
        other = dataclasses.replace(cfg, c0=0.05)
        assert other.model().c0 == 0.05 and cfg.model().c0 == cfg.c0
        assert other.model() == dataclasses.replace(cfg.model(), c0=0.05)


class TestCommands:
    def test_eval_matches_library(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path)
        out = tmp_path / "eval"
        assert run_cli("--config", str(cfg_path), "eval", "--out", str(out)) == 0
        report = (out / "eval_report.txt").read_text()
        cfg = parse_config(cfg_path.read_text())
        cell = evaluate_point(cfg.model(), cfg.intensity_conf(), cfg.t_mw,
                              cfg.intensity_ls(), cfg.t1, cfg.t_d)
        assert f"eta_lc_sqrt_us = {cell.eta_lcqdm!r}" in report
        assert f"eta_conv_sqrt_us = {cell.eta_conventional!r}" in report
        assert report in capsys.readouterr().out

    def test_sweep_writes_csv_and_manifest(self, tmp_path):
        cfg_path = small_config(tmp_path)
        out = tmp_path / "sweep"
        assert run_cli("--config", str(cfg_path), "sweep", "--out", str(out),
                       "--pgm") == 0
        csv_lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 1 + 5 * 4
        manifest = (out / "manifest.txt").read_text()
        assert "command = sweep" in manifest
        assert "output sweep.csv sha256 " in manifest
        assert (out / "sweep_ratio_conv_lc.pgm").read_text().startswith("P2\n5 4\n")

    def test_sweep_single_cell(self, tmp_path):
        cfg_path = small_config(tmp_path,
                                **{"sweep_points_i = 5": "sweep_points_i = 1",
                                   "sweep_points_t = 4": "sweep_points_t = 1"})
        out = tmp_path / "sweep1"
        assert run_cli("--config", str(cfg_path), "sweep", "--out", str(out)) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 2

    def test_simulate_report(self, tmp_path):
        cfg_path = small_config(tmp_path)
        out = tmp_path / "sim"
        assert run_cli("--config", str(cfg_path), "simulate", "--protocol",
                       "conventional", "--out", str(out), "--trials", "40",
                       "--dump-trials") == 0
        report = (out / "simulate_report.txt").read_text()
        assert "protocol = Conventional" in report
        assert "n_trials = 40" in report
        trials = (out / "simulate_trials.csv").read_text().strip().split("\n")
        assert trials[0] == "trial,eta"
        assert len(trials) == 41

    def test_calibrate_roundtrip(self, tmp_path, model):
        grid = np.linspace(0.0, 12.0, 400)
        trace = simulate_calibration(model, 1.0, grid, 1, seed=3, noiseless=True)
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(trace_to_csv(trace))
        out = tmp_path / "cal"
        assert run_cli("calibrate", "--trace", str(trace_path),
                       "--intensity", "1.0", "--out", str(out)) == 0
        report = (out / "calibrate_report.txt").read_text()
        assert "t_init_us = 5.01" in report   # 3 * tau_p at I = 1
        assert "t_ro_us = 2.1" in report      # x* * tau_p = 2.099
        assert "peak_contrast = 0.03" in report

    def test_plan_outputs(self, tmp_path):
        cfg_path = small_config(tmp_path)
        out = tmp_path / "plan"
        assert run_cli("--config", str(cfg_path), "plan", "--protocol", "lcqdm",
                       "--out", str(out)) == 0
        report = (out / "plan_report.txt").read_text()
        assert "n_voxels = 64" in report
        rf = (out / "plan_rf.csv").read_text().strip().split("\n")
        assert len(rf) == 1 + 64


class TestPlanReport:
    @pytest.mark.parametrize("protocol", ["lcqdm", "leibold", "conventional"])
    def test_total_time_is_protocol_total(self, tmp_path, protocol):
        cfg_path = small_config(tmp_path)
        out = tmp_path / "plan"
        assert run_cli("--config", str(cfg_path), "plan", "--protocol", protocol,
                       "--out", str(out)) == 0
        report = read_report(out / "plan_report.txt")
        assert report["total_time_us"] == report[f"total_{protocol}_us"]

    @pytest.mark.parametrize("protocol", ["lcqdm", "leibold", "conventional"])
    def test_focus_steps_only_in_total_time(self, tmp_path, protocol):
        cfg_path = small_config(tmp_path, **{"grid_nz = 1": "grid_nz = 3"})
        cfg_path.write_text(cfg_path.read_text() + "t_z_step = 50 us\n")
        out = tmp_path / "plan"
        assert run_cli("--config", str(cfg_path), "plan", "--protocol", protocol,
                       "--out", str(out)) == 0
        report = read_report(out / "plan_report.txt")
        total = float(report["total_time_us"])
        without_steps = float(report[f"total_{protocol}_us"])
        assert total - without_steps == pytest.approx(
            (3 - 1) * (50.0 - 0.1), abs=1e-12 * total)


class TestExitCodes:
    def test_missing_trace_is_io_error(self, tmp_path):
        assert run_cli("calibrate", "--trace", str(tmp_path / "nope.csv")) == 3

    def test_bad_config_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(default_config_text().replace("t_d = 100 ns",
                                                      "t_d = -1 us"))
        assert run_cli("--config", str(path), "eval") == 1

    def test_non_finite_config_value(self, tmp_path, capsys):
        path = tmp_path / "nan.cfg"
        path.write_text(default_config_text() + "t_z_step = nan us\n")
        assert run_cli("--config", str(path), "eval") == 1
        assert "t_z_step must be finite" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert run_cli("--config", str(tmp_path / "nope.cfg"), "eval") == 3

    def test_usage_error(self):
        assert run_cli("simulate") == 1  # --protocol required

    def test_domain_error(self, tmp_path):
        assert run_cli("simulate", "--protocol", "lcqdm", "--trials", "0",
                       "--out", str(tmp_path / "x")) == 2

    def test_overflowing_curve_is_config_error(self, tmp_path):
        cfg_path = small_config(tmp_path, **{"init_a = 0.7": "init_a = 400"})
        proc = run_module("--config", str(cfg_path), "eval",
                          "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error:")

    def test_negative_seed_is_usage_error(self, tmp_path):
        cfg_path = small_config(tmp_path)
        proc = run_module("--config", str(cfg_path), "simulate", "--protocol",
                          "lcqdm", "--trials", "5", "--seed", "-1",
                          "--out", str(tmp_path / "s"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage error:")

    @pytest.mark.parametrize("command", ["simulate", "plan"])
    def test_overflowing_recurrent_count_is_domain_error(self, tmp_path, command):
        # t_ro_conf about 5e-301 us against t1 = 1e300 us
        cfg_path = small_config(tmp_path, **{
            "readout_a = 0.7": "readout_a = -300", "t_d = 100 ns": "t_d = 0 ns",
            "t1 = 5 ms": "t1 = 1e300 us"})
        proc = run_module("--config", str(cfg_path), command, "--protocol",
                          "lcqdm", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("domain error:")

    @pytest.mark.parametrize("argv, code", [
        (("plan", "--protocol", "lcqdm"), 0),
        (("plan", "--protocol", "leibold"), 0),
        (("plan", "--protocol", "conventional"), 0),
        (("simulate", "--protocol", "lcqdm", "--trials", "10"), 2),
    ])
    def test_recurrent_count_above_2_53_ends(self, tmp_path, argv, code):
        # t1 / slot is about 2e26, where stepping an integer count down by
        # one no longer changes its float value
        cfg_path = small_config(tmp_path, **{"t1 = 5 ms": "t1 = 1e27 us"})
        proc = run_module("--config", str(cfg_path), *argv,
                          "--out", str(tmp_path / "o"), timeout=60)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code == 2:
            assert proc.stderr.startswith("domain error:")
            assert "Poisson sampler" in proc.stderr

    def test_refused_allocation_is_exit_2(self, tmp_path):
        # 10**15 float64 estimates are 8 PB, beyond any 64-bit user address
        # space, so the allocation is refused at once and touches no memory
        proc = run_module("simulate", "--protocol", "conventional",
                          "--trials", str(10**15), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("memory error:")
        assert len(proc.stderr.splitlines()) == 1

    def test_non_utf8_config_is_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(default_config_text().encode().replace(
            b"output_dir = out", b"output_dir = out\xff"))
        proc = run_module("--config", str(path), "eval",
                          "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error:")
        assert len(proc.stderr.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_non_utf8_trace_is_domain_error(self, tmp_path, model):
        text = trace_to_csv(simulate_calibration(
            model, 1.0, np.linspace(0.0, 12.0, 40), 1, seed=3, noiseless=True))
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode().replace(b"\n0.0,", b"\n0.0\xff,", 1))
        proc = run_module("calibrate", "--trace", str(path),
                          "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("domain error:")
        assert len(proc.stderr.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("intensity", ["nan", "inf", "-1", "0", "-inf",
                                           "1e400", "x"])
    def test_bad_calibrate_intensity_is_usage_error(self, tmp_path, model,
                                                    capsys, intensity):
        path = tmp_path / "trace.csv"
        path.write_text(trace_to_csv(simulate_calibration(
            model, 1.0, np.linspace(0.0, 12.0, 400), 1, seed=3, noiseless=True)))
        out = tmp_path / "o"
        assert run_cli("calibrate", "--trace", str(path),
                       "--intensity", intensity, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    def test_flat_contrast_trace_is_domain_error(self, tmp_path):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{t}.0,0.97,1.0" for t in range(10))
        path.write_text("t_sweep_us,sig_pl,ref_pl\n" + rows + "\n")
        assert run_cli("calibrate", "--trace", str(path),
                       "--out", str(tmp_path / "y")) == 2


class TestDeterministicOutputs:
    @pytest.mark.parametrize("argv", [
        ("eval",),
        ("sweep", "--pgm"),
        ("simulate", "--protocol", "leibold", "--trials", "50", "--dump-trials"),
        ("plan", "--protocol", "conventional"),
    ])
    def test_rerun_byte_identical(self, tmp_path, argv):
        cfg_path = small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("--config", str(cfg_path), argv[0], "--out", str(out_a),
                       *argv[1:]) == 0
        assert run_cli("--config", str(cfg_path), argv[0], "--out", str(out_b),
                       *argv[1:]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and len(files_a) >= 2
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_changes_simulation_output(self, tmp_path):
        cfg_path = small_config(tmp_path)
        out_a, out_b = tmp_path / "s1", tmp_path / "s2"
        run_cli("--config", str(cfg_path), "simulate", "--protocol", "lcqdm",
                "--out", str(out_a), "--seed", "1")
        run_cli("--config", str(cfg_path), "simulate", "--protocol", "lcqdm",
                "--out", str(out_b), "--seed", "2")
        assert ((out_a / "simulate_report.txt").read_text()
                != (out_b / "simulate_report.txt").read_text())

    def test_failed_rewrite_leaves_no_stale_manifest(self, tmp_path):
        cfg_path = small_config(tmp_path)
        out = tmp_path / "o"
        assert run_cli("--config", str(cfg_path), "sweep", "--out", str(out),
                       "--pgm") == 0
        assert (out / "manifest.txt").exists()
        blocker = out / "sweep_ratio_leibold_lc.pgm"
        blocker.unlink()
        blocker.mkdir()
        cfg_path.write_text(cfg_path.read_text().replace(
            "sweep_points_i = 5", "sweep_points_i = 11"))
        assert run_cli("--config", str(cfg_path), "sweep", "--out", str(out),
                       "--pgm") == 3
        # the new sweep.csv was written, so the old manifest must be gone
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 11 * 4
        assert not (out / "manifest.txt").exists()
        assert sorted(p.name for p in out.iterdir()) == [
            "sweep.csv", "sweep_ratio_conv_lc.pgm", "sweep_ratio_leibold_lc.pgm"]

    def test_manifest_lists_every_output(self, tmp_path):
        cfg_path = small_config(tmp_path)
        out = tmp_path / "m"
        run_cli("--config", str(cfg_path), "sweep", "--out", str(out), "--pgm")
        manifest = (out / "manifest.txt").read_text()
        for p in out.iterdir():
            if p.name != "manifest.txt":
                assert f"output {p.name} sha256" in manifest


class TestParserCache:
    """The argument parser is built once per process and reused by main()."""

    def test_one_parser_per_process(self):
        assert qdmsim.cli._build_parser() is qdmsim.cli._build_parser()

    def test_not_built_at_import(self):
        done = subprocess.run(
            [sys.executable, "-c", "import qdmsim.cli; "
             "print(qdmsim.cli._build_parser.cache_info().currsize)"],
            env=dict(os.environ,
                     PYTHONPATH=str(Path(qdmsim.__file__).resolve().parents[1])),
            capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "0"

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, model):
        cfg = str(small_config(tmp_path))
        trace = tmp_path / "trace.csv"
        trace.write_text(trace_to_csv(simulate_calibration(
            model, 1.0, np.linspace(0.0, 12.0, 200), 1, seed=3, noiseless=True)))
        # The usage error parses --intensity before it fails; neither it nor
        # eval's --seed may carry over into a later call.
        calls = [("calibrate", "--intensity", "2.5"),
                 ("eval", "--seed", "5"),
                 ("calibrate", "--trace", str(trace)),
                 ("plan", "--protocol", "conventional")]
        for i, argv in enumerate(calls):
            here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
            code = run_cli("--config", cfg, *argv, "--out", str(here))
            done = run_module("--config", cfg, *argv, "--out", str(fresh))
            assert code == done.returncode == (1 if i == 0 else 0), done.stderr
            if i == 0:
                assert not here.exists() and not fresh.exists()
                continue
            assert ((here / "manifest.txt").read_bytes()
                    == (fresh / "manifest.txt").read_bytes())
        assert "master_seed = 5" in (tmp_path / "here1" / "manifest.txt").read_text()
        assert read_report(tmp_path / "here2" / "calibrate_report.txt")[
            "intensity_mw_per_um2"] != "2.5"
        assert "master_seed = 5" not in (
            tmp_path / "here3" / "manifest.txt").read_text()


class TestInputDigest:
    """manifest inputs_sha256 = sha256(config text, command, seed, extra input)."""

    @pytest.mark.parametrize("argv, extra", [
        (("eval",), ""),
        (("sweep", "--pgm"), ""),
        (("simulate", "--protocol", "leibold", "--trials", "7"),
         "protocol=leibold trials=7"),
        (("simulate", "--protocol", "lcqdm"), "protocol=lcqdm trials=None"),
        (("plan", "--protocol", "conventional"), "protocol=conventional"),
        (("calibrate", "--trace", "TRACE"), "TRACE"),
    ])
    def test_digest_per_command(self, tmp_path, model, argv, extra):
        cfg_path = small_config(tmp_path)
        cfg_text = cfg_path.read_text()
        trace_path = tmp_path / "trace.csv"
        trace_text = trace_to_csv(simulate_calibration(
            model, 1.0, np.linspace(0.0, 12.0, 50), 1, seed=3, noiseless=True))
        trace_path.write_text(trace_text)
        argv = [str(trace_path) if a == "TRACE" else a for a in argv]
        extra = trace_text if extra == "TRACE" else extra
        out = tmp_path / "o"
        assert run_cli("--config", str(cfg_path), *argv, "--seed", "11",
                       "--out", str(out)) == 0
        expected = hashlib.sha256(
            (cfg_text + f"\ncommand={argv[0]}\nseed=11\n" + extra).encode())
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert f"inputs_sha256 = {expected.hexdigest()}" in manifest

    def test_calibrate_reads_trace_once(self, tmp_path, model, monkeypatch):
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(trace_to_csv(simulate_calibration(
            model, 1.0, np.linspace(0.0, 12.0, 50), 1, seed=3, noiseless=True)))
        reads = []
        read_text = Path.read_text

        def counting_read_text(self, *args, **kwargs):
            reads.append(self.resolve())
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        assert run_cli("calibrate", "--trace", str(trace_path),
                       "--out", str(tmp_path / "o")) == 0
        assert reads.count(trace_path.resolve()) == 1


# Fuzz vocabulary.  Trial counts and grid sizes stay small so the fuzz runs
# in seconds; the oversized cases (a refused allocation, a sweep beyond
# MAX_SWEEP_CELLS) have their own tests above.
_UNIT_TOKENS = ["ns", "us", "ms", "s", "nm", "um", "mm", "uW", "mW", "W",
                "uW/um2", "mW/um2", "W/um2", "counts/us", "counts/ms", "kHz",
                "MHz", "GHz", "kHz/um", "MHz/um"]
_VALUE_TOKENS = ["0", "1", "-1", "2.5", "-0.0", "nan", "-nan", "inf", "-inf",
                 "1e400", "-1e400", "1e-320", "4.9e-324", "١٢",
                 "٣.٥", "５", "1_000", "0x10", "1e3",
                 "100000000000000000000000", "#", "#x", "5#x", "x", "=",
                 "lightyears", "mW/um^2", "us2", "MHZ"] + _UNIT_TOKENS
_KEY_LINES = [i for i, line in enumerate(default_config_text().splitlines())
              if "=" in line and not line.startswith("#")]


@st.composite
def _mutated_config(draw):
    """The default config with one key line replaced, dropped or doubled."""
    lines = default_config_text().splitlines()
    i = draw(st.sampled_from(_KEY_LINES))
    action = draw(st.sampled_from(["replace", "drop", "duplicate"]))
    if action == "drop":
        del lines[i]
    elif action == "duplicate":
        lines.insert(i, lines[i])
    else:
        tokens = draw(st.lists(st.sampled_from(_VALUE_TOKENS), max_size=3))
        sep = draw(st.sampled_from([" ", "", "\t", " # "]))
        lines[i] = lines[i].partition("=")[0] + "= " + sep.join(tokens)
    return "\n".join(lines) + "\n"


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(text=_mutated_config())
    def test_config_text_parses_and_round_trips_or_is_config_error(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert parse_config(cfg.to_text()) == cfg

    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_argv_ends_in_an_exit_code(self, tmp_path, model, data):
        paths = {"CFG": small_config(tmp_path), "MISSING": tmp_path / "nope",
                 "DIR": tmp_path, "TRACE": tmp_path / "trace.csv",
                 "FILE": tmp_path / "blocker"}
        paths["TRACE"].write_text(trace_to_csv(simulate_calibration(
            model, 1.0, np.linspace(0.0, 12.0, 40), 1, seed=3, noiseless=True)))
        paths["FILE"].write_text("")
        # files that are not UTF-8: a 0xff byte in a config value and in a
        # trace row
        paths["BADCFG"] = tmp_path / "bad.cfg"
        paths["BADCFG"].write_bytes(paths["CFG"].read_bytes().replace(
            b"c0 = 0.03", b"c0 = 0.03\xff"))
        paths["BADTRACE"] = tmp_path / "bad.csv"
        paths["BADTRACE"].write_bytes(
            paths["TRACE"].read_bytes().replace(b"\n0.0,", b"\n0.0\xff,"))
        assert all(b"\xff" in paths[k].read_bytes() for k in ("BADCFG", "BADTRACE"))
        files = ["TRACE", "MISSING", "DIR", "CFG", "BADCFG", "BADTRACE"]
        options = {"--seed": ["0", "7", "-1", "2.5"],
                   "--trials": ["1", "3", "0", "-1", "nan"],
                   "--intensity": ["1", "2.5", "0", "-1", "nan", "inf", "-inf",
                                   "1e400"],
                   "--protocol": ["lcqdm", "leibold", "conventional", "LCQDM"],
                   "--trace": files, "--mode": ["averaged", "instantaneous"],
                   "--pgm": [None], "--dump-trials": [None], "--config": files}
        own = {"eval": [], "sweep": ["--pgm"], "bogus": [],
               "simulate": ["--protocol", "--trials", "--dump-trials"],
               "calibrate": ["--trace", "--intensity", "--mode"],
               "plan": ["--protocol"]}
        head = data.draw(st.sampled_from(
            [[]] * 2 + [["--config", "CFG"]] * 4 + [["--config", "MISSING"],
                                                    ["--config", "DIR"],
                                                    ["--config", "BADCFG"]]))
        command = data.draw(st.sampled_from(sorted(own)))
        flags = data.draw(st.lists(
            st.sampled_from([*own[command], "--seed"] * 4 + sorted(options)),
            max_size=3))
        if command in ("simulate", "plan", "calibrate") and data.draw(
                st.integers(0, 9)):
            flags.insert(0, own[command][0])
        rest = []
        for flag in flags:
            odd = not data.draw(st.integers(0, 5))
            value = data.draw(st.sampled_from(["", "x"] if odd else options[flag]))
            rest += [flag] if value is None else [flag, value]
        # --out comes last and only ever names a place under tmp_path
        out = data.draw(st.sampled_from(["NEW", "NEW", "NEW", "FILE", "DIR"]))
        out = tempfile.mkdtemp(dir=tmp_path) if out == "NEW" else out
        argv = [str(paths.get(a, a)) for a in [*head, command, *rest,
                                               "--out", out]]
        assert main(argv) in (0, 1, 2, 3)
