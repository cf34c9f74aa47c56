"""The column-wise CSV writers against the row loops they replaced.

Each reference_* below is the writer as it was before it went through
qdmsim._csv: one repr/str per value and one f-string or join per row.
The RF references compute every voxel from VoxelGrid.coords and
rf_for_voxel, not from the plan, whose table the writer derives from the
same calibration.  The writers must return the same text, byte for byte,
on seeded configs and on random grids that cover invalid sweep columns
(nan cells), a 1 x 1 x 1 grid, nz = 1, nx != ny, negative AOM slopes and
plans with focus steps (t_z_step).
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qdmsim._csv
from qdmsim import (CONVENTIONAL, LCQDM, LEIBOLD, PROTOCOLS, CalibrationTrace,
                    PhotophysicsModel, SimConfig, default_config, init_time,
                    plan_acquisition, simulate_calibration, simulate_protocol,
                    rf_for_voxel, sweep, trace_to_csv)
from qdmsim._csv import column_text, csv_text
from qdmsim.cli import main
from qdmsim.sensitivity import CSV_HEADER


# -- the row-loop writers -----------------------------------------------------

def reference_cycles_csv(plan):
    lines = ["cycle,voxel_start,voxel_end,start_us,duration_us"]
    for i, (v0, v1, start, dur) in enumerate(plan.cycles.tolist()):
        lines.append(f"{i},{v0},{v1},{start!r},{dur!r}")
    return "\n".join(lines) + "\n"


def reference_rf_rows(grid, cal):
    for v in range(grid.n_voxels):
        voxel = grid.coords(v)
        yield (*voxel, *rf_for_voxel(voxel, grid, cal))


def reference_rf_csv(grid, cal):
    lines = ["voxel_x,voxel_y,voxel_z,f_sx_mhz,f_sy_mhz,f_dx_mhz,f_dy_mhz"]
    for ix, iy, iz, fsx, fsy, fdx, fdy in reference_rf_rows(grid, cal):
        lines.append(f"{ix},{iy},{iz},{fsx!r},{fsy!r},{fdx!r},{fdy!r}")
    return "\n".join(lines) + "\n"


def reference_to_csv(grid):
    t_mw, i_conf = np.meshgrid(grid.spec.t_mw_grid, grid.spec.i_conf_grid,
                               indexing="ij")
    cols = (i_conf.astype(float), t_mw.astype(float),
            grid.eta_lcqdm, grid.eta_leibold, grid.eta_conventional,
            grid.ratio_leibold_over_lc, grid.ratio_conv_over_lc,
            grid.valid.astype(int))
    rows = zip(*(col.ravel().tolist() for col in cols))
    lines = [CSV_HEADER, *(",".join(map(str, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def reference_trace_to_csv(trace):
    lines = ["t_sweep_us,sig_pl,ref_pl"]
    for t, s, r in zip(trace.t_sweep, trace.sig_pl, trace.ref_pl):
        lines.append(",".join(repr(float(v)) for v in (t, s, r)))
    return "\n".join(lines) + "\n"


def reference_trials_csv(trial_etas):
    """The old simulate_trials.csv loop, with float() added: the old loop
    printed repr of numpy scalars, "np.float64(...)" under numpy 2."""
    lines = ["trial,eta"]
    lines += [f"{i},{float(eta)!r}" for i, eta in enumerate(trial_etas)]
    return "\n".join(lines) + "\n"


# -- the helper ---------------------------------------------------------------

def _nan_with_payload(payload):
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


EDGE_VALUES = [0.0, -0.0, math.nan, -math.nan, _nan_with_payload(12345),
               math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e16, 9999999999999998.0, 1e-5, 0.0001, 1e22, 0.1, 1 / 3,
               -2.5, 1.7976931348623157e308]


class TestColumnText:
    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_single_value_repeated_and_alone(self, value):
        want = repr(value)
        assert column_text(np.array([value])) == [want]
        assert column_text(np.full(5, value)) == [want] * 5

    def test_signed_zeros_keep_their_sign(self):
        col = np.array([0.0, -0.0, -0.0, 0.0, 0.0])
        assert column_text(col) == ["0.0", "-0.0", "-0.0", "0.0", "0.0"]

    def test_repr_switches_to_exponent(self):
        col = np.array([1e16, 1e15, 1e-5, 1e-4, 1e16, 1e-5])
        assert column_text(col) == ["1e+16", "1000000000000000.0", "1e-05",
                                    "0.0001", "1e+16", "1e-05"]

    def test_edge_values_mixed(self):
        col = np.array(EDGE_VALUES * 3)
        assert column_text(col) == [repr(v) for v in col.tolist()]
        assert column_text(col[::-1]) == [repr(v) for v in col[::-1].tolist()]

    def test_all_distinct_column(self):
        col = np.cumsum(np.random.default_rng(1).random(1000))
        assert column_text(col) == [repr(v) for v in col.tolist()]

    def test_integers_and_sequences(self):
        assert column_text(np.array([3, -1, 3, 0, 2**40])) == [
            "3", "-1", "3", "0", "1099511627776"]
        assert column_text(np.array([0, 1, 1, 0])) == ["0", "1", "1", "0"]
        assert column_text([1.5, np.float64(1.5), math.inf]) == [
            "1.5", "1.5", "inf"]
        assert column_text(np.array([], dtype=float)) == []

    def test_two_dimensional_is_raveled_in_row_order(self):
        col = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert column_text(col) == ["1.0", "2.0", "2.0", "3.0"]

    def test_each_distinct_value_formatted_once(self, monkeypatch):
        calls = []

        def counting_repr(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(qdmsim._csv, "repr", counting_repr, raising=False)
        col = np.tile(80.0 + 0.1 * np.arange(40), 160)
        assert column_text(col) == [repr(v) for v in col.tolist()]
        assert len(calls) == 40

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(EDGE_VALUES),
                              st.floats(allow_nan=True, allow_infinity=True)),
                    max_size=40),
           st.integers(1, 4))
    def test_matches_repr_per_value(self, values, repeat):
        col = np.array(values * repeat, dtype=float)
        assert column_text(col) == [repr(v) for v in col.tolist()]


class TestCsvText:
    def test_no_rows_is_header_line(self):
        assert csv_text("a,b", [[], []]) == "a,b\n"

    def test_rows_joined_column_wise(self):
        assert csv_text("a,b", [["1", "2"], iter(["x", "y"])]) == "a,b\n1,x\n2,y\n"


# -- the writers on seeded configs ------------------------------------------

N_CONFIGS = 24


def seeded_config(seed):
    """Default config with seeded grid, AOM map, focus step and sweep range.

    Seed 0 is a 1 x 1 x 1 grid.  The sweep's intensity range reaches past
    the model validity window on either side for some seeds, which makes
    whole columns of nan cells.
    """
    rng = np.random.default_rng([20261018, seed])
    nx, ny = (1, 1) if seed == 0 else rng.integers(1, 13, 2)
    nz = 1 if seed == 0 else int(rng.choice([1, 1, 2, 3]))
    pitch = float(10.0 ** rng.uniform(-1, 1))
    aom = {}
    for axis, n in (("scan_x", nx), ("scan_y", ny), ("descan_x", nx),
                    ("descan_y", ny)):
        f0 = float(rng.uniform(50.0, 150.0))
        reach = 0.9 * f0 / max(1, n - 1) / pitch  # frequencies stay positive
        aom[f"aom_{axis}_f0"] = f0
        aom[f"aom_{axis}_slope"] = float(rng.choice([-1.0, 1.0])
                                         * rng.uniform(0.01, 1.0) * reach)
    return dataclasses.replace(
        default_config(), grid_nx=int(nx), grid_ny=int(ny), grid_nz=nz,
        grid_pitch=pitch,
        t_z_step=None if rng.random() < 0.3 else float(rng.uniform(0.0, 80.0)),
        t_mw=float(10.0 ** rng.uniform(0, 3)),
        p_conf_min=float(10.0 ** rng.uniform(-4, -2)),
        p_conf_max=float(10.0 ** rng.uniform(-0.5, 0.7)),
        sweep_points_i=int(rng.integers(1, 10)),
        sweep_points_t=int(rng.integers(1, 10)), **aom)


def _features(cfg):
    grid = sweep(cfg.sweep_spec())
    slopes = [getattr(cfg, f"aom_{a}_slope")
              for a in ("scan_x", "scan_y", "descan_x", "descan_y")]
    return {"nan cells": grid.n_valid < grid.eta_lcqdm.size,
            "1x1x1": (cfg.grid_nx, cfg.grid_ny, cfg.grid_nz) == (1, 1, 1),
            "nz = 1": cfg.grid_nz == 1, "nz > 1": cfg.grid_nz > 1,
            "negative slope": min(slopes) < 0, "t_z_step": cfg.t_z_step is not None,
            "no t_z_step": cfg.t_z_step is None}


def test_seeded_configs_cover_the_edge_cases():
    seen = {}
    for seed in range(N_CONFIGS):
        for name, present in _features(seeded_config(seed)).items():
            seen[name] = seen.get(name, False) or present
    assert all(seen.values()), seen


@pytest.mark.parametrize("seed", range(N_CONFIGS))
def test_sweep_csv_matches_row_loop(seed):
    grid = sweep(seeded_config(seed).sweep_spec())
    assert grid.to_csv() == reference_to_csv(grid)


@pytest.mark.parametrize("tag", PROTOCOLS)
@pytest.mark.parametrize("seed", range(N_CONFIGS))
def test_plan_csvs_match_row_loop(seed, tag):
    cfg = seeded_config(seed)
    plan = plan_acquisition(cfg.voxel_grid(), cfg.protocol_params(), tag,
                            cal=cfg.aom_calibration(), t_z_step=cfg.t_z_step)
    assert plan.cycles_csv() == reference_cycles_csv(plan)
    assert plan.rf_csv() == reference_rf_csv(cfg.voxel_grid(), cfg.aom_calibration())


@st.composite
def random_configs(draw):
    """Configs over random grids: nx, ny and the sweep sizes in 1..13, nz in
    1..3, pitch 0.1..10 um, signed AOM slopes that keep every frequency
    positive, t_z_step set or not, and sweep ranges that may leave the
    model's validity window."""
    nx, ny = draw(st.integers(1, 13)), draw(st.integers(1, 13))
    pitch = draw(st.floats(0.1, 10.0))
    aom = {}
    for axis, n in (("scan_x", nx), ("scan_y", ny), ("descan_x", nx),
                    ("descan_y", ny)):
        f0 = draw(st.floats(50.0, 150.0))
        reach = 0.9 * f0 / max(1, n - 1) / pitch
        aom[f"aom_{axis}_f0"] = f0
        aom[f"aom_{axis}_slope"] = (draw(st.sampled_from([-1.0, 1.0]))
                                    * draw(st.floats(0.01, 1.0)) * reach)
    return dataclasses.replace(
        default_config(), grid_nx=nx, grid_ny=ny, grid_nz=draw(st.integers(1, 3)),
        grid_pitch=pitch, t_z_step=draw(st.none() | st.floats(0.0, 80.0)),
        p_conf_min=10.0 ** draw(st.floats(-4.0, -2.0)),
        p_conf_max=10.0 ** draw(st.floats(-0.5, 0.7)),
        sweep_points_i=draw(st.integers(1, 13)),
        sweep_points_t=draw(st.integers(1, 13)), **aom)


@settings(max_examples=60, deadline=None)
@given(random_configs(), st.sampled_from(PROTOCOLS))
def test_writers_match_row_loops_on_random_grids(cfg, tag):
    grid, cal = cfg.voxel_grid(), cfg.aom_calibration()
    plan = plan_acquisition(grid, cfg.protocol_params(), tag, cal=cal,
                            t_z_step=cfg.t_z_step)
    assert plan.rf_csv() == reference_rf_csv(grid, cal)
    assert plan.cycles_csv() == reference_cycles_csv(plan)
    bare = plan_acquisition(grid, cfg.protocol_params(), tag, t_z_step=cfg.t_z_step)
    assert bare.cycles_csv() == plan.cycles_csv()
    sweep_grid = sweep(cfg.sweep_spec())
    assert sweep_grid.to_csv() == reference_to_csv(sweep_grid)


class TestTraceCsv:
    @pytest.mark.parametrize("noiseless", [True, False])
    @pytest.mark.parametrize("intensity", [0.05, 1.0, 6.0])
    def test_matches_row_loop(self, intensity, noiseless):
        model = PhotophysicsModel()
        grid = np.linspace(0.0, 1.25 * init_time(model, intensity), 500)
        trace = simulate_calibration(model, intensity, grid, 200, seed=4,
                                     noiseless=noiseless)
        assert trace_to_csv(trace) == reference_trace_to_csv(trace)

    def test_edge_traces(self):
        empty = CalibrationTrace(1.0, np.array([]), np.array([]), np.array([]))
        assert trace_to_csv(empty) == "t_sweep_us,sig_pl,ref_pl\n"
        signed = CalibrationTrace(1.0, np.array([-0.0, 1e-5, 1e16]),
                                  np.array([0.0, -0.0, 5e-324]),
                                  np.array([1.0, 1.0, 1.0]))
        text = trace_to_csv(signed)
        assert text == reference_trace_to_csv(signed)
        assert text.splitlines()[1:] == ["-0.0,0.0,1.0", "1e-05,-0.0,1.0",
                                         "1e+16,5e-324,1.0"]


@pytest.mark.parametrize("tag", [LCQDM, LEIBOLD, CONVENTIONAL])
def test_trials_csv_matches_row_loop(tmp_path, tag):
    cfg = default_config()
    etas = []
    simulate_protocol(SimConfig(params=cfg.protocol_params(), model=cfg.model(),
                                i_conf=cfg.intensity_conf(), n_trials=300,
                                master_seed=5), tag, trial_etas_out=etas)
    out = tmp_path / "sim"
    assert main(["simulate", "--protocol", tag.lower(), "--trials", "300",
                 "--seed", "5", "--dump-trials", "--out", str(out)]) == 0
    text = (out / "simulate_trials.csv").read_text()
    assert text == reference_trials_csv(etas)
    assert "np." not in text
