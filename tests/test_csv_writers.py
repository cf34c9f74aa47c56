"""The column-wise CSV writers against the row loops they replaced.

Each reference_* below is the writer as it was before it went through
qdmsim._csv: one repr/str per value and one f-string or join per row.
The RF references compute every voxel from VoxelGrid.coords and
rf_for_voxel, not from the plan; the writer gets the same grid and
calibration.  The writers must return the same text, byte for byte,
on seeded configs and on random grids that cover invalid sweep columns
(nan cells), a 1 x 1 x 1 grid, nz = 1, nx != ny, negative AOM slopes and
plans with focus steps (t_z_step).

The table builder's float kernel is held to repr itself: on edge values,
on hypothesis draws of floats and of raw 64-bit patterns, and on a seeded
set of over a million values from the families where a shortest-digit
search can slip.  A tracemalloc test bounds each writer's peak.
"""

import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qdmsim._csv
from qdmsim import (CONVENTIONAL, LCQDM, LEIBOLD, PROTOCOLS, CalibrationTrace,
                    PhotophysicsModel, SimConfig, default_config, init_time,
                    plan_acquisition, simulate_calibration, simulate_protocol,
                    rf_for_voxel, sweep, trace_to_csv)
from qdmsim._csv import Axis, csv_text
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


def assert_same_text(got, want):
    """got == want exactly.  A mismatch fails with the first differing line
    and both lines, not pytest's diff of two large texts, which can run for
    minutes."""
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    n = next((i for i, pair in enumerate(zip(got_lines, want_lines))
              if pair[0] != pair[1]), min(len(got_lines), len(want_lines)))
    end = "<end of text>"
    pytest.fail(f"texts differ first at line {n + 1}:\n"
                f"  got:  {(got_lines[n] if n < len(got_lines) else end)!r}\n"
                f"  want: {(want_lines[n] if n < len(want_lines) else end)!r}",
                pytrace=False)


# -- the table builder --------------------------------------------------------

def column_text(values):
    """The texts csv_text writes for one column, as a list."""
    return csv_text("v", [np.asarray(values)]).split("\n")[1:-1]


def _nan_with_payload(payload):
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


#: A decimal tie: the two nearest 17-digit texts, ...973.2 and ...973.3,
#: are equally far from the double, and repr takes the even one.
TIE = 1502805014714973.25

EDGE_VALUES = [0.0, -0.0, math.nan, -math.nan, _nan_with_payload(12345),
               math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e16, 9999999999999998.0, 1e-5, 0.0001, 1e22, 0.1, 1 / 3,
               -2.5, 1.7976931348623157e308, TIE, -TIE, 1502805014714973.75,
               1.0, 2.0, 0.5, 2.0**-14, 2.0**52, -(2.0**40), 1024.0]


#: Fractions that end at or just past an edge of the kernel's 4-digit
#: groups, each with its number of fraction digits, and fractions that
#: hold whole groups of zeros.
GROUP_EDGES = [(0.7, 1), (1.2345, 4), (1.23456, 5), (1.23456789, 8), (1.234567891, 9),
               (0.1234567890123456, 16), (0.30000000000000004, 17),
               (0.012345678901234567, 18), (0.00012345678901234567, 20),
               (1.00001, 5), (0.000100001, 9), (1.00000001, 8),
               (0.0001000000000001, 16), (10.000000000000002, 15)]


def uncertified(x):
    """The values the kernel leaves to repr for a reason it can name: not
    finite, zero, outside repr's positional range [1e-4, 1e16), or with a
    power-of-two mantissa.  Near-ties come on top of these."""
    a = np.abs(x)
    mantissa = x.view(np.uint64) & np.uint64(2**52 - 1)
    return ~((a >= 1e-4) & (a < 1e16)) | (mantissa == 0)


def edge_family_values(seed, n):
    """About n seeded values from the families where a shortest-digit
    search can slip: short decimals m * 10**k and the doubles 1 and 2 ulp
    either side of them, binary fractions at the top of the positional
    range (decimal ties among them), sums, grids and random bit patterns."""
    rng = np.random.default_rng([20261019, seed])
    k = n // 8
    digits = rng.integers(1, 18, k)
    m = np.floor(10.0 ** (digits - 1) * (1 + 9 * rng.random(k)))
    short = m * 10.0 ** rng.integers(-22, 2, k).astype(float)
    short = short[(short > 0) & np.isfinite(short)]
    near = [np.nextafter(short, sign * np.inf) for sign in (1, -1)]
    near += [np.nextafter(v, sign * np.inf) for v, sign in zip(near, (1, -1))]
    binade = rng.integers(40, 54, k)
    top = np.ldexp(1.0 + rng.random(k), binade - 1)
    top = np.floor(top) + rng.integers(0, 64, k) * np.ldexp(1.0, binade - 53)
    return np.concatenate([
        short, *near, top, -top,
        np.cumsum(rng.random(k)), np.arange(k) / 1e5, np.linspace(0.0, 1.0, k),
        rng.integers(0, 2**64, k, dtype=np.uint64).view(np.float64)])


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
        assert column_text(np.array([True, False])) == ["1", "0"]
        extremes = np.array([-2**63, 2**63 - 1, -9999, 10000, -10**15])
        assert column_text(extremes) == [str(v) for v in extremes.tolist()]
        assert column_text([1.5, np.float64(1.5), math.inf]) == [
            "1.5", "1.5", "inf"]
        assert column_text(np.array([], dtype=float)) == []

    def test_axis_rows_repeat_and_wrap(self):
        text = csv_text("a,b,c", [Axis(np.array([1.5, -2.0])),
                                  Axis(np.array([7, 8, 9]), 2),
                                  np.arange(7)])
        assert text.splitlines()[1:] == [
            "1.5,7,0", "-2.0,7,1", "1.5,8,2", "-2.0,8,3", "1.5,9,4", "-2.0,9,5",
            "1.5,7,6"]
        # a table of axes alone has one row per period of the slowest
        assert csv_text("a,b", [Axis(np.arange(2)), Axis(np.array([0.25]), 2)]
                        ).splitlines()[1:] == ["0,0.25", "1,0.25"]

    def test_repr_only_for_uncertified_values(self, monkeypatch):
        calls = []

        def counting_repr(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(qdmsim._csv, "repr", counting_repr, raising=False)
        rng = np.random.default_rng(3)
        col = np.concatenate([np.tile(80.0 + 0.1 * np.arange(40), 160),
                              rng.random(2000) * 1e3, EDGE_VALUES])
        assert column_text(col) == [repr(v) for v in col.tolist()]
        # one call per uncertified value, in order.  The near-ties here are
        # the decimal ties and 9999999999999998.0, whose rounding interval
        # ends on integers.
        near_ties = np.isin(np.abs(col), [TIE, 1502805014714973.75, 9999999999999998.0])
        want = col[uncertified(col) | near_ties]
        assert np.array_equal(np.array(calls), want, equal_nan=True)
        assert len(calls) == len(EDGE_VALUES) - 4  # 0.0001, 0.1, 1/3, -2.5 pass

    @pytest.mark.parametrize("value, digits", GROUP_EDGES, ids=repr)
    def test_fraction_digit_groups(self, monkeypatch, value, digits):
        assert len(repr(value).partition(".")[2]) == digits
        calls = []

        def counting_repr(v):
            calls.append(v)
            return repr(v)

        monkeypatch.setattr(qdmsim._csv, "repr", counting_repr, raising=False)
        # alone, and beside a shorter fraction and the longest, which widens
        # the block to five groups
        for col in ([value], [value, -value, 2.5, 0.00012345678901234567]):
            assert column_text(np.array(col)) == [repr(v) for v in col]
        assert not calls  # the kernel wrote every digit

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(EDGE_VALUES),
                              st.floats(allow_nan=True, allow_infinity=True)),
                    max_size=40),
           st.integers(1, 4))
    def test_matches_repr_per_value(self, values, repeat):
        col = np.array(values * repeat, dtype=float)
        assert column_text(col) == [repr(v) for v in col.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
    def test_matches_repr_on_bit_patterns(self, patterns):
        col = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert column_text(col) == [repr(v) for v in col.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-4, 1e16, exclude_max=True), min_size=1, max_size=60))
    def test_matches_repr_in_positional_range(self, values):
        col = np.array(values)
        assert column_text(col) == [repr(v) for v in col.tolist()]

    def test_edge_families(self):
        col = edge_family_values(0, 750_000)
        assert len(col) >= 10**6
        assert_same_text("\n".join(column_text(col)), "\n".join(map(repr, col.tolist())))


class TestCsvText:
    def test_no_rows_is_header_line(self):
        assert csv_text("a,b", [np.array([]), np.array([], dtype=int)]) == "a,b\n"

    def test_rows_joined_column_wise(self):
        assert csv_text("a,b", [np.array([1, 2]), np.array([0.5, -3.0])]) == (
            "a,b\n1,0.5\n2,-3.0\n")

    def test_blocks_join_seamlessly(self, monkeypatch):
        col = np.cumsum(np.random.default_rng(2).random(1000))
        want = csv_text("i,x", [np.arange(1000), col])
        monkeypatch.setattr(qdmsim._csv, "BLOCK_VALUES", 7)
        assert_same_text(csv_text("i,x", [np.arange(1000), col]), want)
        assert want.splitlines()[1:] == [f"{i},{v!r}" for i, v in enumerate(col.tolist())]

    @pytest.mark.parametrize("block_values", [7, 60])
    def test_axis_blocks_join_seamlessly(self, monkeypatch, block_values):
        """Blocks of one row, and of 8 (RF table) or 7 (sweep) rows, which
        start inside the periods of a 7 x 5 x 3 grid's axes and of a 6 x 4
        sweep's: both writers still match their row loops."""
        monkeypatch.setattr(qdmsim._csv, "BLOCK_VALUES", block_values)
        cfg = dataclasses.replace(default_config(), grid_nx=7, grid_ny=5, grid_nz=3,
                                  sweep_points_i=6, sweep_points_t=4)
        grid, cal = cfg.voxel_grid(), cfg.aom_calibration()
        plan = plan_acquisition(grid, cfg.protocol_params(), CONVENTIONAL)
        assert_same_text(plan.rf_csv(cal), reference_rf_csv(grid, cal))
        sweep_grid = sweep(cfg.sweep_spec())
        assert_same_text(sweep_grid.to_csv(), reference_to_csv(sweep_grid))


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
    assert_same_text(grid.to_csv(), reference_to_csv(grid))


@pytest.mark.parametrize("tag", PROTOCOLS)
@pytest.mark.parametrize("seed", range(N_CONFIGS))
def test_plan_csvs_match_row_loop(seed, tag):
    cfg = seeded_config(seed)
    grid, cal = cfg.voxel_grid(), cfg.aom_calibration()
    plan = plan_acquisition(grid, cfg.protocol_params(), tag, t_z_step=cfg.t_z_step)
    assert_same_text(plan.cycles_csv(), reference_cycles_csv(plan))
    assert_same_text(plan.rf_csv(cal), reference_rf_csv(grid, cal))


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
    plan = plan_acquisition(grid, cfg.protocol_params(), tag, t_z_step=cfg.t_z_step)
    assert_same_text(plan.rf_csv(cal), reference_rf_csv(grid, cal))
    assert_same_text(plan.cycles_csv(), reference_cycles_csv(plan))
    sweep_grid = sweep(cfg.sweep_spec())
    assert_same_text(sweep_grid.to_csv(), reference_to_csv(sweep_grid))


class TestTraceCsv:
    @pytest.mark.parametrize("noiseless", [True, False])
    @pytest.mark.parametrize("intensity", [0.05, 1.0, 6.0])
    def test_matches_row_loop(self, intensity, noiseless):
        model = PhotophysicsModel()
        grid = np.linspace(0.0, 1.25 * init_time(model, intensity), 500)
        trace = simulate_calibration(model, intensity, grid, 200, seed=4,
                                     noiseless=noiseless)
        assert_same_text(trace_to_csv(trace), reference_trace_to_csv(trace))

    def test_edge_traces(self):
        empty = CalibrationTrace(1.0, np.array([]), np.array([]), np.array([]))
        assert trace_to_csv(empty) == "t_sweep_us,sig_pl,ref_pl\n"
        signed = CalibrationTrace(1.0, np.array([-0.0, 1e-5, 1e16]),
                                  np.array([0.0, -0.0, 5e-324]),
                                  np.array([1.0, 1.0, 1.0]))
        text = trace_to_csv(signed)
        assert_same_text(text, reference_trace_to_csv(signed))
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
    assert_same_text(text, reference_trials_csv(etas))
    assert "np." not in text


@pytest.mark.parametrize("writer", ["to_csv", "cycles_csv", "rf_csv"])
def test_writer_peak_within_three_times_its_text(writer):
    """The default 61 x 61 sweep and 100 x 100 conventional plan: a writer's
    traced allocation peak stays within 3x the text it returns, so the
    byte matrices are built block by block."""
    cfg = default_config()
    if writer == "to_csv":
        write = sweep(cfg.sweep_spec()).to_csv
    else:
        plan = plan_acquisition(cfg.voxel_grid(), cfg.protocol_params(), CONVENTIONAL)
        write = (plan.cycles_csv if writer == "cycles_csv"
                 else lambda: plan.rf_csv(cfg.aom_calibration()))
    write()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = write()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(text) > 10**5
    assert peak <= 3 * len(text)
