import math
import tracemalloc

import numpy as np
import pytest

import qdmsim.scanplan
from qdmsim import (AOMAxis, AOMCalibration, CONVENTIONAL, DomainError, LCQDM,
                    LEIBOLD, PhotophysicsModel, ProtocolParams, VoxelGrid,
                    build_conventional_cycle, build_cycle, default_config,
                    init_time, plan_acquisition, readout_time, rf_for_voxel,
                    speedup_report, voxel_for_rf)
from qdmsim.sequence import cycle_layout


def make_params(t_init_ls=20.0, t_init_conf=20.0, t_ro=5.0, t_mw=100.0,
                t_d=0.1, t1=5000.0):
    return ProtocolParams(t_init_ls=t_init_ls, t_init_conf=t_init_conf,
                          t_ro_conf=t_ro, t_mw=t_mw, t_d=t_d, t1=t1)


def default_cal():
    return AOMCalibration(scan_x=AOMAxis(80.0, 0.1), scan_y=AOMAxis(80.0, 0.1),
                          descan_x=AOMAxis(80.0, -0.1),
                          descan_y=AOMAxis(80.0, -0.1))


class TestGrid:
    def test_raster_coords(self):
        g = VoxelGrid(3, 2, 2, 1.0)
        assert g.coords(0) == (0, 0, 0)
        assert g.coords(2) == (2, 0, 0)
        assert g.coords(3) == (0, 1, 0)
        assert g.coords(6) == (0, 0, 1)
        assert g.coords(11) == (2, 1, 1)

    def test_bounds(self):
        g = VoxelGrid(2, 2, 1, 1.0)
        with pytest.raises(IndexError):
            g.coords(4)
        with pytest.raises(DomainError):
            VoxelGrid(0, 2, 1, 1.0)
        with pytest.raises(DomainError):
            VoxelGrid(2, 2, 1, 0.0)

    @pytest.mark.parametrize("dims", [(2.5, 2, 1), (2, 2.0, 1), (2, 2, "1")])
    def test_non_integer_dimensions_rejected(self, dims):
        with pytest.raises(DomainError, match="integer"):
            VoxelGrid(*dims, 1.0)

    def test_numpy_integer_dimensions_accepted(self):
        g = VoxelGrid(np.int64(3), np.int32(2), np.int8(2), 1.0)
        assert g == VoxelGrid(3, 2, 2, 1.0)
        assert g.n_voxels == 12

    @pytest.mark.parametrize("pitch", [math.nan, math.inf, -math.inf])
    def test_non_finite_pitch_rejected(self, pitch):
        with pytest.raises(DomainError, match="pitch"):
            VoxelGrid(2, 2, 1, pitch)


class TestPlanTotals:
    def test_lcqdm_100x100(self):
        plan = plan_acquisition(VoxelGrid(100, 100, 1, 1.0), make_params(), LCQDM)
        assert len(plan.cycles) == 11  # ceil(10000 / 980)
        assert plan.total_time == pytest.approx(52320.0, rel=1e-12)
        # last partial cycle holds the remaining 200 voxels
        assert plan.cycles[-1].voxel_end - plan.cycles[-1].voxel_start + 1 == 200

    def test_conventional_100x100(self):
        plan = plan_acquisition(VoxelGrid(100, 100, 1, 1.0), make_params(),
                                CONVENTIONAL)
        assert len(plan.cycles) == 10000
        assert plan.total_time == pytest.approx(1251000.0, rel=1e-12)

    def test_single_voxel_equals_sequence_span(self):
        p = make_params()
        g = VoxelGrid(1, 1, 1, 1.0)
        conv = plan_acquisition(g, p, CONVENTIONAL)
        assert conv.total_time == pytest.approx(
            build_conventional_cycle(p).span(), rel=1e-12)
        lc = plan_acquisition(g, p, LCQDM)
        assert lc.total_time == pytest.approx(
            build_cycle(LCQDM, p, 1).span(), rel=1e-12)

    def test_event_sum_equivalence(self):
        p = make_params()
        for tag in (LCQDM, LEIBOLD):
            plan = plan_acquisition(VoxelGrid(100, 100, 1, 1.0), p, tag)
            event_total = sum(
                build_cycle(tag, p, c.voxel_end - c.voxel_start + 1).span()
                for c in plan.cycles)
            assert plan.total_time == pytest.approx(event_total, rel=1e-12)

    def test_cycles_partition_grid(self):
        plan = plan_acquisition(VoxelGrid(37, 11, 3, 1.0), make_params(), LEIBOLD)
        covered = []
        for c in plan.cycles:
            covered.extend(range(c.voxel_start, c.voxel_end + 1))
        assert covered == list(range(37 * 11 * 3))

    def test_cycle_starts_abut(self):
        plan = plan_acquisition(VoxelGrid(40, 40, 1, 1.0), make_params(), LCQDM)
        for prev, cur in zip(plan.cycles, plan.cycles[1:]):
            assert cur.start == pytest.approx(prev.start + prev.duration, rel=1e-12)
        last = plan.cycles[-1]
        assert plan.total_time == pytest.approx(last.start + last.duration, rel=1e-12)

    def test_durations_depend_only_on_count(self):
        # scan order inside a cycle cannot change its cost
        p = make_params()
        plan = plan_acquisition(VoxelGrid(100, 100, 1, 1.0), p, LCQDM)
        slot = p.t_ro_conf + p.t_d
        for c in plan.cycles:
            count = c.voxel_end - c.voxel_start + 1
            assert c.duration == pytest.approx(
                p.t_init_ls + p.t_mw + count * slot, rel=1e-12)

    def test_z_step_overhead(self):
        p = make_params()
        g = VoxelGrid(2, 2, 3, 1.0)
        base = plan_acquisition(g, p, CONVENTIONAL)
        slow_z = plan_acquisition(g, p, CONVENTIONAL, t_z_step=2.5)
        # two plane boundaries in raster order
        assert slow_z.total_time == pytest.approx(
            base.total_time + 2 * (2.5 - p.t_d), rel=1e-12)

    # cycles hold 980 voxels: with 140-voxel planes each one ends on the
    # last voxel of a plane, with 9-voxel planes the second one starts there
    @pytest.mark.parametrize("nx, ny, nz", [(10, 10, 30), (14, 10, 30),
                                            (9, 1, 400)])
    def test_multi_plane_cycles_match_per_voxel_crossings(self, nx, ny, nz):
        p = make_params()
        g = VoxelGrid(nx, ny, nz, 1.0)
        t_z = 7.5
        plan = plan_acquisition(g, p, LCQDM, t_z_step=t_z)
        n, plane = g.n_voxels, g.nx * g.ny
        assert any(c.voxel_end // plane - c.voxel_start // plane > 1
                   for c in plan.cycles)
        for c in plan.cycles:
            # reference: a focus step after every voxel whose successor
            # lies on the next plane
            crossings = sum(1 for u in range(c.voxel_start, c.voxel_end + 1)
                            if u + 1 < n and (u + 1) // plane != u // plane)
            count = c.voxel_end - c.voxel_start + 1
            assert c.duration == pytest.approx(
                p.t_init_ls + p.t_mw + count * (p.t_ro_conf + p.t_d)
                + crossings * (t_z - p.t_d), rel=1e-12)
        last = plan.cycles[-1]
        assert plan.total_time == pytest.approx(last.start + last.duration,
                                                rel=1e-12)

    def test_negative_z_step_rejected(self):
        with pytest.raises(DomainError):
            plan_acquisition(VoxelGrid(2, 2, 2, 1.0), make_params(),
                             CONVENTIONAL, t_z_step=-1.0)

    @pytest.mark.parametrize("tag", [LCQDM, LEIBOLD, CONVENTIONAL])
    @pytest.mark.parametrize("t_z", [math.nan, math.inf, -math.inf])
    def test_non_finite_z_step_rejected(self, tag, t_z):
        # a NaN focus step once gave total_time nan instead of an error
        with pytest.raises(DomainError, match="t_z_step must be finite"):
            plan_acquisition(VoxelGrid(2, 2, 2, 1.0), make_params(), tag,
                             t_z_step=t_z)
        with pytest.raises(DomainError, match="t_z_step must be finite"):
            qdmsim.scanplan._scan_total(VoxelGrid(2, 2, 2, 1.0), make_params(),
                                        tag, t_z)

    def test_unknown_protocol(self):
        with pytest.raises(DomainError):
            plan_acquisition(VoxelGrid(2, 2, 1, 1.0), make_params(), "Bogus")


class TestSpeedup:
    def test_reference_grid(self):
        report = speedup_report(VoxelGrid(100, 100, 1, 1.0), make_params())
        assert report.conventional_over_lcqdm == pytest.approx(23.9105, abs=1e-3)
        assert report.leibold_over_lcqdm > 1.0

    def test_degenerate_batching(self):
        # t1 below one slot: every protocol reads one voxel per cycle and
        # the only light-sheet advantage left is the init-time difference
        p = make_params(t_ro=50.0, t_d=0.0, t1=10.0, t_init_ls=5.0,
                        t_init_conf=20.0, t_mw=100.0)
        report = speedup_report(VoxelGrid(10, 10, 1, 1.0), p)
        assert cycle_layout(LCQDM, p)[0] == 1
        per_voxel_lc = p.t_init_ls + p.t_mw + p.t_ro_conf
        per_voxel_conv = p.t_init_conf + p.t_mw + p.t_ro_conf
        assert report.conventional_over_lcqdm == pytest.approx(
            per_voxel_conv / per_voxel_lc, rel=1e-12)

    def test_zero_reinit_leibold_overhead_is_sheet_only(self):
        p = make_params(t_init_conf=0.0)
        g = VoxelGrid(98, 10, 1, 1.0)  # exactly one full cycle of 980
        report = speedup_report(g, p)
        # identical slots; the sheet pulse is the only extra time
        assert report.total_lcqdm - report.total_leibold == pytest.approx(
            p.t_init_ls, rel=1e-9)
        assert report.leibold_over_lcqdm <= 1.0

    def test_builds_no_plan(self, monkeypatch):
        def no_plan(*args, **kwargs):
            raise AssertionError("speedup_report built a plan")
        monkeypatch.setattr(qdmsim.scanplan, "plan_acquisition", no_plan)
        report = speedup_report(VoxelGrid(100, 100, 1, 1.0), make_params())
        assert report.total_lcqdm == pytest.approx(52320.0, rel=1e-12)
        assert report.total_conventional == pytest.approx(1251000.0, rel=1e-12)

    def test_ordering_property(self, rng):
        # sufficient condition: the sheet init amortizes over each cycle,
        # ceil(V/N_lc) * t_init_ls <= V * t_init_conf
        model = PhotophysicsModel()
        g = VoxelGrid(100, 100, 1, 1.0)
        checked = 0
        for _ in range(300):
            i_conf = 10.0 ** rng.uniform(-2.15, 0.85)
            i_ls = 10.0 ** rng.uniform(-2.7, 0.3)
            p = make_params(t_init_ls=init_time(model, i_ls),
                            t_init_conf=init_time(model, i_conf),
                            t_ro=readout_time(model, i_conf),
                            t_mw=10.0 ** rng.uniform(0, 3))
            cycles = math.ceil(g.n_voxels / cycle_layout(LCQDM, p)[0])
            if cycles * p.t_init_ls > g.n_voxels * p.t_init_conf:
                continue
            checked += 1
            rep = speedup_report(g, p)
            assert rep.total_lcqdm <= rep.total_leibold * (1 + 1e-12)
            assert rep.total_leibold <= rep.total_conventional * (1 + 1e-12)
        assert checked > 200

    def test_leibold_never_beats_conventional(self, rng):
        g = VoxelGrid(25, 25, 1, 1.0)
        for _ in range(200):
            p = make_params(t_init_ls=rng.uniform(0, 300),
                            t_init_conf=rng.uniform(0, 1300),
                            t_ro=rng.uniform(1, 30),
                            t_mw=rng.uniform(1, 1000))
            rep = speedup_report(g, p)
            assert rep.total_leibold <= rep.total_conventional * (1 + 1e-12)


class TestRfMapping:
    def test_linear_map(self):
        g = VoxelGrid(20, 20, 1, 1.0)
        f = rf_for_voxel((10, 0, 0), g, default_cal())
        assert f[0] == pytest.approx(81.0, rel=1e-12)
        assert f[2] == pytest.approx(79.0, rel=1e-12)

    def test_origin(self):
        g = VoxelGrid(4, 4, 1, 1.0)
        assert rf_for_voxel((0, 0, 0), g, default_cal()) == (80.0, 80.0, 80.0, 80.0)

    def test_roundtrip_16x16(self):
        g = VoxelGrid(16, 16, 1, 0.7)
        cal = default_cal()
        for ix in range(16):
            for iy in range(16):
                freqs = rf_for_voxel((ix, iy, 0), g, cal)
                assert voxel_for_rf(freqs, g, cal) == (ix, iy, 0)

    def test_off_lattice_frequency_rejected(self):
        g = VoxelGrid(4, 4, 1, 1.0)
        with pytest.raises(DomainError, match="off the voxel lattice"):
            voxel_for_rf((80.04, 80.0, 80.0, 80.0), g, default_cal())

    def test_within_lattice_tolerance_accepted(self):
        g = VoxelGrid(4, 4, 1, 1.0)
        f = 80.2 + 0.5e-3 * 0.1  # half the tolerance off voxel 2
        assert voxel_for_rf((f, 80.0, 79.8, 80.0), g, default_cal()) == (2, 0, 0)

    def test_descan_contradicting_scan_rejected(self):
        g = VoxelGrid(4, 4, 1, 1.0)
        cal = default_cal()
        f_sx, f_sy, _, f_dy = rf_for_voxel((1, 2, 0), g, cal)
        f_dx = rf_for_voxel((3, 2, 0), g, cal)[2]
        with pytest.raises(DomainError, match="descan"):
            voxel_for_rf((f_sx, f_sy, f_dx, f_dy), g, cal)

    @pytest.mark.parametrize("iz", [-1, 2])
    def test_iz_outside_grid(self, iz):
        g = VoxelGrid(4, 4, 2, 1.0)
        cal = default_cal()
        freqs = rf_for_voxel((1, 1, 0), g, cal)
        assert voxel_for_rf(freqs, g, cal, iz=1) == (1, 1, 1)
        with pytest.raises(IndexError):
            voxel_for_rf(freqs, g, cal, iz=iz)

    def test_out_of_grid(self):
        g = VoxelGrid(4, 4, 1, 1.0)
        with pytest.raises(IndexError):
            rf_for_voxel((4, 0, 0), g, default_cal())

    def test_arrays_match_per_voxel_calls(self):
        # rf_csv drives each axis over an index array; every element must be
        # bitwise what rf_for_voxel gives that voxel
        g = VoxelGrid(5, 3, 2, 0.7)
        cal = default_cal()
        ix, iy, iz = np.array([0, 4, 2]), np.array([0, 2, 1]), np.array([1, 0, 1])
        columns = (cal.scan_x.drive(ix, g.pitch), cal.scan_y.drive(iy, g.pitch),
                   cal.descan_x.drive(ix, g.pitch), cal.descan_y.drive(iy, g.pitch))
        for k, voxel in enumerate(zip(ix.tolist(), iy.tolist(), iz.tolist())):
            assert tuple(col[k] for col in columns) == rf_for_voxel(voxel, g, cal)

    # one voxel of three lies outside the 4 x 4 x 2 grid along one axis;
    # rf_for_voxel takes the voxels one at a time, as numpy integers
    @pytest.mark.parametrize("axis, bad", [(0, 4), (0, -1), (1, 4), (1, -1),
                                           (2, 2), (2, -1)])
    def test_arrays_with_any_voxel_outside_grid(self, axis, bad):
        g = VoxelGrid(4, 4, 2, 1.0)
        voxels = [np.array([0, 1, 3]), np.array([0, 3, 2]), np.array([0, 1, 1])]
        voxels[axis][1] = bad
        first, outside, last = zip(*voxels)
        rf_for_voxel(first, g, default_cal())
        rf_for_voxel(last, g, default_cal())
        with pytest.raises(IndexError):
            rf_for_voxel(outside, g, default_cal())

    def test_zero_slope_rejected(self):
        with pytest.raises(DomainError):
            AOMAxis(80.0, 0.0)

    def test_zero_base_frequency_rejected(self):
        with pytest.raises(DomainError, match="base frequency must be positive"):
            AOMAxis(0.0, 0.1)

    @pytest.mark.parametrize("f0, slope", [
        (math.nan, 0.1), (math.inf, 0.1), (80.0, math.nan), (80.0, math.inf),
        (80.0, -math.inf)])
    def test_non_finite_axis_rejected(self, f0, slope):
        with pytest.raises(DomainError, match="finite"):
            AOMAxis(f0, slope)

    def test_negative_frequency_inside_grid_rejected(self):
        cal = AOMCalibration(scan_x=AOMAxis(1.0, -0.5), scan_y=AOMAxis(80.0, 0.1),
                             descan_x=AOMAxis(80.0, -0.1),
                             descan_y=AOMAxis(80.0, -0.1))
        with pytest.raises(DomainError):
            plan_acquisition(VoxelGrid(10, 10, 1, 1.0), make_params(), LCQDM,
                             cal=cal)


class TestRfSchedule:
    def test_every_voxel_once(self):
        g = VoxelGrid(5, 4, 2, 1.0)
        plan = plan_acquisition(g, make_params(), LEIBOLD, cal=default_cal())
        voxels = [g.coords(v) for v in range(g.n_voxels)]
        assert len(set(voxels)) == g.n_voxels
        for voxel in voxels:
            freqs = rf_for_voxel(voxel, g, plan.cal)
            assert voxel_for_rf(freqs, g, plan.cal, iz=voxel[2]) == voxel

    def test_schedule_frequencies_match_map(self):
        g = VoxelGrid(3, 3, 2, 2.0)
        cal = default_cal()
        plan = plan_acquisition(g, make_params(), CONVENTIONAL, cal=cal)
        rows = plan.rf_csv().splitlines()[1:]
        assert len(rows) == g.n_voxels
        for v, row in enumerate(rows):
            voxel = g.coords(v)
            fields = row.split(",")
            assert tuple(map(int, fields[:3])) == voxel
            assert tuple(map(float, fields[3:])) == rf_for_voxel(voxel, g, cal)

    def test_no_cal_no_schedule(self):
        plan = plan_acquisition(VoxelGrid(2, 2, 1, 1.0), make_params(), LCQDM)
        assert plan.cal is None
        with pytest.raises(DomainError):
            plan.rf_csv()

    def test_plan_holds_no_per_voxel_rf(self):
        # 10**6 voxels: seven per-voxel columns would take over 50 MiB
        cfg = default_config()
        g = VoxelGrid(1000, 1000, 1, 0.1)
        tracemalloc.start()
        try:
            plan = plan_acquisition(g, cfg.protocol_params(), LCQDM,
                                    cal=cfg.aom_calibration())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert plan.cal == cfg.aom_calibration()


class TestCsv:
    # default timing on 40 x 40 x 4 with focus steps: 4 LCQDM, 5 Leibold
    # and 6400 conventional cycles, some of them spanning plane boundaries
    @pytest.mark.parametrize("tag", [LCQDM, LEIBOLD, CONVENTIONAL])
    def test_csv_match_sequential_reference(self, tag):
        cfg = default_config()
        p, cal = cfg.protocol_params(), cfg.aom_calibration()
        g = VoxelGrid(40, 40, 4, cfg.grid_pitch)
        t_z = 50.0
        plan = plan_acquisition(g, p, tag, cal=cal, t_z_step=t_z)

        batch, overhead, slot = cycle_layout(tag, p)
        n, plane = g.n_voxels, g.nx * g.ny
        lines = ["cycle,voxel_start,voxel_end,start_us,duration_us"]
        start = 0.0
        for i, v in enumerate(range(0, n, batch)):
            last = min(v + batch, n) - 1
            dur = overhead + (last - v + 1) * slot
            dur += (t_z - p.t_d) * sum(
                1 for u in range(v, last + 1)
                if u + 1 < n and (u + 1) // plane != u // plane)
            lines.append(f"{i},{v},{last},{start!r},{dur!r}")
            start += dur
        assert plan.cycles_csv() == "\n".join(lines) + "\n"

        rows = ["voxel_x,voxel_y,voxel_z,f_sx_mhz,f_sy_mhz,f_dx_mhz,f_dy_mhz"]
        for v in range(n):
            voxel = g.coords(v)
            freqs = rf_for_voxel(voxel, g, cal)
            rows.append(",".join([*map(str, voxel), *map(repr, freqs)]))
        assert plan.rf_csv() == "\n".join(rows) + "\n"

    def test_cycles_csv_header_and_rows(self):
        plan = plan_acquisition(VoxelGrid(10, 10, 1, 1.0), make_params(), LCQDM)
        lines = plan.cycles_csv().strip().split("\n")
        assert lines[0] == "cycle,voxel_start,voxel_end,start_us,duration_us"
        assert len(lines) == 1 + len(plan.cycles)
        assert lines[1].startswith("0,0,99,0.0,")

    def test_rf_csv_header(self):
        plan = plan_acquisition(VoxelGrid(2, 2, 1, 1.0), make_params(), LCQDM,
                                cal=default_cal())
        lines = plan.rf_csv().strip().split("\n")
        assert lines[0] == "voxel_x,voxel_y,voxel_z,f_sx_mhz,f_sy_mhz,f_dx_mhz,f_dy_mhz"
        assert len(lines) == 5
