"""Plan a full-grid acquisition and map voxels to AOM drive frequencies.

Schedules a 100 x 100 voxel scan under each protocol, reports total
acquisition times and speedups, and prints a slice of the RF schedule
that steers the readout beam and keeps the collected PL on the pinhole.
"""

from qdmsim import (AOMAxis, AOMCalibration, CONVENTIONAL, LCQDM, LEIBOLD,
                    PhotophysicsModel, ProtocolParams, VoxelGrid, init_time,
                    plan_acquisition, readout_time, rf_for_voxel,
                    speedup_report)


def run_demo():
    model = PhotophysicsModel()
    i_conf, i_ls = 1.0, 0.2
    p = ProtocolParams(t_init_ls=init_time(model, i_ls),
                       t_init_conf=init_time(model, i_conf),
                       t_ro_conf=readout_time(model, i_conf),
                       t_mw=100.0, t_d=0.1, t1=5000.0)
    grid = VoxelGrid(100, 100, 1, 1.0)

    print(f"grid: {grid.nx} x {grid.ny} x {grid.nz} voxels, "
          f"pitch {grid.pitch} um")
    for tag in (LCQDM, LEIBOLD, CONVENTIONAL):
        plan = plan_acquisition(grid, p, tag)
        print(f"  {tag:<13} {len(plan.cycles):>6} cycles, "
              f"total {plan.total_time / 1e3:10.1f} ms")
    report = speedup_report(grid, p)
    print(f"speedup vs conventional: {report.conventional_over_lcqdm:.1f}x")
    print(f"speedup vs readout+reinit: {report.leibold_over_lcqdm:.2f}x")

    cal = AOMCalibration(scan_x=AOMAxis(80.0, 0.1), scan_y=AOMAxis(80.0, 0.1),
                         descan_x=AOMAxis(80.0, -0.1),
                         descan_y=AOMAxis(80.0, -0.1))
    tile = VoxelGrid(4, 4, 1, 1.0)
    print("\nRF schedule for a 4 x 4 tile (MHz):")
    print("  voxel      f_scan_x  f_scan_y  f_descan_x  f_descan_y")
    for v in range(8):
        ix, iy, iz = tile.coords(v)
        fsx, fsy, fdx, fdy = rf_for_voxel((ix, iy, iz), tile, cal)
        print(f"  ({ix},{iy},{iz})    {fsx:8.2f}  {fsy:8.2f}"
              f"  {fdx:10.2f}  {fdy:10.2f}")
    print("  ...")

    with open("plan_cycles.csv", "w") as fh:
        fh.write(plan_acquisition(grid, p, LCQDM).cycles_csv())
    print("\nwrote plan_cycles.csv")


if __name__ == "__main__":
    run_demo()
