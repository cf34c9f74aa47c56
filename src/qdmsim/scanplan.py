"""Full-grid acquisition planning and AOM frequency mapping.

Voxels are visited in raster order (x fastest, then y, then z).  The
recurrent protocols batch voxels into cycles of at most the recurrent
readout count; the final partial cycle is costed with its true voxel
count.  The conventional protocol spends one full cycle per voxel.

Beam pointing is an affine map per axis: each scan/descan AOM channel
drives at f0 + slope * coordinate_um.  Descan slopes are typically
opposite in sign so the collected PL stays on the fixed pinhole; the map
is exactly invertible either way.  The map is separable: the x channels
depend on ix alone and the y channels on iy alone, so a plan keeps the
calibration, not a per-voxel table; rf_for_voxel gives one voxel's drive
frequencies and ScanPlan.rf_csv the whole table.

The CSV writers print each float as Python's repr of it (the shortest
text that reads back to the same double) and each integer in decimal,
byte for byte what a row loop doing the same per value writes.  The RF
table formats each axis once and lays the texts out in raster order;
the cycle columns that rise strictly are printed directly, and only the
cycle durations, which repeat, go through column_text.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._csv import column_text, csv_text
from .errors import DomainError
from .sequence import (CONVENTIONAL, LCQDM, LEIBOLD, PROTOCOLS, ProtocolParams,
                       cycle_layout)


@dataclass(frozen=True)
class VoxelGrid:
    nx: int
    ny: int
    nz: int
    pitch: float  # um per axis

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            size = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(size))
            except TypeError:
                raise DomainError(f"grid dimension {name} must be an integer, "
                                  f"got {size!r}") from None
        if min(self.nx, self.ny, self.nz) < 1:
            raise DomainError("grid dimensions must be >= 1")
        if not (math.isfinite(self.pitch) and self.pitch > 0):
            raise DomainError(f"pitch must be finite and positive, got {self.pitch}")

    @property
    def n_voxels(self) -> int:
        return self.nx * self.ny * self.nz

    def coords(self, flat_index: int) -> tuple[int, int, int]:
        """Raster-order (ix, iy, iz) for a flat index."""
        if not 0 <= flat_index < self.n_voxels:
            raise IndexError(f"voxel index {flat_index} outside grid")
        ix = flat_index % self.nx
        iy = (flat_index // self.nx) % self.ny
        iz = flat_index // (self.nx * self.ny)
        return ix, iy, iz


@dataclass(frozen=True)
class AOMAxis:
    f0: float     # MHz at the grid origin
    slope: float  # MHz per um

    def __post_init__(self):
        if not (math.isfinite(self.f0) and math.isfinite(self.slope)):
            raise DomainError(f"AOM f0 and slope must be finite, got "
                              f"{self.f0}, {self.slope}")
        if self.slope == 0:
            raise DomainError("AOM slope must be nonzero")
        if self.f0 <= 0:
            raise DomainError(f"AOM base frequency must be positive, got {self.f0}")

    def drive(self, index, pitch: float):
        """Frequency in MHz at a lattice index (an int or an integer array)
        along this axis; every drive frequency is computed here."""
        return self.f0 + self.slope * (index * pitch)


@dataclass(frozen=True)
class AOMCalibration:
    scan_x: AOMAxis
    scan_y: AOMAxis
    descan_x: AOMAxis
    descan_y: AOMAxis

    def check_grid(self, grid: VoxelGrid) -> None:
        """Every drive frequency must stay positive across the grid."""
        for name, axis, extent in (("scan_x", self.scan_x, grid.nx),
                                   ("scan_y", self.scan_y, grid.ny),
                                   ("descan_x", self.descan_x, grid.nx),
                                   ("descan_y", self.descan_y, grid.ny)):
            # drive is monotone in the index and positive at index 0, so
            # only the far end can be non-positive
            worst = axis.drive(extent - 1, grid.pitch)
            if worst <= 0:
                raise DomainError(
                    f"AOM channel {name} drives a non-positive frequency "
                    f"({worst:.4g} MHz) inside the grid")


def rf_for_voxel(voxel: tuple[int, int, int], grid: VoxelGrid,
                 cal: AOMCalibration) -> tuple[float, float, float, float]:
    """Drive frequencies (f_sx, f_sy, f_dx, f_dy) in MHz for one voxel."""
    ix, iy, iz = voxel
    if not (0 <= ix < grid.nx and 0 <= iy < grid.ny and 0 <= iz < grid.nz):
        raise IndexError(f"voxel {voxel} outside grid")
    return (cal.scan_x.drive(ix, grid.pitch), cal.scan_y.drive(iy, grid.pitch),
            cal.descan_x.drive(ix, grid.pitch), cal.descan_y.drive(iy, grid.pitch))


# Largest distance, in lattice steps, of an inverted frequency from a voxel.
_RF_LATTICE_TOL = 1e-3


def _lattice_index(freq: float, axis: AOMAxis, pitch: float, name: str) -> int:
    steps = (freq - axis.f0) / axis.slope / pitch
    if not (math.isfinite(steps) and abs(steps - round(steps)) <= _RF_LATTICE_TOL):
        raise DomainError(f"{name} frequency {freq} MHz lies off the voxel lattice")
    return round(steps)


def voxel_for_rf(freqs: tuple[float, float, float, float], grid: VoxelGrid,
                 cal: AOMCalibration, iz: int = 0) -> tuple[int, int, int]:
    """Invert rf_for_voxel.

    Raises DomainError when a frequency lies off the voxel lattice or the
    descan channels point at another voxel than the scan channels, and
    IndexError when the voxel lies outside the grid.
    """
    f_sx, f_sy, f_dx, f_dy = freqs
    ix = _lattice_index(f_sx, cal.scan_x, grid.pitch, "scan_x")
    iy = _lattice_index(f_sy, cal.scan_y, grid.pitch, "scan_y")
    if not (0 <= ix < grid.nx and 0 <= iy < grid.ny and 0 <= iz < grid.nz):
        raise IndexError(f"frequencies {freqs} at iz={iz} map outside the grid")
    descan = (_lattice_index(f_dx, cal.descan_x, grid.pitch, "descan_x"),
              _lattice_index(f_dy, cal.descan_y, grid.pitch, "descan_y"))
    if descan != (ix, iy):
        raise DomainError(f"descan frequencies point at voxel {descan}, "
                          f"scan frequencies at {(ix, iy)}")
    return ix, iy, iz


CYCLES_CSV_HEADER = "cycle,voxel_start,voxel_end,start_us,duration_us"
RF_CSV_HEADER = "voxel_x,voxel_y,voxel_z,f_sx_mhz,f_sy_mhz,f_dx_mhz,f_dy_mhz"


@dataclass(frozen=True, eq=False)
class ScanPlan:
    """Schedule of one protocol over a voxel grid.

    cycles is a record array with one row per cycle in scan order:
    voxel_start, voxel_end (flat voxel indices, inclusive), start and
    duration (us).  cal is the AOM calibration the plan was checked
    against, None without one.  The RF map is separable per axis, so the
    plan stores no per-voxel frequencies: rf_csv formats each axis once,
    and rf_for_voxel gives any one voxel's.
    """

    protocol_tag: str
    grid: VoxelGrid
    cycles: np.recarray
    total_time: float  # us, end of the last cycle
    cal: Optional[AOMCalibration]

    def cycles_csv(self) -> str:
        c = self.cycles
        return csv_text(CYCLES_CSV_HEADER, [
            map(str, range(len(c))),
            # these rise with the cycle, so no text would be shared; repr
            # per value is byte-correct either way
            *(map(repr, col.tolist()) for col in (c.voxel_start, c.voxel_end, c.start)),
            column_text(c.duration)])

    def rf_csv(self) -> str:
        cal, g = self.cal, self.grid
        if cal is None:
            raise DomainError("plan was built without an AOM calibration")
        ix, iy = np.arange(g.nx), np.arange(g.ny)

        # Each column depends on one axis index: format its values once, then
        # lay them out over a z plane, x texts tiled once per row and each y
        # text repeated along its row.
        def along_x(values):
            return list(map(repr, values.tolist())) * g.ny

        def along_y(values):
            texts = np.array(list(map(repr, values.tolist())), dtype=object)
            return np.repeat(texts, g.nx).tolist()

        head = map(",".join, zip(along_x(ix), along_y(iy)))
        tail = map(",".join, zip(along_x(cal.scan_x.drive(ix, g.pitch)),
                                 along_y(cal.scan_y.drive(iy, g.pitch)),
                                 along_x(cal.descan_x.drive(ix, g.pitch)),
                                 along_y(cal.descan_y.drive(iy, g.pitch))))
        plane = list(zip(head, tail))
        lines = [RF_CSV_HEADER]
        for iz in range(g.nz):
            lines += map(f",{iz},".join, plane)
        return "\n".join(lines) + "\n"


def _scan_total(grid: VoxelGrid, p: ProtocolParams, protocol_tag: str,
                t_z_step: Optional[float] = None) -> float:
    """End of the last cycle in us, in closed form.

    Full cycles cost overhead + batch * slot, the partial cycle overhead +
    partial * slot, and each of the nz - 1 focus steps replaces one dead
    time t_d with t_z_step.
    """
    batch, overhead, slot = cycle_layout(protocol_tag, p)
    if t_z_step is not None and not 0 <= t_z_step < math.inf:
        raise DomainError(f"t_z_step must be finite and >= 0, got {t_z_step}")
    full, partial = divmod(grid.n_voxels, batch)
    total = full * (overhead + batch * slot)
    if partial:
        total += overhead + partial * slot
    if t_z_step is not None:
        total += (grid.nz - 1) * (t_z_step - p.t_d)
    return total


def plan_acquisition(grid: VoxelGrid, p: ProtocolParams, protocol_tag: str,
                     cal: Optional[AOMCalibration] = None,
                     t_z_step: Optional[float] = None) -> ScanPlan:
    """Schedule every voxel of the grid once under the given protocol.

    t_z_step, when given, replaces the dead time after each readout whose
    successor voxel sits on a different z plane (focus translation);
    default is the ordinary steering dead time.
    """
    total = _scan_total(grid, p, protocol_tag, t_z_step)
    batch, overhead, slot = cycle_layout(protocol_tag, p)
    n = grid.n_voxels
    plane = grid.nx * grid.ny
    extra_z = 0.0 if t_z_step is None else t_z_step - p.t_d

    first = np.arange(0, n, batch)
    last = np.minimum(first + batch, n) - 1
    duration = overhead + (last - first + 1) * slot
    # planes crossed after readouts first..last, none after the final voxel
    duration += extra_z * (np.minimum(last + 1, n - 1) // plane - first // plane)
    # np.cumsum adds in sequence: each start is exactly previous start + duration
    start = np.concatenate(([0.0], np.cumsum(duration[:-1])))
    cycles = np.rec.fromarrays([first, last, start, duration],
                               names="voxel_start,voxel_end,start,duration")

    if cal is not None:
        cal.check_grid(grid)
    return ScanPlan(protocol_tag, grid, cycles, total, cal)


@dataclass(frozen=True)
class SpeedupReport:
    total_lcqdm: float
    total_leibold: float
    total_conventional: float
    conventional_over_lcqdm: float
    leibold_over_lcqdm: float


def speedup_report(grid: VoxelGrid, p: ProtocolParams) -> SpeedupReport:
    """Total-time ratios of the slower protocols against the light-sheet one.

    The totals and both ratios leave out focus steps: every voxel change,
    z planes included, costs the steering dead time t_d.  A plan built
    with t_z_step includes them in its total_time.
    """
    totals = {tag: _scan_total(grid, p, tag) for tag in PROTOCOLS}
    return SpeedupReport(
        totals[LCQDM], totals[LEIBOLD], totals[CONVENTIONAL],
        totals[CONVENTIONAL] / totals[LCQDM],
        totals[LEIBOLD] / totals[LCQDM])
