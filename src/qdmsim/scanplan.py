"""Full-grid acquisition planning and AOM frequency mapping.

Voxels are visited in raster order (x fastest, then y, then z).  The
recurrent protocols batch voxels into cycles of at most the recurrent
readout count; the final partial cycle is costed with its true voxel
count.  The conventional protocol spends one full cycle per voxel.

Beam pointing is an affine map per axis: each scan/descan AOM channel
drives at f0 + slope * coordinate_um.  Descan slopes are typically
opposite in sign so the collected PL stays on the fixed pinhole; the map
is exactly invertible either way.  The map is separable: the x channels
depend on ix alone and the y channels on iy alone.  AOMCalibration.drives
computes the four drive frequencies at x and y indices and refuses a
non-positive one; rf_csv(cal) formats the whole table from it, each axis
once, and rf_for_voxel gives one voxel's, so both refuse the same drives.

The CSV writers print each float as Python's repr of it (the shortest
text that reads back to the same double) and each integer in decimal,
byte for byte what a row loop doing the same per value writes; both go
through _csv.csv_text.  The RF table's columns are axes, each formatted
once and laid out in raster order; the cycle columns are formatted block
by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._csv import Axis, csv_text
from .errors import MAX_EXACT_COUNT, DomainError, finite_number, whole_number
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
            object.__setattr__(self, name, whole_number(
                f"grid dimension {name}", getattr(self, name), 1))
        # _scan_total turns the count into a float
        if self.n_voxels > MAX_EXACT_COUNT:
            raise DomainError("grid holds more than 2**53 voxels, the largest "
                              "count a float64 holds exactly")
        finite_number("pitch", self.pitch, 0, strict=True)

    @property
    def n_voxels(self) -> int:
        return self.nx * self.ny * self.nz

    def coords(self, flat_index: int) -> tuple[int, int, int]:
        """Raster-order (ix, iy, iz) for a flat index."""
        # any whole number: one outside the grid is an IndexError
        flat_index = whole_number("flat_index", flat_index, -math.inf)
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
        finite_number("AOM base frequency f0", self.f0, 0, strict=True)
        if finite_number("AOM slope", self.slope) == 0:
            raise DomainError("AOM slope must be nonzero")

    def drive(self, index, pitch: float):
        """Frequency in MHz at a lattice index (an int or an integer array)
        along this axis; AOMCalibration.drives checks it."""
        return self.f0 + self.slope * (index * pitch)


@dataclass(frozen=True)
class AOMCalibration:
    scan_x: AOMAxis
    scan_y: AOMAxis
    descan_x: AOMAxis
    descan_y: AOMAxis

    def drives(self, ix, iy, pitch: float) -> tuple:
        """Drive frequencies (f_sx, f_sy, f_dx, f_dy) in MHz at x and y
        lattice indices (ints or integer arrays).  Every drive must be
        positive; the first channel that is not, in that order, is a
        DomainError."""
        freqs = (self.scan_x.drive(ix, pitch), self.scan_y.drive(iy, pitch),
                 self.descan_x.drive(ix, pitch), self.descan_y.drive(iy, pitch))
        for name, f in zip(("scan_x", "scan_y", "descan_x", "descan_y"), freqs):
            worst = np.min(f)
            if worst <= 0:
                raise DomainError(
                    f"AOM channel {name} drives a non-positive frequency "
                    f"({worst:.4g} MHz) inside the grid")
        return freqs


def rf_for_voxel(voxel: tuple[int, int, int], grid: VoxelGrid,
                 cal: AOMCalibration) -> tuple[float, float, float, float]:
    """Drive frequencies (f_sx, f_sy, f_dx, f_dy) in MHz for one voxel."""
    # any whole numbers: a voxel outside the grid is an IndexError
    ix, iy, iz = (whole_number(name, i, -math.inf)
                  for name, i in zip(("ix", "iy", "iz"), voxel, strict=True))
    if not (0 <= ix < grid.nx and 0 <= iy < grid.ny and 0 <= iz < grid.nz):
        raise IndexError(f"voxel {voxel} outside grid")
    return cal.drives(ix, iy, grid.pitch)


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

    Raises DomainError when iz is not a whole number, a frequency lies off the
    voxel lattice or the descan channels point at another voxel than the
    scan channels, and IndexError when the voxel lies outside the grid.
    """
    # any whole number: one outside the grid is an IndexError below
    iz = whole_number("iz", iz, -math.inf)
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
    duration (us).  The RF table depends on the grid and a calibration;
    rf_csv(cal) formats it from AOMCalibration.drives, each axis once, and
    rf_for_voxel gives any one voxel's frequencies.
    """

    protocol_tag: str
    grid: VoxelGrid
    cycles: np.recarray
    total_time: float  # us, end of the last cycle

    def cycles_csv(self) -> str:
        c = self.cycles
        return csv_text(CYCLES_CSV_HEADER, [
            np.arange(len(c)), c.voxel_start, c.voxel_end, c.start, c.duration])

    def rf_csv(self, cal: AOMCalibration) -> str:
        g = self.grid
        ix, iy = np.arange(g.nx), np.arange(g.ny)
        f_sx, f_sy, f_dx, f_dy = cal.drives(ix, iy, g.pitch)

        # each column depends on one axis index: x varies fastest, then y,
        # then z
        return csv_text(RF_CSV_HEADER, [
            Axis(ix), Axis(iy, g.nx), Axis(np.arange(g.nz), g.nx * g.ny),
            Axis(f_sx), Axis(f_sy, g.nx), Axis(f_dx), Axis(f_dy, g.nx)])


def _scan_total(grid: VoxelGrid, p: ProtocolParams, protocol_tag: str,
                t_z_step: Optional[float] = None) -> float:
    """End of the last cycle in us, in closed form.

    Full cycles cost overhead + batch * slot, the partial cycle overhead +
    partial * slot, and each of the nz - 1 focus steps replaces one dead
    time t_d with t_z_step.  A total that overflows is a DomainError.
    """
    batch, overhead, slot = cycle_layout(protocol_tag, p)
    if t_z_step is not None:
        finite_number("t_z_step", t_z_step, 0)
    full, partial = divmod(grid.n_voxels, batch)
    total = full * (overhead + batch * slot)
    if partial:
        total += overhead + partial * slot
    if t_z_step is not None:
        total += (grid.nz - 1) * (t_z_step - p.t_d)
    if not math.isfinite(total):
        raise DomainError(f"a {protocol_tag} scan of {grid.n_voxels} voxels "
                          f"ends at {total!r} us; its total overflows")
    return total


def plan_acquisition(grid: VoxelGrid, p: ProtocolParams, protocol_tag: str,
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
    return ScanPlan(protocol_tag, grid, cycles, total)


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
