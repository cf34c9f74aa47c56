"""Flat key-value run configuration with mandatory unit suffixes.

Config text is line oriented: `key = value [unit]`; `#` starts a comment at
the start of a line or after whitespace, elsewhere it is part of the value.
Dimensioned keys require a unit suffix and are converted to the canonical
units (us, um, mW, mW/um^2, MHz, counts/us); dimensionless keys must not
carry one.  Unknown and missing keys are rejected.  A config serializes
back to canonical text that re-parses to an equal config; a string value
that text cannot carry (empty, multi-line, padded with whitespace or
holding a comment marker) makes to_text raise ConfigError.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import Optional

from .errors import ConfigError, DomainError
from .photophysics import (LogQuadraticCurve, PhotophysicsModel,
                           confocal_intensity, init_time, lightsheet_intensity,
                           readout_time)
from .scanplan import AOMAxis, AOMCalibration, VoxelGrid
from .sensitivity import SweepSpec, log_grid
from .sequence import ProtocolParams

# unit -> factor into the canonical unit, per dimension
_UNITS = {
    "time": {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6},
    "length": {"nm": 1e-3, "um": 1.0, "mm": 1e3},
    "power": {"uW": 1e-3, "mW": 1.0, "W": 1e3},
    "intensity": {"uW/um2": 1e-3, "mW/um2": 1.0, "W/um2": 1e3},
    "rate": {"counts/us": 1.0, "counts/ms": 1e-3},
    "frequency": {"kHz": 1e-3, "MHz": 1.0, "GHz": 1e3},
    "freq_slope": {"kHz/um": 1e-3, "MHz/um": 1.0},
}
_CANONICAL_UNIT = {
    "time": "us", "length": "um", "power": "mW", "intensity": "mW/um2",
    "rate": "counts/us", "frequency": "MHz", "freq_slope": "MHz/um",
}

# key -> (dimension, required, nonnegative).  dimension None = bare number,
# "int" = bare integer, "str" = raw string.
_SCHEMA: dict[str, tuple[Optional[str], bool, bool]] = {
    "l_y": ("length", True, True),
    "d_ls": ("length", True, True),
    "p_ls": ("power", True, True),
    "delta_conf": ("length", True, True),
    "p_conf": ("power", True, True),
    "p_conf_min": ("power", True, True),
    "p_conf_max": ("power", True, True),
    "i_ls": ("intensity", False, True),
    "i_conf": ("intensity", False, True),
    "t_d": ("time", True, True),
    "t_mw": ("time", True, True),
    "t1": ("time", True, True),
    "t_z_step": ("time", False, True),
    "init_a": (None, True, False),
    "init_b": (None, True, False),
    "init_c": (None, True, False),
    "readout_a": (None, True, False),
    "readout_b": (None, True, False),
    "readout_c": (None, True, False),
    "i_sat": ("intensity", True, True),
    "r_max": ("rate", True, True),
    "c0": (None, True, False),
    "i_valid_min": ("intensity", False, True),
    "i_valid_max": ("intensity", False, True),
    "t_mw_min": ("time", True, True),
    "t_mw_max": ("time", True, True),
    "sweep_points_i": ("int", True, True),
    "sweep_points_t": ("int", True, True),
    "grid_nx": ("int", True, True),
    "grid_ny": ("int", True, True),
    "grid_nz": ("int", True, True),
    "grid_pitch": ("length", True, True),
    "aom_scan_x_f0": ("frequency", True, True),
    "aom_scan_x_slope": ("freq_slope", True, False),
    "aom_scan_y_f0": ("frequency", True, True),
    "aom_scan_y_slope": ("freq_slope", True, False),
    "aom_descan_x_f0": ("frequency", True, True),
    "aom_descan_x_slope": ("freq_slope", True, False),
    "aom_descan_y_f0": ("frequency", True, True),
    "aom_descan_y_slope": ("freq_slope", True, False),
    "n_trials": ("int", True, True),
    "master_seed": ("int", True, True),
    "output_dir": ("str", True, False),
}


@dataclass(frozen=True)
class RunConfig:
    l_y: float
    d_ls: float
    p_ls: float
    delta_conf: float
    p_conf: float
    p_conf_min: float
    p_conf_max: float
    i_ls: Optional[float]
    i_conf: Optional[float]
    t_d: float
    t_mw: float
    t1: float
    t_z_step: Optional[float]
    init_a: float
    init_b: float
    init_c: float
    readout_a: float
    readout_b: float
    readout_c: float
    i_sat: float
    r_max: float
    c0: float
    i_valid_min: Optional[float]
    i_valid_max: Optional[float]
    t_mw_min: float
    t_mw_max: float
    sweep_points_i: int
    sweep_points_t: int
    grid_nx: int
    grid_ny: int
    grid_nz: int
    grid_pitch: float
    aom_scan_x_f0: float
    aom_scan_x_slope: float
    aom_scan_y_f0: float
    aom_scan_y_slope: float
    aom_descan_x_f0: float
    aom_descan_x_slope: float
    aom_descan_y_f0: float
    aom_descan_y_slope: float
    n_trials: int
    master_seed: int
    output_dir: str

    # -- derived objects ------------------------------------------------

    def model(self) -> PhotophysicsModel:
        kwargs = {}
        if self.i_valid_min is not None:
            kwargs["valid_min"] = self.i_valid_min
        if self.i_valid_max is not None:
            kwargs["valid_max"] = self.i_valid_max
        return PhotophysicsModel(
            init_curve=LogQuadraticCurve(self.init_a, self.init_b, self.init_c),
            readout_curve=LogQuadraticCurve(
                self.readout_a, self.readout_b, self.readout_c),
            i_sat=self.i_sat, r_max=self.r_max, c0=self.c0, **kwargs)

    def intensity_ls(self) -> float:
        if self.i_ls is not None:
            return self.i_ls
        return lightsheet_intensity(self.p_ls, self.l_y, self.d_ls)

    def intensity_conf(self) -> float:
        if self.i_conf is not None:
            return self.i_conf
        return confocal_intensity(self.p_conf, self.delta_conf)

    def protocol_params(self) -> ProtocolParams:
        model = self.model()
        return ProtocolParams(
            t_init_ls=init_time(model, self.intensity_ls()),
            t_init_conf=init_time(model, self.intensity_conf()),
            t_ro_conf=readout_time(model, self.intensity_conf()),
            t_mw=self.t_mw, t_d=self.t_d, t1=self.t1)

    def sweep_spec(self) -> SweepSpec:
        i_lo = confocal_intensity(self.p_conf_min, self.delta_conf)
        i_hi = confocal_intensity(self.p_conf_max, self.delta_conf)
        return SweepSpec(
            i_conf_grid=log_grid(i_lo, i_hi, self.sweep_points_i),
            t_mw_grid=log_grid(self.t_mw_min, self.t_mw_max, self.sweep_points_t),
            i_ls=self.intensity_ls(), model=self.model(),
            t1=self.t1, t_d=self.t_d)

    def voxel_grid(self) -> VoxelGrid:
        return VoxelGrid(self.grid_nx, self.grid_ny, self.grid_nz, self.grid_pitch)

    def aom_calibration(self) -> AOMCalibration:
        return AOMCalibration(
            scan_x=AOMAxis(self.aom_scan_x_f0, self.aom_scan_x_slope),
            scan_y=AOMAxis(self.aom_scan_y_f0, self.aom_scan_y_slope),
            descan_x=AOMAxis(self.aom_descan_x_f0, self.aom_descan_x_slope),
            descan_y=AOMAxis(self.aom_descan_y_f0, self.aom_descan_y_slope))

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            dim = _SCHEMA[f.name][0]
            if dim in (None, "int"):
                lines.append(f"{f.name} = {value!r}")
            elif dim == "str":
                line = f"{f.name} = {value}"
                if (line.splitlines() != [line] or not value
                        or _strip_comment(line).partition("=")[2].strip() != value):
                    raise ConfigError(f"{f.name} = {value!r} would not parse "
                                      f"back from config text")
                lines.append(line)
            else:
                lines.append(f"{f.name} = {value!r} {_CANONICAL_UNIT[dim]}")
        return "\n".join(lines) + "\n"


def _parse_value(key: str, raw: str, line_no: int):
    dim, _, nonneg = _SCHEMA[key]
    if dim == "str":
        return raw
    parts = raw.split()
    if dim in (None, "int"):
        if len(parts) != 1:
            raise ConfigError(
                f"line {line_no}: {key} is dimensionless, got {raw!r}")
        try:
            value = int(parts[0]) if dim == "int" else float(parts[0])
        except ValueError:
            raise ConfigError(f"line {line_no}: bad number {parts[0]!r}") from None
    else:
        if len(parts) != 2:
            raise ConfigError(
                f"line {line_no}: {key} needs `<number> <unit>`, got {raw!r}")
        try:
            number = float(parts[0])
        except ValueError:
            raise ConfigError(f"line {line_no}: bad number {parts[0]!r}") from None
        factors = _UNITS[dim]
        if parts[1] not in factors:
            raise ConfigError(
                f"line {line_no}: unknown {dim} unit {parts[1]!r}; "
                f"expected one of {sorted(factors)}")
        value = number * factors[parts[1]]
    if not isinstance(value, int) and not math.isfinite(value):
        raise ConfigError(f"line {line_no}: {key} must be finite")
    if nonneg and value < 0:
        raise ConfigError(f"line {line_no}: {key} must be >= 0, got {value}")
    return value


def _strip_comment(line: str) -> str:
    return re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate config text into a RunConfig."""
    seen: dict[str, object] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line)
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected `key = value`")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"line {line_no}: empty value for {key!r}")
        seen[key] = _parse_value(key, raw, line_no)

    missing = [k for k, (_, required, _) in _SCHEMA.items()
               if required and k not in seen]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    for key, (_, required, _) in _SCHEMA.items():
        if not required:
            seen.setdefault(key, None)

    cfg = RunConfig(**seen)  # type: ignore[arg-type]
    try:
        cfg.model()
        cfg.protocol_params()
        cfg.voxel_grid()
        cfg.aom_calibration()
        cfg.sweep_spec()
    except DomainError as exc:
        raise ConfigError(f"config values violate an invariant: {exc}") from exc
    return cfg


def default_config_text() -> str:
    """Canonical defaults: comparison-table values plus the synthetic model."""
    return """\
# geometry and laser powers
l_y = 100 um                 # light-sheet lateral size
d_ls = 10 um                 # light-sheet thickness
p_ls = 2000 mW               # light-sheet laser power
delta_conf = 0.53 um         # confocal beam diameter at focus
p_conf = 2 mW                # confocal readout power
p_conf_min = 0.002 mW        # sweep lower bound (bioimaging floor)
p_conf_max = 2 mW            # sweep upper bound
i_ls = 0.2 mW/um2            # fixed sheet intensity for the sweep

# protocol timing
t_d = 100 ns                 # beam-steering dead time
t_mw = 100 us                # MW sequence duration
t1 = 5 ms                    # spin-lattice relaxation time

# photophysics model (synthetic stand-in coefficients)
init_a = 0.7
init_b = -0.9
init_c = 0.1
readout_a = 0.7
readout_b = -0.3
readout_c = 0.0
i_sat = 1 mW/um2
r_max = 30 counts/us
c0 = 0.03

# sensitivity sweep grids
t_mw_min = 1 us
t_mw_max = 1000 us
sweep_points_i = 61
sweep_points_t = 61

# scan grid
grid_nx = 100
grid_ny = 100
grid_nz = 1
grid_pitch = 1 um

# AOM frequency map (affine per axis)
aom_scan_x_f0 = 80 MHz
aom_scan_x_slope = 0.1 MHz/um
aom_scan_y_f0 = 80 MHz
aom_scan_y_slope = 0.1 MHz/um
aom_descan_x_f0 = 80 MHz
aom_descan_x_slope = -0.1 MHz/um
aom_descan_y_f0 = 80 MHz
aom_descan_y_slope = -0.1 MHz/um

# run control
n_trials = 2000
master_seed = 20260810
output_dir = out
"""


def default_config() -> RunConfig:
    return parse_config(default_config_text())
