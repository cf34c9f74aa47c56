"""Flat key-value run configuration with mandatory unit suffixes.

Config text is line oriented: `key = value [unit]`; `#` starts a comment at
the start of a line or after whitespace, elsewhere it is part of the value.
Dimensioned keys require a unit suffix and are converted to the canonical
units (us, um, mW, mW/um^2, MHz, counts/us); dimensionless keys must not
carry one.  Unknown and missing keys are rejected, and so are a sweep of
more than MAX_SWEEP_CELLS cells and an `n_trials` that the Monte Carlo's
SimConfig refuses (outside [1, 2**53]).  A config serializes back to
canonical text that re-parses to an equal config; a string value that text
cannot carry (empty, multi-line, padded with whitespace or holding a
comment marker) makes to_text raise ConfigError.

Each key is declared once, as a RunConfig field whose `_key(...)` metadata
gives its dimension, whether it is required and whether it must be >= 0;
parsing, validation and to_text all read those fields.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional

from .errors import ConfigError, DomainError
from .montecarlo import SimConfig
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
_CANONICAL_UNIT = {dim: next(u for u, f in factors.items() if f == 1.0)
                   for dim, factors in _UNITS.items()}
# Cells a config may ask the sweep for, checked before any grid is built.
MAX_SWEEP_CELLS = 10**7


def _key(dim: Optional[str], *, required: bool = True, nonneg: bool = True):
    """Declare a config key: its dimension (a _UNITS key, None for a bare
    number, "int" for a bare integer, "str" for a raw string), whether the
    text must set it, and whether its value must be >= 0."""
    return field(metadata={"dim": dim, "required": required, "nonneg": nonneg})


@dataclass(frozen=True)
class RunConfig:
    l_y: float = _key("length")
    d_ls: float = _key("length")
    p_ls: float = _key("power")
    delta_conf: float = _key("length")
    p_conf: float = _key("power")
    p_conf_min: float = _key("power")
    p_conf_max: float = _key("power")
    i_ls: Optional[float] = _key("intensity", required=False)
    i_conf: Optional[float] = _key("intensity", required=False)
    t_d: float = _key("time")
    t_mw: float = _key("time")
    t1: float = _key("time")
    t_z_step: Optional[float] = _key("time", required=False)
    init_a: float = _key(None, nonneg=False)
    init_b: float = _key(None, nonneg=False)
    init_c: float = _key(None, nonneg=False)
    readout_a: float = _key(None, nonneg=False)
    readout_b: float = _key(None, nonneg=False)
    readout_c: float = _key(None, nonneg=False)
    i_sat: float = _key("intensity")
    r_max: float = _key("rate")
    c0: float = _key(None, nonneg=False)
    i_valid_min: Optional[float] = _key("intensity", required=False)
    i_valid_max: Optional[float] = _key("intensity", required=False)
    t_mw_min: float = _key("time")
    t_mw_max: float = _key("time")
    sweep_points_i: int = _key("int")
    sweep_points_t: int = _key("int")
    grid_nx: int = _key("int")
    grid_ny: int = _key("int")
    grid_nz: int = _key("int")
    grid_pitch: float = _key("length")
    aom_scan_x_f0: float = _key("frequency")
    aom_scan_x_slope: float = _key("freq_slope", nonneg=False)
    aom_scan_y_f0: float = _key("frequency")
    aom_scan_y_slope: float = _key("freq_slope", nonneg=False)
    aom_descan_x_f0: float = _key("frequency")
    aom_descan_x_slope: float = _key("freq_slope", nonneg=False)
    aom_descan_y_f0: float = _key("frequency")
    aom_descan_y_slope: float = _key("freq_slope", nonneg=False)
    n_trials: int = _key("int")
    master_seed: int = _key("int")
    output_dir: str = _key("str", nonneg=False)

    # -- derived objects ------------------------------------------------

    def model(self) -> PhotophysicsModel:
        """The photophysics model; built once per config, then shared (it is
        immutable, and each build runs the model's domination check)."""
        return self._model

    @cached_property
    def _model(self) -> PhotophysicsModel:
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
        cells = self.sweep_points_i * self.sweep_points_t
        if cells > MAX_SWEEP_CELLS:
            raise DomainError(f"sweep of {cells} cells exceeds "
                              f"MAX_SWEEP_CELLS = {MAX_SWEEP_CELLS}")
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
            dim = f.metadata["dim"]
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


_KEYS = {f.name: f.metadata for f in fields(RunConfig)}


def _parse_value(key: str, raw: str, line_no: int):
    dim, nonneg = _KEYS[key]["dim"], _KEYS[key]["nonneg"]
    if dim == "str":
        return raw
    parts = raw.split()
    if dim in (None, "int") and len(parts) != 1:
        raise ConfigError(
            f"line {line_no}: {key} is dimensionless, got {raw!r}")
    if dim not in (None, "int") and len(parts) != 2:
        raise ConfigError(
            f"line {line_no}: {key} needs `<number> <unit>`, got {raw!r}")
    try:
        value = int(parts[0]) if dim == "int" else float(parts[0])
    except ValueError:
        raise ConfigError(f"line {line_no}: bad number {parts[0]!r}") from None
    if len(parts) == 2:
        factors = _UNITS[dim]
        if parts[1] not in factors:
            raise ConfigError(
                f"line {line_no}: unknown {dim} unit {parts[1]!r}; "
                f"expected one of {sorted(factors)}")
        value *= factors[parts[1]]
    if not isinstance(value, int) and not math.isfinite(value):
        raise ConfigError(f"line {line_no}: {key} must be finite")
    if nonneg and value < 0:
        raise ConfigError(f"line {line_no}: {key} must be >= 0, got {value}")
    return value


def _strip_comment(line: str) -> str:
    """line without a comment: a # at its start or after whitespace, and
    what follows.  A line without # skips the regex, which re compiles on
    its first use in a process rather than at import."""
    if "#" in line:
        line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0]
    return line.strip()


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
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"line {line_no}: empty value for {key!r}")
        seen[key] = _parse_value(key, raw, line_no)

    missing = [k for k, meta in _KEYS.items()
               if meta["required"] and k not in seen]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    cfg = RunConfig(**{key: seen.get(key) for key in _KEYS})
    try:
        SimConfig(params=cfg.protocol_params(), model=cfg.model(),
                  i_conf=cfg.intensity_conf(), n_trials=cfg.n_trials,
                  master_seed=cfg.master_seed)
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
