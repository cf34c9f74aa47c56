"""Seeded workload inputs that need only the standard library.

The set-up probe parses a config written from here before it imports
anything heavy, so this module must not import numpy or qdmsim.  Every
value is written in the package's canonical units, so the checks read the
same floats back without unit conversion.
"""

from __future__ import annotations

import random

#: Values of every config key; float values are in us, um, mW, mW/um^2,
#: MHz, MHz/um and counts/us.
BASE = {
    "l_y": 100.0, "d_ls": 10.0, "p_ls": 2000.0,
    "delta_conf": 0.53, "p_conf": 2.0, "p_conf_min": 0.002, "p_conf_max": 2.0,
    "i_ls": 0.2,
    "t_d": 0.1, "t_mw": 100.0, "t1": 5000.0,
    "init_a": 0.7, "init_b": -0.9, "init_c": 0.1,
    "readout_a": 0.7, "readout_b": -0.3, "readout_c": 0.0,
    "i_sat": 1.0, "r_max": 30.0, "c0": 0.03,
    "i_valid_min": 0.001, "i_valid_max": 10.0,
    "t_mw_min": 1.0, "t_mw_max": 1000.0,
    "sweep_points_i": 61, "sweep_points_t": 61,
    "grid_nx": 100, "grid_ny": 100, "grid_nz": 1, "grid_pitch": 1.0,
    "aom_scan_x_f0": 80.0, "aom_scan_x_slope": 0.1,
    "aom_scan_y_f0": 80.0, "aom_scan_y_slope": 0.1,
    "aom_descan_x_f0": 80.0, "aom_descan_x_slope": -0.1,
    "aom_descan_y_f0": 80.0, "aom_descan_y_slope": -0.1,
    "n_trials": 2000, "master_seed": 1, "output_dir": "out",
}

_UNIT = {
    "l_y": "um", "d_ls": "um", "delta_conf": "um", "grid_pitch": "um",
    "p_ls": "mW", "p_conf": "mW", "p_conf_min": "mW", "p_conf_max": "mW",
    "i_ls": "mW/um2", "i_sat": "mW/um2", "i_valid_min": "mW/um2",
    "i_valid_max": "mW/um2",
    "t_d": "us", "t_mw": "us", "t1": "us", "t_z_step": "us",
    "t_mw_min": "us", "t_mw_max": "us",
    "r_max": "counts/us",
    "aom_scan_x_f0": "MHz", "aom_scan_y_f0": "MHz",
    "aom_descan_x_f0": "MHz", "aom_descan_y_f0": "MHz",
    "aom_scan_x_slope": "MHz/um", "aom_scan_y_slope": "MHz/um",
    "aom_descan_x_slope": "MHz/um", "aom_descan_y_slope": "MHz/um",
}

#: Voxel grid of the design study: 6400 voxels on four z planes.
DESIGN_GRID = (40, 40, 4)


def config_text(values: dict) -> str:
    lines = []
    for key, value in values.items():
        if isinstance(value, str):
            text = value
        elif key in _UNIT:
            text = f"{value!r} {_UNIT[key]}"
        else:
            text = repr(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def design_values(seed: int, index: int, grid=DESIGN_GRID) -> dict:
    """Config of one design-study pass: fixed sizes, seeded values.

    The sweep's upper power bound reaches past the curves' validity window
    on some passes, so invalid cells are exercised too.
    """
    rng = random.Random(f"design_study:{seed}:{index}")
    v = dict(BASE)
    nx, ny, nz = grid
    v.update(
        p_conf=rng.uniform(0.5, 2.5),
        p_conf_min=rng.uniform(0.0015, 0.003),
        p_conf_max=rng.uniform(2.0, 3.5),
        i_ls=rng.uniform(0.1, 0.4),
        t_mw=rng.uniform(50.0, 200.0),
        t_mw_min=rng.uniform(0.5, 2.0),
        t_mw_max=rng.uniform(500.0, 2000.0),
        t_z_step=rng.uniform(20.0, 80.0),
        grid_nx=nx, grid_ny=ny, grid_nz=nz,
        grid_pitch=rng.uniform(0.5, 2.0),
        master_seed=rng.randrange(2**31),
    )
    for axis in ("scan_x", "scan_y", "descan_x", "descan_y"):
        sign = -1.0 if axis.startswith("descan") else 1.0
        v[f"aom_{axis}_f0"] = rng.uniform(70.0, 90.0)
        v[f"aom_{axis}_slope"] = sign * rng.uniform(0.05, 0.15)
    return v


def setup_config_text(workload: str, seed: int) -> str:
    """The config a workload parses at set-up."""
    if workload == "design_study":
        return config_text(design_values(seed, 0))
    return config_text(BASE)
