"""Reference values for the benchmark's output checks, computed apart from qdmsim.

Nothing here imports qdmsim.  Every figure comes from the paper's closed
forms, from exact rational arithmetic or from Poisson statistics, so a
fault in the package cannot hide inside its own check:

* the three sensitivity formulas (eta in sqrt(us), lower is better);
* recurrent readout counts W = floor(t1 / slot) and cycle spans;
* the shot-noise Monte Carlo's exact expectation and Poisson standard
  error, with readout delays k * slot and
  eta_exact = sqrt(span / W) / mean_k exp(-d_k / t1);
* scan totals full * (overhead + batch * slot) + partial cycle
  + (nz - 1) * (t_z_step - t_d), per-cycle rows and affine RF rows;
* noiseless calibration targets t_init = 3 tau_p and t_ro = x* tau_p,
  with x* from a brute-force scan of (1 - e^-x) / sqrt(x).

Protocol names are the package's tags: "LCQDM", "Leibold", "Conventional".
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

LCQDM, LEIBOLD, CONVENTIONAL = "LCQDM", "Leibold", "Conventional"

#: The paper's recurrent prefactor: the mean of the first and last readout SNR.
SNR_PREFACTOR = 2.0 / (1.0 + math.exp(-1.0))

#: Two-sided z bound.  A correct sampler exceeds it with probability 3.8e-8
#: per check, so a run of a few thousand checks trips it less than once in
#: a thousand runs, while a 6-sigma shift always does.
Z_BOUND = 5.5


class CheckError(AssertionError):
    """An output of the program disagrees with its reference."""


# -- photophysics -----------------------------------------------------------

def duration(coeffs: tuple[float, float, float], intensity):
    """log10(t / us) = a + b log10(I) + c log10(I)^2, evaluated at I mW/um^2.

    Like the sensitivity formulas below, it takes scalars or numpy arrays.
    """
    a, b, c = coeffs
    log_i = np.log10(intensity)
    t = 10.0 ** (a + b * log_i + c * log_i * log_i)
    return float(t) if np.ndim(t) == 0 else t


def flux(r_max: float, i_sat: float, intensity: float) -> float:
    """Saturating photon rate in counts/us."""
    return r_max * intensity / (intensity + i_sat)


@dataclass(frozen=True)
class Timing:
    """One cycle's timing in us, as the paper names it (scalars or arrays)."""

    t_init_ls: float
    t_init_conf: float
    t_ro: float
    t_mw: float
    t_d: float
    t1: float


# -- sensitivity ------------------------------------------------------------

def eta_lcqdm(tm: Timing):
    return SNR_PREFACTOR * np.sqrt(
        (tm.t_init_ls + tm.t_mw + tm.t1) * (tm.t_ro + tm.t_d) / tm.t1)


def eta_leibold(tm: Timing):
    return SNR_PREFACTOR * np.sqrt(
        (tm.t_mw + tm.t1) * (tm.t_ro + tm.t_init_conf + tm.t_d) / tm.t1)


def eta_conventional(tm: Timing):
    return np.sqrt(tm.t_mw + tm.t_ro + tm.t_init_conf + tm.t_d)


ETA = {LCQDM: eta_lcqdm, LEIBOLD: eta_leibold, CONVENTIONAL: eta_conventional}


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n log-spaced points from lo to hi inclusive."""
    if n == 1:
        return np.array([lo])
    return np.logspace(math.log10(lo), math.log10(hi), n)


# -- sequences and scan accounting ------------------------------------------

def recurrent_count(t1: float, slot: float) -> int:
    """Readouts of length slot that fit in t1, exactly; at least one."""
    return max(1, math.floor(Fraction(t1) / Fraction(slot)))


def cycle_layout(protocol: str, tm: Timing) -> tuple[int, float, float]:
    """(voxels per full cycle, per-cycle overhead us, per-voxel slot us)."""
    if protocol == LCQDM:
        slot = tm.t_ro + tm.t_d
        return recurrent_count(tm.t1, slot), tm.t_init_ls + tm.t_mw, slot
    if protocol == LEIBOLD:
        slot = tm.t_ro + tm.t_init_conf + tm.t_d
        return recurrent_count(tm.t1, slot), tm.t_mw, slot
    if protocol == CONVENTIONAL:
        return 1, tm.t_init_conf + tm.t_mw, tm.t_ro + tm.t_d
    raise ValueError(protocol)


def scan_total(protocol: str, tm: Timing, n_voxels: int, nz: int = 1,
               t_z_step: float | None = None) -> float:
    """Whole-grid scan time in us."""
    batch, overhead, slot = cycle_layout(protocol, tm)
    full, partial = divmod(n_voxels, batch)
    total = full * (overhead + batch * slot)
    if partial:
        total += overhead + partial * slot
    if t_z_step is not None:
        total += (nz - 1) * (t_z_step - tm.t_d)
    return total


def plan_rows(protocol: str, tm: Timing, n_voxels: int, plane: int,
              t_z_step: float | None) -> np.ndarray:
    """Columns (voxel_start, voxel_end, start_us, duration_us), one row per cycle.

    A focus step replaces the dead time after every voxel whose successor
    lies on the next z plane.
    """
    batch, overhead, slot = cycle_layout(protocol, tm)
    first = np.arange(0, n_voxels, batch)
    count = np.minimum(batch, n_voxels - first)
    dur = overhead + count * slot
    if t_z_step is not None:
        crossings = (np.minimum(first + count, n_voxels - 1) // plane
                     - first // plane)
        dur = dur + (t_z_step - tm.t_d) * crossings
    start = np.concatenate([[0.0], np.cumsum(dur)[:-1]])
    return np.column_stack([first, first + count - 1, start, dur])


def rf_rows(nx: int, ny: int, nz: int, pitch: float,
            axes: tuple[tuple[float, float], ...]) -> np.ndarray:
    """Columns (ix, iy, iz, f_sx, f_sy, f_dx, f_dy) in raster order.

    axes holds (f0 MHz, slope MHz/um) for scan x, scan y, descan x, descan y.
    """
    i = np.arange(nx * ny * nz)
    ix, iy, iz = i % nx, (i // nx) % ny, i // (nx * ny)
    x_um, y_um = ix * pitch, iy * pitch
    (sx0, sxs), (sy0, sys_), (dx0, dxs), (dy0, dys) = axes
    return np.column_stack([ix, iy, iz, sx0 + sxs * x_um, sy0 + sys_ * y_um,
                            dx0 + dxs * x_um, dy0 + dys * y_um])


# -- shot-noise Monte Carlo --------------------------------------------------

@dataclass(frozen=True)
class MonteCarloExpectation:
    windows: int          # W, readouts per cycle
    span: float           # cycle span, us
    signal_mean: float    # E[per-trial estimate] = c0 * mean_k s_k
    trial_sd: float       # Poisson standard deviation of one trial's estimate
    eta_exact: float      # sqrt(span / W) / mean_k s_k
    eta_paper: float      # the closed form with the 2 / (1 + 1/e) prefactor


def monte_carlo(protocol: str, tm: Timing, c0: float, mu: float
                ) -> MonteCarloExpectation:
    """Exact moments of the unweighted per-window contrast estimator.

    Window k starts d_k = k * slot after the MW block and keeps the
    amplitude s_k = exp(-d_k / t1).  Its reference count is Poisson(mu) and
    its signal count Poisson(mu (1 - c0 s_k)); the trial estimate
    mean_k (ref_k - sig_k) / mu has mean c0 mean_k s_k and variance
    sum_k (2 - c0 s_k) / (W^2 mu).  The package weights its windows by
    1 / (2 - c0 s_k); that moves the mean by under 0.1%, a small fraction
    of the per-pass standard error at the benchmark's trial counts.
    """
    windows, overhead, slot = cycle_layout(protocol, tm)
    span = overhead + windows * slot
    s = np.exp(-(np.arange(windows) * slot) / tm.t1)
    mean_s = float(np.mean(s))
    var = float(np.sum(2.0 - c0 * s)) / (windows * windows * mu)
    return MonteCarloExpectation(
        windows, span, c0 * mean_s, math.sqrt(var),
        math.sqrt(span / windows) / mean_s, ETA[protocol](tm))


def require_z(label: str, observed: float, expected: float, stderr: float) -> float:
    z = (observed - expected) / stderr
    if not abs(z) <= Z_BOUND:
        raise CheckError(f"{label}: z = {z:.3f} (observed {observed!r}, "
                         f"expected {expected!r} +- {stderr!r})")
    return z


def require_close(label: str, got: float, want: float, rel: float,
                  abs_tol: float = 0.0) -> None:
    if not abs(got - want) <= max(rel * abs(want), abs_tol):
        raise CheckError(f"{label}: got {got!r}, want {want!r} "
                         f"(rel {rel:g}, abs {abs_tol:g})")


# -- calibration --------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def readout_optimum() -> float:
    """x* maximizing (1 - e^-x) / sqrt(x), by brute-force scan (step 1e-5)."""
    xs = np.linspace(1e-5, 4.0, 400_000)
    return float(xs[np.argmax(-np.expm1(-xs) / np.sqrt(xs))])


def calibration_targets(t_init: float) -> tuple[float, float]:
    """Noiseless (t_init, t_ro) for contrast decaying as exp(-3 t / t_init)."""
    tau_p = t_init / 3.0
    return 3.0 * tau_p, readout_optimum() * tau_p


def calibration_rates(t_sweep: np.ndarray, flux_rate: float, c0: float,
                      t_init: float) -> tuple[np.ndarray, np.ndarray]:
    """Expected signal and reference rates, counts/us, at each delay."""
    sig = flux_rate * (1.0 - c0 * np.exp(-3.0 * t_sweep / t_init))
    return sig, np.full_like(sig, flux_rate)


# -- output files ---------------------------------------------------------------

def check_manifest(out_dir: Path) -> dict[str, bytes]:
    """Verify every `output NAME sha256 HEX` line; return the files' bytes.

    The directory must hold exactly the manifested files plus manifest.txt.
    """
    lines = (out_dir / "manifest.txt").read_text().splitlines()
    listed = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "output":
            if len(parts) != 4 or parts[2] != "sha256":
                raise CheckError(f"{out_dir.name}: bad manifest line {line!r}")
            listed[parts[1]] = parts[3]
    present = {p.name for p in out_dir.iterdir()} - {"manifest.txt"}
    if present != set(listed):
        raise CheckError(f"{out_dir.name}: files {sorted(present)} but "
                         f"manifest lists {sorted(listed)}")
    files = {}
    for name, digest in listed.items():
        data = (out_dir / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            raise CheckError(f"{out_dir.name}/{name}: sha256 differs from manifest")
        files[name] = data
    return files
