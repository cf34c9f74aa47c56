"""Photon shot-noise simulation of the measurement protocols.

Serves as an independent check on the analytic sensitivity formulas and as
a generator of synthetic calibration traces, whose contrast decay comes from
one photophysics.contrast_at_delay call per trace.  One shared photon model
is used everywhere: a readout window of length t_ro at intensity I collects

    reference counts ~ Poisson(mu),            mu = photon_flux(I) * t_ro
    signal counts    ~ Poisson(mu * (1 - c0 * a * s_k))

where a is the encoded signal amplitude (1 unless stated) and
s_k = exp(-k * slot / t1) the part of it left at the k-th of the cycle's W
readouts, which opens k * slot after the MW block (spin relaxation erases
the encoded information exponentially).  A cycle's estimate is the
unweighted mean of its windows' (ref - sig) / mu.  It depends on the counts
only through their two totals, and Poisson counts add, so each trial draws
just those sufficient statistics:

    sum ref ~ Poisson(W * mu),   sum sig ~ Poisson(mu * sum_k (1 - c0 * a * s_k))

and estimates (sum ref - sum sig) / (W * mu), with expectation
c0 * a * mean_k s_k.  sum_k s_k is a geometric series summed in closed
form, so a trial costs two draws and no per-window array at any W.  Over
n_trials independent cycles

    eta_empirical = sqrt(cycle_span / W) * c0 / mean(estimate),

whose noiseless value is sensitivity.eta_exact.

Both simulators share three input rules.  A count (trials, shots per
point) is a whole number in [1, 2**53], the largest a float64 holds
exactly, and a seed is a whole number >= 0, as SeedSequence takes it:
errors.whole_number, the package's one home for the count, seed and
quantity rules, checks both.  Every Poisson mean they draw from lies in
[0, _MAX_PHOTONS_PER_CYCLE], inside numpy's sampler range
(`_in_poisson_range`).

Determinism contract: trial t belongs to block t // TRIAL_BLOCK.  Each
block draws from its own PCG64 generator (numpy's named, version-stable
bit generator) seeded by SeedSequence((master_seed, block)), first the
block's reference totals, then its signal totals.  The block size is fixed,
so results are bitwise identical for a given master seed and trial count,
and a run's full blocks reappear unchanged in any longer run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calibration import CalibrationTrace, extract_times, fit_log_quadratic
from .errors import MAX_EXACT_COUNT, DomainError, whole_number
from .photophysics import (LogQuadraticCurve, PhotophysicsModel,
                           contrast_at_delay, photon_flux)
from .sensitivity import readout_decay_sum
from .sequence import (CONVENTIONAL, LCQDM, LEIBOLD, ProtocolParams,
                       build_conventional_cycle, build_lcqdm_cycle,
                       build_leibold_cycle, cycle_layout)

# Width of the PL sampling bin used when generating calibration traces, us.
CALIBRATION_BIN_US = 1.0

#: Trials per generator; part of the random stream, so fixed.
TRIAL_BLOCK = 1024

# Largest expected photon total per cycle; numpy's Poisson sampler rejects
# means above about 9.2e18.
_MAX_PHOTONS_PER_CYCLE = 1e18


def _in_poisson_range(lam: float) -> bool:
    """The Poisson-range rule: a mean in [0, _MAX_PHOTONS_PER_CYCLE]; false
    for NaN."""
    return 0 <= lam <= _MAX_PHOTONS_PER_CYCLE


@dataclass(frozen=True)
class SimConfig:
    params: ProtocolParams
    model: PhotophysicsModel
    i_conf: float
    n_trials: int
    master_seed: int

    def __post_init__(self):
        whole_number("n_trials", self.n_trials, 1, MAX_EXACT_COUNT)
        whole_number("master_seed", self.master_seed, 0)


@dataclass(frozen=True)
class SimOutcome:
    eta_empirical: float
    eta_stderr: float
    readouts_per_cycle: int
    cycle_time: float
    protocol_tag: str
    signal_mean: float     # mean contrast estimate, expectation c0 * a * mean_k s_k
    signal_stderr: float
    n_trials: int
    warnings: tuple[str, ...] = ()


# Not used here either: perfbench/tracing.py times cycle building by
# patching this table's entries.
_BUILDERS = {
    LCQDM: build_lcqdm_cycle,
    LEIBOLD: build_leibold_cycle,
    CONVENTIONAL: build_conventional_cycle,
}


def simulate_protocol(cfg: SimConfig, protocol_tag: str,
                      noiseless: bool = False, signal_amplitude: float = 1.0,
                      trial_etas_out: Optional[list] = None) -> SimOutcome:
    """Estimate the per-voxel sensitivity of one protocol by simulation.

    noiseless replaces every photon draw by its mean (the infinite-flux
    limit), leaving only the deterministic amplitude-decay accounting.
    signal_amplitude scales the encoded signal; 0 gives a null measurement
    whose estimate must be statistically consistent with zero.  It must be
    finite with c0 * signal_amplitude <= 1 (no window's signal rate is
    negative) and keep the signal total within the Poisson sampler's range.
    If trial_etas_out is given, the per-trial eta values are appended to it
    as floats (inf for a zero estimate).
    """
    n_windows, overhead, slot = cycle_layout(protocol_tag, cfg.params)
    span = overhead + n_windows * slot
    t_per_voxel = span / n_windows

    c0 = cfg.model.c0
    if not (math.isfinite(signal_amplitude) and c0 * signal_amplitude <= 1):
        raise DomainError(f"signal_amplitude must be finite with c0 * "
                          f"signal_amplitude <= 1 (c0 = {c0}), got "
                          f"{signal_amplitude!r}")
    mu = photon_flux(cfg.model, cfg.i_conf) * cfg.params.t_ro_conf
    if mu <= 0:
        raise DomainError("expected photon count per window is zero; "
                          "raise i_conf or t_ro_conf")
    encoded = c0 * signal_amplitude * readout_decay_sum(
        n_windows, slot, cfg.params.t1)
    lam_ref = n_windows * mu
    lam_sig = mu * (n_windows - encoded)
    if not _in_poisson_range(lam_ref):
        raise DomainError(f"{lam_ref:.3g} expected photons per cycle "
                          f"({n_windows} readouts) exceed the Poisson "
                          f"sampler's range")
    if not _in_poisson_range(lam_sig):
        raise DomainError(f"{lam_sig:.3g} expected signal photons per cycle "
                          f"(signal_amplitude {signal_amplitude!r}) lie "
                          f"outside the Poisson sampler's range")

    n = cfg.n_trials
    estimates = np.empty(n, dtype=float)
    if noiseless:
        estimates[:] = encoded / n_windows
    else:
        for block, lo in enumerate(range(0, n, TRIAL_BLOCK)):
            size = min(TRIAL_BLOCK, n - lo)
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence((cfg.master_seed, block))))
            ref = rng.poisson(lam_ref, size)
            estimates[lo:lo + size] = (ref - rng.poisson(lam_sig, size)) / lam_ref

    # The reductions np.mean and np.std(ddof=1) run, without their dispatch;
    # the values are bitwise theirs.
    mean = np.add.reduce(estimates) / n
    signal_mean = float(mean)
    warnings: tuple[str, ...] = ()
    if n >= 2:
        deviation = estimates - mean
        variance = np.add.reduce(deviation * deviation) / (n - 1)
        signal_stderr = float(np.sqrt(variance) / math.sqrt(n))
    else:
        signal_stderr = 0.0
        warnings = ("n_trials too small to estimate a standard error",)

    # Normalized SNR: the estimate in units of the zero-delay amplitude c0.
    snr_est = signal_mean / c0
    if snr_est > 0:
        eta = math.sqrt(t_per_voxel) / snr_est
        eta_stderr = math.sqrt(t_per_voxel) * (signal_stderr / c0) / snr_est ** 2
    else:
        eta, eta_stderr = math.inf, math.inf
        warnings = warnings + ("signal estimate is non-positive; eta undefined",)

    if trial_etas_out is not None:
        with np.errstate(divide="ignore"):
            trial_etas_out.extend(
                (math.sqrt(t_per_voxel) * c0 / estimates).tolist())

    return SimOutcome(eta, eta_stderr, n_windows, span, protocol_tag,
                      signal_mean, signal_stderr, n, warnings)


def simulate_calibration(model: PhotophysicsModel, intensity: float,
                         sweep_grid: Sequence[float], shots_per_point: int,
                         seed: int, noiseless: bool = False) -> CalibrationTrace:
    """Synthetic delay-sweep trace at one intensity.

    Signal rate is flux * (1 - contrast_at_delay), reference rate is flux.
    Each point averages Poisson counts over shots_per_point bins of
    CALIBRATION_BIN_US; noiseless returns the exact rates.  The whole grid
    goes to one contrast_at_delay call, which evaluates the decay constant
    once per trace.
    """
    grid = np.asarray(sweep_grid, dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise DomainError("sweep_grid must be non-empty, non-negative, "
                          "strictly increasing")
    whole_number("shots_per_point", shots_per_point, 1, MAX_EXACT_COUNT)
    whole_number("seed", seed, 0)
    flux = photon_flux(model, intensity)
    sig_rate = flux * (1.0 - contrast_at_delay(model, intensity, grid))
    ref_rate = np.full_like(sig_rate, flux)
    if not noiseless:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        window = shots_per_point * CALIBRATION_BIN_US
        # the reference mean bounds every signal mean of the trace
        if not _in_poisson_range(flux * window):
            raise DomainError(f"{flux * window:.3g} expected photons per point "
                              f"({shots_per_point} shots) exceed the Poisson "
                              f"sampler's range")
        sig_rate = rng.poisson(sig_rate * window) / window
        ref_rate = rng.poisson(ref_rate * window) / window
    return CalibrationTrace(intensity, grid, sig_rate, ref_rate)


@dataclass(frozen=True)
class PipelineResult:
    init_curve: LogQuadraticCurve
    readout_curve: LogQuadraticCurve
    samples: tuple[tuple[float, float, float], ...]  # (intensity, t_ro, t_init)


def end_to_end_pipeline(model: PhotophysicsModel, intensities: Sequence[float],
                        sweep_grids: Sequence[Sequence[float]],
                        shots_per_point: int, master_seed: int,
                        noiseless: bool = False) -> PipelineResult:
    """Simulate, extract, and fit the two intensity curves.

    One trace per intensity (seeded from (master_seed, index)), timescale
    extraction per trace, then a log-quadratic fit of t_init and t_ro
    against intensity.
    """
    if len(intensities) != len(sweep_grids):
        raise DomainError("need one sweep grid per intensity")
    whole_number("master_seed", master_seed, 0)
    samples = []
    for k, (intensity, grid) in enumerate(zip(intensities, sweep_grids)):
        seed = int(np.random.SeedSequence((master_seed, k)).generate_state(1)[0])
        trace = simulate_calibration(model, intensity, grid, shots_per_point,
                                     seed, noiseless=noiseless)
        ext = extract_times(trace)
        samples.append((intensity, ext.t_ro, ext.t_init))
    init_curve = fit_log_quadratic([(i, t_init) for i, _, t_init in samples])
    ro_curve = fit_log_quadratic([(i, t_ro) for i, t_ro, _ in samples])
    return PipelineResult(init_curve, ro_curve, tuple(samples))
