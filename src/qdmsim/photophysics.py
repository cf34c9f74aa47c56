"""Intensity-dependent NV optical timescales, photon flux, and spin contrast.

Canonical units throughout the package: time in us, length in um, power
in mW, intensity in mW/um^2, photon rate in counts/us.

Initialization and readout durations follow a quadratic polynomial in
log-log space,

    log10(t / us) = a + b * log10(I) + c * log10(I)**2,

fitted over a bounded intensity window and never extrapolated silently.
Photon flux saturates as r_max * I / (I + I_sat).  Spin contrast after a
laser pulse of duration t decays as c0 * exp(-t / tau_p) with
tau_p = t_init / 3, so contrast reaches c0 / e^3 exactly when the pulse
length equals the initialization time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OutOfRangeError

# Default fitted window for the log-quadratic curves, mW/um^2.
VALID_INTENSITY_MIN = 0.001
VALID_INTENSITY_MAX = 10.0

# Synthetic default coefficients.  Chosen so that t_init ~ t_ro near
# saturation (1 mW/um^2), t_ro << t_init at low intensity, and both
# timescales sit in the 1-100 us band over the default window.
DEFAULT_INIT_CURVE = (0.7, -0.9, 0.1)
DEFAULT_READOUT_CURVE = (0.7, -0.3, 0.0)
DEFAULT_I_SAT = 1.0      # mW/um^2
DEFAULT_R_MAX = 30.0     # counts/us at the saturation asymptote
DEFAULT_C0 = 0.03        # peak spin contrast


def lightsheet_intensity(p_ls: float, l_y: float, d_ls: float) -> float:
    """Sheet intensity in mW/um^2 from power (mW), lateral size and thickness (um)."""
    if l_y <= 0 or d_ls <= 0:
        raise DomainError(f"sheet dimensions must be positive, got l_y={l_y}, d_ls={d_ls}")
    if p_ls < 0 or not math.isfinite(p_ls):
        raise DomainError(f"sheet power must be finite and >= 0, got {p_ls}")
    return p_ls / (l_y * d_ls)


def confocal_intensity(p_conf: float, delta_conf: float) -> float:
    """Focused-spot intensity in mW/um^2 from power (mW) and beam diameter (um).

    The divisor is the literal square of the focal diameter, delta**2.
    """
    if delta_conf <= 0:
        raise DomainError(f"beam diameter must be positive, got {delta_conf}")
    if p_conf < 0 or not math.isfinite(p_conf):
        raise DomainError(f"readout power must be finite and >= 0, got {p_conf}")
    return p_conf / (delta_conf * delta_conf)


@dataclass(frozen=True)
class LogQuadraticCurve:
    """Coefficients of log10(t/us) = a + b*log10(I) + c*log10(I)**2."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"curve coefficient {name} must be finite")

    def duration(self, intensity: float) -> float:
        """Evaluate the curve at intensity > 0 (mW/um^2); returns us."""
        if intensity <= 0:
            raise DomainError(f"intensity must be positive, got {intensity}")
        log_i = math.log10(intensity)
        try:
            t = 10.0 ** (self.a + self.b * log_i + self.c * log_i * log_i)
        except OverflowError:
            t = math.inf
        if not math.isfinite(t) or t <= 0:
            raise DomainError(f"curve evaluation overflowed at intensity {intensity}")
        return t


@dataclass(frozen=True)
class PhotophysicsModel:
    """Laser-intensity dependence of NV initialization, readout, flux, and contrast.

    init_curve and readout_curve are valid on [valid_min, valid_max]; requests
    outside raise OutOfRangeError rather than extrapolating.  At and below the
    saturation intensity, initialization must be the slower process
    (init >= readout); this is checked on a log-spaced sample grid when the
    model is built.
    """

    init_curve: LogQuadraticCurve = field(
        default_factory=lambda: LogQuadraticCurve(*DEFAULT_INIT_CURVE))
    readout_curve: LogQuadraticCurve = field(
        default_factory=lambda: LogQuadraticCurve(*DEFAULT_READOUT_CURVE))
    i_sat: float = DEFAULT_I_SAT
    r_max: float = DEFAULT_R_MAX
    c0: float = DEFAULT_C0
    valid_min: float = VALID_INTENSITY_MIN
    valid_max: float = VALID_INTENSITY_MAX

    def __post_init__(self):
        if not (self.i_sat > 0 and math.isfinite(self.i_sat)):
            raise DomainError(f"i_sat must be positive, got {self.i_sat}")
        if not (self.r_max > 0 and math.isfinite(self.r_max)):
            raise DomainError(f"r_max must be positive, got {self.r_max}")
        if not 0 < self.c0 < 1:
            raise DomainError(f"c0 must lie in (0, 1), got {self.c0}")
        if not 0 < self.valid_min < self.valid_max:
            raise DomainError(
                f"invalid validity range [{self.valid_min}, {self.valid_max}]")
        self._check_init_slower_below_saturation()

    def _check_init_slower_below_saturation(self, n: int = 33) -> None:
        # Sample up to i_sat only: above saturation the fitted curves may
        # legitimately cross.
        hi = min(self.i_sat, self.valid_max)
        if hi <= self.valid_min:
            return
        lo_log, hi_log = math.log10(self.valid_min), math.log10(hi)
        for k in range(n):
            i = 10.0 ** (lo_log + (hi_log - lo_log) * k / (n - 1))
            t_init = self.init_curve.duration(i)
            t_ro = self.readout_curve.duration(i)
            if t_init < t_ro * (1 - 1e-9):
                raise DomainError(
                    f"init_curve must dominate readout_curve at and below "
                    f"saturation; violated at I={i:.4g} mW/um^2 "
                    f"({t_init:.4g} < {t_ro:.4g} us)")

    def _require_in_range(self, intensity: float) -> None:
        if intensity <= 0 or not math.isfinite(intensity):
            raise DomainError(f"intensity must be positive and finite, got {intensity}")
        if not self.valid_min <= intensity <= self.valid_max:
            raise OutOfRangeError(
                f"intensity {intensity:.6g} mW/um^2 outside curve validity "
                f"range [{self.valid_min:g}, {self.valid_max:g}]")


def init_time(model: PhotophysicsModel, intensity: float) -> float:
    """Spin initialization duration in us at the given intensity."""
    model._require_in_range(intensity)
    return model.init_curve.duration(intensity)


def readout_time(model: PhotophysicsModel, intensity: float) -> float:
    """Spin readout duration in us at the given intensity."""
    model._require_in_range(intensity)
    return model.readout_curve.duration(intensity)


def photon_flux(model: PhotophysicsModel, intensity: float) -> float:
    """Saturating PL photon rate in counts/us: r_max * I / (I + I_sat)."""
    if intensity < 0 or not math.isfinite(intensity):
        raise DomainError(f"intensity must be finite and >= 0, got {intensity}")
    return model.r_max * intensity / (intensity + model.i_sat)


def polarization_decay_time(model: PhotophysicsModel, intensity: float) -> float:
    """Contrast decay constant tau_p = t_init / 3, in us."""
    return init_time(model, intensity) / 3.0


def contrast_at_delay(model: PhotophysicsModel, intensity: float,
                      t_sweep: float | np.ndarray) -> float | np.ndarray:
    """Spin contrast after the readout laser has been on for t_sweep us.

    Single-exponential model c0 * exp(-t_sweep / tau_p); by construction the
    contrast equals c0 / e^3 at t_sweep = init_time(intensity).  t_sweep is
    one delay (returns a float) or an array of them (returns an array, with
    tau_p evaluated once).  Each exponential goes through math.exp, so an
    element is bitwise the value of the scalar call at its delay.  A delay
    that is not >= 0 (negative or nan) is a DomainError; +inf gives 0.
    """
    t = np.asarray(t_sweep, dtype=float)
    bad = ~(t >= 0)
    if np.any(bad):
        raise DomainError(f"t_sweep must be >= 0, got {t[bad][0]}")
    tau_p = polarization_decay_time(model, intensity)
    exponents = (-t / tau_p).ravel().tolist()
    decay = model.c0 * np.fromiter(map(math.exp, exponents), float, t.size)
    return float(decay[0]) if t.ndim == 0 else decay.reshape(t.shape)
