"""Extraction of readout/initialization times from delay-sweep traces.

A trace holds signal and reference PL rates versus the laser-on delay
t_sweep.  From the contrast series (ref - sig) / ref two timescales are
pulled out:

* t_init: the first delay at which contrast has fallen to 1/e^3 of its
  peak (linearly interpolated), i.e. the laser duration that repolarizes
  the spins to >~95%.
* t_ro:   the delay that maximizes average contrast times the square root
  of collected reference photons over the window [0, t] - the readout
  length with the best shot-noise-limited SNR.  Cumulative quantities use
  the trapezoid rule; ties break toward shorter readout.

fit_log_quadratic turns (intensity, duration) pairs from several traces
into the log-log quadratic curves used by the photophysics model.

trace_to_csv prints each value as Python's repr of the float (the
shortest text that reads back to the same double), so read_trace_csv
recovers the trace bit for bit.  Each distinct value is formatted once,
and the text is byte for byte that of a row-by-row loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import column_text, csv_text
from .errors import DomainError, ExtractionError
from .photophysics import LogQuadraticCurve

E_CUBED_DECAY = math.exp(-3.0)


@dataclass(frozen=True)
class CalibrationTrace:
    """Delay sweep at one intensity: t_sweep (us), sig_pl and ref_pl (counts/us)."""

    intensity: float
    t_sweep: np.ndarray
    sig_pl: np.ndarray
    ref_pl: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_sweep, dtype=float)
        s = np.asarray(self.sig_pl, dtype=float)
        r = np.asarray(self.ref_pl, dtype=float)
        if not (t.shape == s.shape == r.shape) or t.ndim != 1:
            raise DomainError("trace columns must be 1-D and equally long")
        if t.size and t[0] < 0:
            raise DomainError("t_sweep values must be >= 0")
        if np.any(np.diff(t) <= 0):
            raise DomainError("t_sweep must be strictly increasing")
        if np.any(r <= 0):
            raise DomainError("ref_pl must be positive everywhere")
        for name, arr in (("t_sweep", t), ("sig_pl", s), ("ref_pl", r)):
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} contains non-finite values")
            arr.setflags(write=False)
        object.__setattr__(self, "t_sweep", t)
        object.__setattr__(self, "sig_pl", s)
        object.__setattr__(self, "ref_pl", r)

    def __len__(self) -> int:
        return self.t_sweep.size

    def contrast_series(self) -> np.ndarray:
        return (self.ref_pl - self.sig_pl) / self.ref_pl


@dataclass(frozen=True)
class ExtractedTimes:
    t_ro: float
    t_init: float
    peak_contrast: float
    warnings: tuple[str, ...] = ()


def contrast(sig_pl: float, ref_pl: float) -> float:
    """PL contrast (ref - sig) / ref; ref must be positive."""
    if ref_pl <= 0:
        raise DomainError(f"ref_pl must be positive, got {ref_pl}")
    return (ref_pl - sig_pl) / ref_pl


def _require_usable(trace: CalibrationTrace) -> np.ndarray:
    if len(trace) < 3:
        raise ExtractionError(f"trace has {len(trace)} samples, need at least 3")
    c = trace.contrast_series()
    if np.max(c) <= 0:
        raise ExtractionError("contrast series has no positive peak")
    return c


def extract_init_time(trace: CalibrationTrace) -> float:
    """Delay at which contrast first decays to 1/e^3 of its peak, in us."""
    c = _require_usable(trace)
    t = trace.t_sweep
    peak_idx = int(np.argmax(c))
    threshold = c[peak_idx] * E_CUBED_DECAY
    for j in range(peak_idx + 1, len(trace)):
        if c[j] <= threshold:
            # Linear interpolation between the bracketing samples.
            frac = (c[j - 1] - threshold) / (c[j - 1] - c[j])
            return float(t[j - 1] + frac * (t[j] - t[j - 1]))
    raise ExtractionError(
        "contrast never decays to 1/e^3 of its peak; trace too short")


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def extract_readout_time(trace: CalibrationTrace, mode: str = "averaged"
                         ) -> tuple[float, tuple[str, ...]]:
    """Delay maximizing contrast times sqrt(collected reference photons).

    mode "averaged" (default) scores each candidate window [0, t] by the
    window-averaged contrast times sqrt of the cumulative reference count;
    mode "instantaneous" uses the contrast at t itself instead of the
    window average.  Returns (t_ro, warnings); ties break toward smaller t.
    """
    if mode not in ("averaged", "instantaneous"):
        raise DomainError(f"unknown mode {mode!r}")
    c = _require_usable(trace)
    t = trace.t_sweep
    photons = _cumulative_trapezoid(trace.ref_pl, t)
    if mode == "averaged":
        width = t - t[0]
        avg_c = np.empty_like(c)
        avg_c[0] = c[0]
        avg_c[1:] = _cumulative_trapezoid(c, t)[1:] / width[1:]
        objective = avg_c * np.sqrt(photons)
    else:
        objective = c * np.sqrt(photons)
    best = int(np.argmax(objective))  # argmax takes the first maximum
    warnings = ()
    if best == len(trace) - 1:
        warnings = ("objective still rising at the last sample; "
                    "no interior maximum",)
    return float(t[best]), warnings


def extract_times(trace: CalibrationTrace, mode: str = "averaged") -> ExtractedTimes:
    """Full per-trace extraction: t_ro, t_init, and the peak contrast."""
    c = _require_usable(trace)
    t_ro, warnings = extract_readout_time(trace, mode)
    t_init = extract_init_time(trace)
    if t_init < t_ro:
        warnings = warnings + (
            f"extracted t_init {t_init:.4g} us below t_ro {t_ro:.4g} us",)
    return ExtractedTimes(t_ro, t_init, float(np.max(c)), warnings)


def fit_log_quadratic(points: list[tuple[float, float]]) -> LogQuadraticCurve:
    """Least-squares quadratic of log10(duration) against log10(intensity).

    Needs at least three points with distinct intensities; all intensities
    and durations must be positive.
    """
    if any(i <= 0 or d <= 0 for i, d in points):
        raise DomainError("intensities and durations must all be positive")
    if len({i for i, _ in points}) < 3:
        raise DomainError(
            "need at least 3 distinct intensities for a quadratic fit")
    log_i = np.log10([i for i, _ in points])
    log_t = np.log10([d for _, d in points])
    design = np.column_stack([np.ones_like(log_i), log_i, log_i ** 2])
    coeffs, *_ = np.linalg.lstsq(design, log_t, rcond=None)
    return LogQuadraticCurve(float(coeffs[0]), float(coeffs[1]), float(coeffs[2]))


TRACE_CSV_HEADER = "t_sweep_us,sig_pl,ref_pl"


def read_trace_csv(text: str, intensity: float) -> CalibrationTrace:
    """Parse a trace from CSV text with header `t_sweep_us,sig_pl,ref_pl`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != TRACE_CSV_HEADER:
        raise DomainError(f"trace CSV must start with header {TRACE_CSV_HEADER!r}")
    rows = []
    for n, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 3:
            raise DomainError(f"trace CSV line {n}: expected 3 columns")
        try:
            rows.append(tuple(float(x) for x in parts))
        except ValueError as exc:
            raise DomainError(f"trace CSV line {n}: {exc}") from None
    arr = np.array(rows, dtype=float).reshape(-1, 3)
    return CalibrationTrace(intensity, arr[:, 0], arr[:, 1], arr[:, 2])


def trace_to_csv(trace: CalibrationTrace) -> str:
    """The trace as CSV text that read_trace_csv reads back exactly."""
    return csv_text(TRACE_CSV_HEADER, map(
        column_text, (trace.t_sweep, trace.sig_pl, trace.ref_pl)))
