"""Extraction of readout/initialization times from delay-sweep traces.

A trace holds signal and reference PL rates versus the laser-on delay
t_sweep.  CalibrationTrace.contrast_series is the package's one definition
of PL contrast, (ref - sig) / ref per delay, and the trace refuses a
reference that is not positive everywhere.  From that series two
timescales are pulled out:

* t_init: the first delay after the peak at which contrast has fallen to
  1/e^3 of its peak (linearly interpolated), i.e. the laser duration that
  repolarizes the spins to >~95%.
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

read_trace_csv's contract: lines are split as str.splitlines splits them
(CRLF, form feed and U+2028 included) and stripped; blank lines are
skipped but still counted.  The first line left must be the header
(spaces inside it are ignored), and every line after it holds three
comma-separated fields, each parsed by float() - so `1_0`, `nan` and
`inf` parse as Python parses them, and a non-finite value is then
refused by CalibrationTrace.  A malformed file raises DomainError naming
the file line of the first bad row.  The fields of all rows are parsed
in one pass; only when that fails are the rows scanned again, in order,
for the one to name.
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
    below = np.flatnonzero(c[peak_idx + 1:] <= threshold)
    if not below.size:
        raise ExtractionError(
            "contrast never decays to 1/e^3 of its peak; trace too short")
    j = peak_idx + 1 + int(below[0])
    # Linear interpolation between the bracketing samples.
    frac = (c[j - 1] - threshold) / (c[j - 1] - c[j])
    return float(t[j - 1] + frac * (t[j] - t[j - 1]))


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
    """Parse a trace from CSV text with header `t_sweep_us,sig_pl,ref_pl`.

    Every field goes through float(), so the arrays are bitwise those of a
    row-by-row parse.  Lines are stripped and blank ones skipped but
    counted: an error names the file line of the first bad row.
    """
    lines = [s for ln in text.splitlines() if (s := ln.strip())]
    if not lines or lines[0].replace(" ", "") != TRACE_CSV_HEADER:
        raise DomainError(f"trace CSV must start with header {TRACE_CSV_HEADER!r}")
    body = lines[1:]
    # Every row holds exactly three fields, so all of them parse in one pass.
    if any(ln.count(",") != 2 for ln in body):
        raise _first_bad_row(text)
    fields = ",".join(body).split(",") if body else []
    try:
        values = np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        raise _first_bad_row(text) from None
    arr = values.reshape(-1, 3)
    return CalibrationTrace(intensity, arr[:, 0], arr[:, 1], arr[:, 2])


def _first_bad_row(text: str) -> DomainError:
    """The error for the first row below the header that is not 3 floats,
    naming its file line: blank lines are skipped but counted."""
    numbered = [(n, s) for n, ln in enumerate(text.splitlines(), start=1)
                if (s := ln.strip())]
    for n, ln in numbered[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            return DomainError(f"trace CSV line {n}: expected 3 columns")
        try:
            for x in parts:
                float(x)
        except ValueError as exc:
            return DomainError(f"trace CSV line {n}: {exc}")
    raise AssertionError("read_trace_csv found a bad row that is not there")


def trace_to_csv(trace: CalibrationTrace) -> str:
    """The trace as CSV text that read_trace_csv reads back exactly."""
    return csv_text(TRACE_CSV_HEADER, map(
        column_text, (trace.t_sweep, trace.sig_pl, trace.ref_pl)))
