"""Pulse-sequence timelines for the scanning-QDM measurement protocols.

Three acquisition protocols are modeled, plus the delay-sweep calibration
sequence:

* LCQDM        - one global light-sheet initialization and one MW block,
                 followed by as many recurrent single-voxel readouts as fit
                 inside the spin-relaxation budget t1.
* Leibold      - one global MW block, then recurrent readout+reinitialization
                 per voxel until t1 is spent.
* Conventional - initialize, MW, read a single voxel; repeat per voxel.
* Calibration  - signal/reference PL sample pair at a swept laser-on delay.

Each protocol's cycle is declared once (`_CYCLES`): whether its readouts
recur within t1, the prelude before the first readout, and the events of
one readout slot.  `cycle_layout` (whose first number is the count of
readouts that fit in t1), `build_cycle` (behind the three named builders)
and sensitivity's paper forms (the recurrent ones are the cycle's
continuum limit) all derive from that declaration through `_cycle`.

A timeline is made only by a builder (`build_cycle`, its three full-cycle
shorthands, `build_calibration_sequence`).  It has two jobs: it is the
brute-force oracle for the closed forms (`cycle_layout`, sensitivity's
`readout_decay_sum` and `eta_exact` must equal sums over its columns), and
it is the demo's printable timeline (`to_text`).  `validate_sequence` checks
a timeline's t1 budget against a parameter set, which a cycle built for a
longer t1 breaks.

A sequence is stored as four read-only numpy columns in event order: `kind`
(int8 code indexing EVENT_KINDS), `start` and `duration` (float64 us) and
`voxel` (int64, -1 for none).  The builders fill them with strided
assignments, the reductions (span, duty cycle) work on them directly, and
`windows()` returns the readout windows as `SequenceEvent` rows.  The
columns hold their invariants by construction: starts in order, each
Leibold window inside its voxel's laser dwell, each calibration window
inside its half's second laser pulse, and finite non-negative times.  A
builder refuses a timeline whose last end overflows (for a cycle through
`cycle_layout`), and that end bounds every start and end before it.  A
sequence holds at most MAX_EVENTS events; a larger cycle is a DomainError
raised before any column is allocated, and its totals come from
`cycle_layout` instead.

Readout windows in the recurrent protocols double as the confocal dwell
itself (the steering beam parks on the voxel exactly for the readout); a
separate ConfocalLaserPulse event appears only where the laser serves
another role (reinitialization, conventional init, calibration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, finite_number, whole_number

LCQDM = "LCQDM"
LEIBOLD = "Leibold"
CONVENTIONAL = "Conventional"
CALIBRATION = "Calibration"
PROTOCOLS = (LCQDM, LEIBOLD, CONVENTIONAL)

LIGHT_SHEET_PULSE = "LightSheetPulse"
CONFOCAL_LASER_PULSE = "ConfocalLaserPulse"
MW_BLOCK = "MWBlock"
READOUT_WINDOW = "ReadoutWindow"
DEAD_TIME = "DeadTime"
EVENT_KINDS = (LIGHT_SHEET_PULSE, CONFOCAL_LASER_PULSE, MW_BLOCK,
               READOUT_WINDOW, DEAD_TIME)
_LS, _LASER, _MW, _WINDOW, _DEAD = range(len(EVENT_KINDS))

# Largest sequence that may be materialized (about 250 MB of columns).
MAX_EVENTS = 10**7

# Relative slack for the t1 budget on accumulated event times.
_TIME_RTOL = 1e-9

# ProtocolParams fields with whether each must be strictly positive.
_PARAM_FIELDS = (("t_init_ls", False), ("t_init_conf", False),
                 ("t_ro_conf", True), ("t_mw", False), ("t_d", False),
                 ("t1", True))


@dataclass(frozen=True)
class ProtocolParams:
    """Timing parameters of one measurement cycle, all in us."""

    t_init_ls: float    # light-sheet initialization
    t_init_conf: float  # confocal-spot initialization
    t_ro_conf: float    # confocal readout dwell
    t_mw: float         # MW sequence duration
    t_d: float          # beam-steering dead time
    t1: float           # spin-lattice relaxation time

    def __post_init__(self):
        for name, strict in _PARAM_FIELDS:
            value = getattr(self, name)
            # finite_number passes a one-element array, which the scalar
            # layout arithmetic cannot take
            if isinstance(value, np.ndarray):
                raise DomainError(f"{name} must be a real number, got {value!r}")
            finite_number(name, value, 0, strict)


@dataclass(frozen=True)
class SequenceEvent:
    """One row of a PulseSequence, as `windows()` returns it."""

    kind: str
    start: float
    duration: float
    voxel_index: Optional[int] = None


@dataclass(frozen=True, eq=False)
class PulseSequence:
    """An event timeline as four equal-length columns in event order, as
    a builder makes it; the columns are marked read-only."""

    kind: np.ndarray      # int8 code indexing EVENT_KINDS
    start: np.ndarray     # float64 us
    duration: np.ndarray  # float64 us
    voxel: np.ndarray     # int64 voxel index, -1 for none
    protocol_tag: str

    def __post_init__(self):
        for col in (self.kind, self.start, self.duration, self.voxel):
            col.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, PulseSequence):
            return NotImplemented
        return (self.protocol_tag == other.protocol_tag
                and np.array_equal(self.kind, other.kind)
                and np.array_equal(self.start, other.start)
                and np.array_equal(self.duration, other.duration)
                and np.array_equal(self.voxel, other.voxel))

    def __repr__(self) -> str:
        return f"PulseSequence({self.protocol_tag!r}, {self.kind.size} events)"

    def windows(self) -> tuple[SequenceEvent, ...]:
        """The readout windows as rows, in event order."""
        sel = self.kind == _WINDOW
        return tuple(
            SequenceEvent(READOUT_WINDOW, s, d, None if v < 0 else v)
            for s, d, v in zip(self.start[sel].tolist(), self.duration[sel].tolist(),
                               self.voxel[sel].tolist()))

    def span(self) -> float:
        """Total extent in us, from the earliest start to the latest end."""
        return float((self.start + self.duration).max() - self.start.min())

    def to_text(self) -> str:
        """Line-oriented timeline: `kind start_us duration_us [voxel]`."""
        lines = [f"{EVENT_KINDS[k]} {s!r} {d!r}" + (f" {v}" if v >= 0 else "")
                 for k, s, d, v in zip(self.kind.tolist(), self.start.tolist(),
                                       self.duration.tolist(), self.voxel.tolist())]
        return "\n".join(lines) + "\n"


def _slots_within(budget: float, slot: float) -> int:
    # floor(budget / slot), corrected downward when the float quotient
    # rounded up across an integer; n * slot <= budget is the contract.
    # One step to the float below the quotient is enough, and unlike a
    # step of one it still moves n above 2**53.
    quotient = budget / slot
    if not math.isfinite(quotient):
        raise DomainError(f"t1 / slot overflows ({budget!r} us / {slot!r} us); "
                          "the recurrent readout count is unbounded")
    n = math.floor(quotient)
    if n * slot > budget:
        n = math.floor(math.nextafter(quotient, 0.0))
    return max(1, n)


# Each protocol's cycle, declared once: (whether its readouts recur within
# t1, prelude events as (kind, duration) placed back to back from 0, one
# readout slot's events as (kind, offset, duration, whether the event
# addresses the slot's voxel)).  The overhead is the prelude's end, the slot
# the end of the slot's last event, and slot k opens at overhead + k * slot.
_CYCLES = {
    LCQDM: lambda p: (
        True, ((_LS, p.t_init_ls), (_MW, p.t_mw)),
        ((_WINDOW, 0.0, p.t_ro_conf, True), (_DEAD, p.t_ro_conf, p.t_d, False))),
    LEIBOLD: lambda p: (
        True, ((_MW, p.t_mw),),
        ((_WINDOW, 0.0, p.t_ro_conf, True),
         (_LASER, 0.0, p.t_ro_conf + p.t_init_conf, True),
         (_DEAD, p.t_ro_conf + p.t_init_conf, p.t_d, False))),
    CONVENTIONAL: lambda p: (
        False, ((_LASER, p.t_init_conf), (_MW, p.t_mw)),
        ((_WINDOW, 0.0, p.t_ro_conf, True), (_DEAD, p.t_ro_conf, p.t_d, False))),
}


def _cycle(protocol_tag: str, p):
    """(recurs, overhead, slot, prelude rows, slot events); array fields broadcast."""
    if protocol_tag not in PROTOCOLS:
        raise DomainError(f"unknown protocol {protocol_tag!r}; expected one of {PROTOCOLS}")
    recurrent, prelude, slot_events = _CYCLES[protocol_tag](p)
    rows, overhead = [], 0.0
    for code, length in prelude:
        rows.append((code, overhead, length))
        overhead = overhead + length  # not +=, which cannot grow an array
    _, offset, length, _ = slot_events[-1]
    return recurrent, overhead, offset + length, rows, slot_events


def _layout(protocol_tag: str, p: ProtocolParams):
    """cycle_layout's numbers (the count needs a scalar p), rows and slot events.

    The last event of the last slot ends last; its end, summed in the order
    build_cycle's columns sum it, bounds every start and end of the cycle,
    and, as rounding is monotone, of every partial cycle.  It must be finite.
    """
    recurrent, overhead, slot, rows, slot_events = _cycle(protocol_tag, p)
    count = _slots_within(p.t1, slot) if recurrent else 1
    _, offset, length, _ = slot_events[-1]
    end = overhead + (count - 1) * slot + offset + length
    if not math.isfinite(end):
        raise DomainError(f"a {protocol_tag} cycle of {count} readouts ends at "
                          f"{end!r} us; its times overflow")
    return count, overhead, slot, rows, slot_events


def cycle_layout(protocol_tag: str, p: ProtocolParams
                 ) -> tuple[int, float, float]:
    """(readouts per full cycle, per-cycle overhead us, per-readout slot us).

    A recurrent protocol reads as many slots as fit in t1 (at least 1), the
    conventional one reads once.  A cycle of n readouts spans overhead +
    n * slot, and its k-th readout window opens k * slot after the end of
    the MW block.  A cycle whose end overflows is a DomainError.
    """
    return _layout(protocol_tag, p)[:3]


def build_cycle(protocol_tag: str, p: ProtocolParams,
                n_readouts: Optional[int] = None) -> PulseSequence:
    """One cycle of a protocol: its prelude, then n_readouts readout slots
    (by default cycle_layout's full count; fewer end a scan).
    """
    count, overhead, slot, prelude, slot_events = _layout(protocol_tag, p)
    n = count if n_readouts is None else whole_number("n_readouts", n_readouts, 1, count)
    head, width = len(prelude), len(slot_events)
    n_events = head + width * n
    if n_events > MAX_EVENTS:
        raise DomainError(
            f"a {protocol_tag} cycle of {n_events} events exceeds the "
            f"{MAX_EVENTS} a sequence may hold; use cycle_layout for its totals")
    kind, start, duration = (np.empty(n_events, np.int8), np.empty(n_events),
                             np.empty(n_events))
    voxel = np.full(n_events, -1, np.int64)
    for i, row in enumerate(prelude):
        kind[i], start[i], duration[i] = row
    k = np.arange(n)
    window_start = overhead + k * slot
    for i, (code, offset, length, addressed) in enumerate(slot_events, head):
        kind[i::width], start[i::width], duration[i::width] = (
            code, window_start + offset if offset else window_start, length)
        if addressed:
            voxel[i::width] = k
    return PulseSequence(kind, start, duration, voxel, protocol_tag)


# Full-cycle shorthands for build_cycle(tag, p); a partial cycle goes
# through build_cycle(tag, p, n).  perfbench/ calls and patches them.
def build_lcqdm_cycle(p: ProtocolParams) -> PulseSequence:
    """One light-sheet cycle: global init, MW block, recurrent readouts."""
    return build_cycle(LCQDM, p)


def build_leibold_cycle(p: ProtocolParams) -> PulseSequence:
    """One recurrent readout+reinit cycle: MW block, then per voxel a readout
    window inside a laser dwell that continues for the reinitialization."""
    return build_cycle(LEIBOLD, p)


def build_conventional_cycle(p: ProtocolParams) -> PulseSequence:
    """Single-voxel cycle: init pulse, MW block, one readout, dead time."""
    return build_cycle(CONVENTIONAL, p)


def build_calibration_sequence(p: ProtocolParams, t_sweep: float) -> PulseSequence:
    """Signal/reference PL sampling at delay t_sweep after laser turn-on.

    Each half is init pulse, MW block (zero width; the reference half simply
    has no pulse applied inside it), then the laser back on with an
    instantaneous readout sample at offset t_sweep.  A sequence whose last
    end, the reference half's second laser end, overflows is a DomainError.
    """
    finite_number("t_sweep", t_sweep, 0)
    half = p.t_init_conf + t_sweep + p.t_ro_conf
    end = (half + p.t_init_conf) + (t_sweep + p.t_ro_conf)
    if not math.isfinite(end):
        raise DomainError(f"a calibration sequence at t_sweep = {t_sweep!r} us "
                          f"ends at {end!r} us; its times overflow")
    # rows: 0 = signal half, 1 = reference half
    t0 = np.array([[0.0], [half]])
    laser_on = t0 + p.t_init_conf
    return PulseSequence(
        np.tile(np.array([_LASER, _MW, _LASER, _WINDOW], np.int8), 2),
        np.hstack([t0, laser_on, laser_on, laser_on + t_sweep]).ravel(),
        np.tile([p.t_init_conf, 0.0, t_sweep + p.t_ro_conf, 0.0], 2),
        np.tile(np.array([0, -1, 0, 0], np.int64), 2),
        CALIBRATION)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]
    warnings: tuple[str, ...]


def validate_sequence(seq: PulseSequence, p: ProtocolParams) -> ValidationReport:
    """Check a timeline's t1 budget against p.

    The budget runs from the end of the MW block to the end of the last
    readout window, and applies to the recurrent protocols.  A sequence
    whose single readout already overruns t1 is the degenerate minimum-one-
    readout case and is reported as a warning, not a violation.
    """
    violations: list[str] = []
    warnings: list[str] = []
    if seq.protocol_tag in (LCQDM, LEIBOLD):
        end = seq.start + seq.duration
        windows = seq.kind == _WINDOW
        recurrent_span = float(end[windows].max() - end[seq.kind == _MW].max())
        if recurrent_span > p.t1 * (1 + _TIME_RTOL):
            msg = f"recurrent span {recurrent_span:.6g} us exceeds t1 = {p.t1:.6g} us"
            if np.count_nonzero(windows) == 1:
                warnings.append(msg + " (single clamped readout)")
            else:
                violations.append(msg)
    return ValidationReport(not violations, tuple(violations), tuple(warnings))


def duty_cycle(seq: PulseSequence) -> float:
    """Fraction of the sequence span spent acquiring readout signal."""
    return float(seq.duration[seq.kind == _WINDOW].sum()) / seq.span()
