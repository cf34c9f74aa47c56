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
readouts that fit in t1) and `build_cycle` (behind the three named
builders) both derive from that declaration.

A sequence is stored as four numpy columns in event order: `kind` (int8
code indexing EVENT_KINDS), `start` and `duration` (float64 us) and `voxel`
(int64, -1 for none).  `build_cycle` fills them with strided assignments,
the validator and the reductions (span, duty cycle) work on them directly,
and `SequenceEvent` rows are made only on demand (`events`, `windows()`,
`PulseSequence.from_events` for hand-built timelines).  `PulseSequence(...)`
and `from_events` check every column; a builder-made timeline skips the
re-check of what holds by construction (dtypes, kind codes, voxels, per-event
times) and keeps only the check that an overhead or slot did not overflow
to inf, made in closed form.  A sequence holds at
most MAX_EVENTS events; a larger cycle is a DomainError raised before any
column is allocated, and its totals come from `cycle_layout` instead.

Readout windows in the recurrent protocols double as the confocal dwell
itself (the steering beam parks on the voxel exactly for the readout); a
separate ConfocalLaserPulse event appears only where the laser serves
another role (reinitialization, conventional init, calibration).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import DomainError

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

# Relative slack for float comparisons on accumulated event times.
_TIME_RTOL = 1e-9


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
        for name in ("t_init_ls", "t_init_conf", "t_ro_conf", "t_mw", "t_d", "t1"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise DomainError(f"{name} must be finite and >= 0, got {v}")
        if self.t1 <= 0:
            raise DomainError(f"t1 must be positive, got {self.t1}")
        if self.t_ro_conf <= 0:
            raise DomainError(f"t_ro_conf must be positive, got {self.t_ro_conf}")


@dataclass(frozen=True)
class SequenceEvent:
    """One row of a PulseSequence, made on demand; checked when a sequence
    is built from rows (PulseSequence.from_events)."""

    kind: str
    start: float
    duration: float
    voxel_index: Optional[int] = None

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True, eq=False)
class PulseSequence:
    """An event timeline as four equal-length columns in event order.

    The sequence takes the column arrays over and makes them read-only.
    """

    kind: np.ndarray      # int8 code indexing EVENT_KINDS
    start: np.ndarray     # float64 us
    duration: np.ndarray  # float64 us
    voxel: np.ndarray     # int64 voxel index, -1 for none
    protocol_tag: str

    def __post_init__(self):
        if self.protocol_tag not in (*PROTOCOLS, CALIBRATION):
            raise DomainError(f"unknown protocol tag {self.protocol_tag!r}")
        kind = np.asarray(self.kind)
        if kind.ndim != 1 or kind.dtype.kind not in "iu":
            raise DomainError("event kinds must be a 1-D integer column")
        if ((kind < 0) | (kind >= len(EVENT_KINDS))).any():
            raise DomainError(f"event kind codes must index {EVENT_KINDS}")
        cols = (kind.astype(np.int8, copy=False),
                np.asarray(self.start, np.float64),
                np.asarray(self.duration, np.float64),
                np.asarray(self.voxel, np.int64))
        if any(c.shape != kind.shape for c in cols):
            raise DomainError("sequence columns must have equal length")
        kind, start, duration, voxel = cols
        bad = np.flatnonzero(~(np.isfinite(start) & np.isfinite(duration)
                               & (start >= 0) & (duration >= 0)))
        if bad.size:
            i = bad[0]
            raise DomainError(
                f"event {i} times must be finite and >= 0, got "
                f"start={float(start[i])}, duration={float(duration[i])}")
        if (voxel < -1).any():
            raise DomainError(f"voxel indices must be >= 0 (or -1 for none), "
                              f"got {int(voxel.min())}")
        _freeze(self, cols)

    @classmethod
    def _unchecked(cls, kind, start, duration, voxel, protocol_tag):
        """Sequence from columns that hold every invariant by construction
        (dtypes, equal lengths, kind range, finite non-negative times, voxel
        >= -1); build_cycle's fast path."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "protocol_tag", protocol_tag)
        _freeze(seq, (kind, start, duration, voxel))
        return seq

    @classmethod
    def from_events(cls, events: Iterable[SequenceEvent],
                    protocol_tag: str) -> PulseSequence:
        """Sequence from rows, e.g. a hand-built or edited timeline."""
        events = tuple(events)
        codes = []
        for e in events:
            if e.kind not in EVENT_KINDS:
                raise DomainError(f"unknown event kind {e.kind!r}")
            if e.voxel_index is not None and e.voxel_index < 0:
                raise DomainError(f"voxel_index must be >= 0, got {e.voxel_index}")
            codes.append(EVENT_KINDS.index(e.kind))
        return cls(np.array(codes, np.int8),
                   np.array([e.start for e in events], np.float64),
                   np.array([e.duration for e in events], np.float64),
                   np.array([-1 if e.voxel_index is None else e.voxel_index
                             for e in events], np.int64),
                   protocol_tag)

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

    @property
    def events(self) -> tuple[SequenceEvent, ...]:
        return self._rows(slice(None))

    def windows(self) -> tuple[SequenceEvent, ...]:
        return self._rows(self.kind == _WINDOW)

    def _rows(self, sel) -> tuple[SequenceEvent, ...]:
        return tuple(
            SequenceEvent(EVENT_KINDS[k], s, d, None if v < 0 else v)
            for k, s, d, v in zip(self.kind[sel].tolist(), self.start[sel].tolist(),
                                  self.duration[sel].tolist(), self.voxel[sel].tolist()))

    def span(self) -> float:
        """Total extent in us, from the earliest start to the latest end."""
        if not self.kind.size:
            return 0.0
        return float((self.start + self.duration).max() - self.start.min())

    def to_text(self) -> str:
        """Line-oriented timeline: `kind start_us duration_us [voxel]`."""
        lines = [f"{EVENT_KINDS[k]} {s!r} {d!r}" + (f" {v}" if v >= 0 else "")
                 for k, s, d, v in zip(self.kind.tolist(), self.start.tolist(),
                                       self.duration.tolist(), self.voxel.tolist())]
        return "\n".join(lines) + "\n"


def _freeze(seq: PulseSequence, cols) -> None:
    for name, col in zip(("kind", "start", "duration", "voxel"), cols):
        col.flags.writeable = False
        object.__setattr__(seq, name, col)


def _empty_columns(n_events: int, protocol_tag: str):
    if n_events > MAX_EVENTS:
        raise DomainError(
            f"a {protocol_tag} cycle of {n_events} events exceeds the "
            f"{MAX_EVENTS} a sequence may hold; use cycle_layout for its totals")
    return (np.empty(n_events, np.int8), np.empty(n_events), np.empty(n_events),
            np.full(n_events, -1, np.int64))


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


def _layout(protocol_tag: str, p: ProtocolParams):
    """cycle_layout's numbers, prelude rows and slot events, read once."""
    if protocol_tag not in PROTOCOLS:
        raise DomainError(f"unknown protocol {protocol_tag!r}; expected one of {PROTOCOLS}")
    recurrent, prelude, slot_events = _CYCLES[protocol_tag](p)
    rows, overhead = [], 0.0
    for code, length in prelude:
        rows.append((code, overhead, length))
        overhead += length
    _, offset, length, _ = slot_events[-1]
    slot = offset + length
    count = _slots_within(p.t1, slot) if recurrent else 1
    return count, overhead, slot, rows, slot_events


def cycle_layout(protocol_tag: str, p: ProtocolParams
                 ) -> tuple[int, float, float]:
    """(readouts per full cycle, per-cycle overhead us, per-readout slot us).

    A recurrent protocol reads as many slots as fit in t1 (at least 1), the
    conventional one reads once.  A cycle of n readouts spans overhead +
    n * slot, and its k-th readout window opens k * slot after the end of
    the MW block.
    """
    return _layout(protocol_tag, p)[:3]


def build_cycle(protocol_tag: str, p: ProtocolParams,
                n_readouts: Optional[int] = None) -> PulseSequence:
    """One cycle of a protocol: its prelude, then n_readouts readout slots
    (by default cycle_layout's full count; fewer end a scan).
    """
    count, overhead, slot, prelude, slot_events = _layout(protocol_tag, p)
    try:
        n = count if n_readouts is None else operator.index(n_readouts)
    except TypeError:
        raise DomainError(f"n_readouts must be an integer, got {n_readouts!r}") from None
    if not 1 <= n <= count:
        raise DomainError(f"n_readouts must be in [1, {count}], got {n}")
    # The columns hold the constructor's invariants by construction, unless
    # the overhead or a slot overflowed to inf.  The last event of the last
    # slot has the largest start and the latest end, and its start includes
    # the overhead, so its end alone decides; it is summed here in the order
    # the columns sum it.  On overflow numpy's warnings are silenced, so the
    # checked constructor raises its usual DomainError.
    _, offset, length, _ = slot_events[-1]
    if math.isfinite(overhead + (n - 1) * slot + offset + length):
        return PulseSequence._unchecked(
            *_cycle_columns(n, overhead, slot, prelude, slot_events, protocol_tag),
            protocol_tag)
    with np.errstate(over="ignore", invalid="ignore"):
        return PulseSequence(
            *_cycle_columns(n, overhead, slot, prelude, slot_events, protocol_tag),
            protocol_tag)


def _cycle_columns(n, overhead, slot, prelude, slot_events, protocol_tag):
    """build_cycle's kind, start, duration and voxel columns."""
    head, width = len(prelude), len(slot_events)
    kind, start, duration, voxel = _empty_columns(head + width * n, protocol_tag)
    for i, row in enumerate(prelude):
        kind[i], start[i], duration[i] = row
    k = np.arange(n)
    window_start = overhead + k * slot
    for i, (code, offset, length, addressed) in enumerate(slot_events, head):
        kind[i::width], start[i::width], duration[i::width] = (
            code, window_start + offset if offset else window_start, length)
        if addressed:
            voxel[i::width] = k
    return kind, start, duration, voxel


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
    instantaneous readout sample at offset t_sweep.
    """
    if not (math.isfinite(t_sweep) and t_sweep >= 0):
        raise DomainError(f"t_sweep must be finite and >= 0, got {t_sweep}")
    # rows: 0 = signal half, 1 = reference half
    t0 = np.array([[0.0], [p.t_init_conf + t_sweep + p.t_ro_conf]])
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
    """Check ordering, laser containment of readouts, and the t1 budget.

    Containment: a readout window must fall inside a ConfocalLaserPulse with
    the same voxel index.  When no laser pulse anywhere in the sequence
    addresses that voxel, the window is taken to be its own dwell (the
    steering beam parks exactly for the readout, as the recurrent builders
    emit) and passes.

    The t1 budget runs from the end of the last MW block to the end of the
    last readout window, and applies to the recurrent protocols.  A sequence
    whose single readout already overruns t1 is the degenerate minimum-one-
    readout case and is reported as a warning, not a violation.
    """
    violations: list[str] = []
    warnings: list[str] = []

    start, voxel = seq.start, seq.voxel
    end = start + seq.duration
    span = float(end.max() - start.min()) if end.size else 0.0
    tol = _TIME_RTOL * max(1.0, span)
    for i in (np.flatnonzero(start[1:] < start[:-1] - tol) + 1).tolist():
        violations.append(f"event {i} starts at {float(start[i])} before event {i - 1}")

    # Pulses grouped by voxel (event order kept within a voxel); each window
    # is paired with every pulse of its voxel and needs one that holds it.
    # No pairing is done when no pulse shares a voxel with a window, as in
    # LCQDM (no pulses) and Conventional (an init pulse on voxel -1).
    pulses = np.flatnonzero(seq.kind == _LASER)
    windows = np.flatnonzero(seq.kind == _WINDOW)
    if pulses.size:
        pulses = pulses[np.argsort(voxel[pulses], kind="stable")]
        pulse_voxel, window_voxel = voxel[pulses], voxel[windows]
        lo = np.searchsorted(pulse_voxel, window_voxel, side="left")
        count = np.searchsorted(pulse_voxel, window_voxel, side="right") - lo
        total = int(count.sum())
        if total:
            pair_window = np.repeat(windows, count)
            first_pair = np.cumsum(count) - count
            pair_pulse = pulses[np.repeat(lo - first_pair, count) + np.arange(total)]
            holds = ((start[pair_pulse] - tol <= start[pair_window])
                     & (end[pair_window] <= end[pair_pulse] + tol))
            held = np.zeros(len(start), bool)
            held[pair_window[holds]] = True
            for i in windows[(count > 0) & ~held[windows]].tolist():
                v = int(voxel[i])
                violations.append(
                    f"readout window (event {i}) lies outside every laser pulse "
                    f"for voxel {v if v >= 0 else None}")

    if seq.protocol_tag in (LCQDM, LEIBOLD):
        mw_ends = end[seq.kind == _MW]
        if mw_ends.size and windows.size:
            recurrent_span = float(end[windows].max() - mw_ends.max())
            if recurrent_span > p.t1 * (1 + _TIME_RTOL):
                msg = (f"recurrent span {recurrent_span:.6g} us exceeds "
                       f"t1 = {p.t1:.6g} us")
                if windows.size == 1:
                    warnings.append(msg + " (single clamped readout)")
                else:
                    violations.append(msg)

    return ValidationReport(not violations, tuple(violations), tuple(warnings))


def duty_cycle(seq: PulseSequence) -> float:
    """Fraction of the sequence span spent acquiring readout signal."""
    total = seq.span()
    if total <= 0:
        return 0.0
    return float(seq.duration[seq.kind == _WINDOW].sum()) / total
