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

A sequence is an ordered list of timed events.  Readout windows in the
recurrent protocols double as the confocal dwell itself (the steering beam
parks on the voxel exactly for the readout); a separate ConfocalLaserPulse
event appears only where the laser serves another role (reinitialization,
conventional init, calibration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
    kind: str
    start: float
    duration: float
    voxel_index: Optional[int] = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise DomainError(f"unknown event kind {self.kind!r}")
        if self.start < 0 or self.duration < 0:
            raise DomainError(
                f"event times must be >= 0, got start={self.start}, "
                f"duration={self.duration}")
        if self.voxel_index is not None and self.voxel_index < 0:
            raise DomainError(f"voxel_index must be >= 0, got {self.voxel_index}")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class PulseSequence:
    events: tuple[SequenceEvent, ...]
    protocol_tag: str

    def __post_init__(self):
        if self.protocol_tag not in (*PROTOCOLS, CALIBRATION):
            raise DomainError(f"unknown protocol tag {self.protocol_tag!r}")

    def span(self) -> float:
        """Total extent in us, from the earliest start to the latest end."""
        if not self.events:
            return 0.0
        return max(e.end for e in self.events) - min(e.start for e in self.events)

    def windows(self) -> tuple[SequenceEvent, ...]:
        return tuple(e for e in self.events if e.kind == READOUT_WINDOW)

    def to_text(self) -> str:
        """Line-oriented timeline: `kind start_us duration_us [voxel]`."""
        lines = []
        for e in self.events:
            cols = [e.kind, str(float(e.start)), str(float(e.duration))]
            if e.voxel_index is not None:
                cols.append(str(e.voxel_index))
            lines.append(" ".join(cols))
        return "\n".join(lines) + "\n"


def _slots_within(budget: float, slot: float) -> int:
    # floor(budget / slot), corrected downward when the float quotient
    # rounded up across an integer; n * slot <= budget is the contract.
    quotient = budget / slot
    if not math.isfinite(quotient):
        raise DomainError(f"t1 / slot overflows ({budget!r} us / {slot!r} us); "
                          "the recurrent readout count is unbounded")
    n = math.floor(quotient)
    while n > 1 and n * slot > budget:
        n -= 1
    return max(1, n)


def recurrent_count_lcqdm(p: ProtocolParams) -> int:
    """Readouts that fit in t1 when each costs t_ro_conf + t_d; at least 1."""
    return _slots_within(p.t1, p.t_ro_conf + p.t_d)


def recurrent_count_leibold(p: ProtocolParams) -> int:
    """Readouts that fit in t1 when each also pays t_init_conf; at least 1."""
    return _slots_within(p.t1, p.t_ro_conf + p.t_init_conf + p.t_d)


def cycle_layout(protocol_tag: str, p: ProtocolParams
                 ) -> tuple[int, float, float]:
    """(readouts per full cycle, per-cycle overhead us, per-readout slot us).

    A cycle of n readouts spans overhead + n * slot, and its k-th readout
    window opens k * slot after the end of the MW block.
    """
    if protocol_tag == LCQDM:
        return (recurrent_count_lcqdm(p), p.t_init_ls + p.t_mw,
                p.t_ro_conf + p.t_d)
    if protocol_tag == LEIBOLD:
        return (recurrent_count_leibold(p), p.t_mw,
                p.t_ro_conf + p.t_init_conf + p.t_d)
    if protocol_tag == CONVENTIONAL:
        return (1, p.t_init_conf + p.t_mw, p.t_ro_conf + p.t_d)
    raise DomainError(f"unknown protocol {protocol_tag!r}; expected one of {PROTOCOLS}")


def build_lcqdm_cycle(p: ProtocolParams, n_readouts: Optional[int] = None) -> PulseSequence:
    """One light-sheet cycle: global init, MW block, recurrent readouts.

    n_readouts defaults to recurrent_count_lcqdm(p); a smaller count gives the
    partial cycle that ends a scan.
    """
    n = _resolve_count(n_readouts, recurrent_count_lcqdm(p))
    events = [
        SequenceEvent(LIGHT_SHEET_PULSE, 0.0, p.t_init_ls),
        SequenceEvent(MW_BLOCK, p.t_init_ls, p.t_mw),
    ]
    base = p.t_init_ls + p.t_mw
    slot = p.t_ro_conf + p.t_d
    for k in range(n):
        start = base + k * slot
        events.append(SequenceEvent(READOUT_WINDOW, start, p.t_ro_conf, k))
        events.append(SequenceEvent(DEAD_TIME, start + p.t_ro_conf, p.t_d))
    return PulseSequence(tuple(events), LCQDM)


def build_leibold_cycle(p: ProtocolParams, n_readouts: Optional[int] = None) -> PulseSequence:
    """One recurrent readout+reinit cycle: MW block, then per voxel a readout
    window inside a laser dwell that continues for the reinitialization."""
    n = _resolve_count(n_readouts, recurrent_count_leibold(p))
    events = [SequenceEvent(MW_BLOCK, 0.0, p.t_mw)]
    slot = p.t_ro_conf + p.t_init_conf + p.t_d
    dwell = p.t_ro_conf + p.t_init_conf
    for k in range(n):
        start = p.t_mw + k * slot
        events.append(SequenceEvent(READOUT_WINDOW, start, p.t_ro_conf, k))
        events.append(SequenceEvent(CONFOCAL_LASER_PULSE, start, dwell, k))
        events.append(SequenceEvent(DEAD_TIME, start + dwell, p.t_d))
    return PulseSequence(tuple(events), LEIBOLD)


def build_conventional_cycle(p: ProtocolParams) -> PulseSequence:
    """Single-voxel cycle: init pulse, MW block, one readout, dead time."""
    events = (
        SequenceEvent(CONFOCAL_LASER_PULSE, 0.0, p.t_init_conf),
        SequenceEvent(MW_BLOCK, p.t_init_conf, p.t_mw),
        SequenceEvent(READOUT_WINDOW, p.t_init_conf + p.t_mw, p.t_ro_conf, 0),
        SequenceEvent(DEAD_TIME, p.t_init_conf + p.t_mw + p.t_ro_conf, p.t_d),
    )
    return PulseSequence(events, CONVENTIONAL)


def build_calibration_sequence(p: ProtocolParams, t_sweep: float) -> PulseSequence:
    """Signal/reference PL sampling at delay t_sweep after laser turn-on.

    Each half is init pulse, MW block (zero width; the reference half simply
    has no pulse applied inside it), then the laser back on with an
    instantaneous readout sample at offset t_sweep.
    """
    if t_sweep < 0:
        raise DomainError(f"t_sweep must be >= 0, got {t_sweep}")
    events = []
    half = p.t_init_conf + t_sweep + p.t_ro_conf
    for h in range(2):  # 0 = signal, 1 = reference
        t0 = h * half
        events.append(SequenceEvent(CONFOCAL_LASER_PULSE, t0, p.t_init_conf, 0))
        events.append(SequenceEvent(MW_BLOCK, t0 + p.t_init_conf, 0.0))
        events.append(SequenceEvent(
            CONFOCAL_LASER_PULSE, t0 + p.t_init_conf, t_sweep + p.t_ro_conf, 0))
        events.append(SequenceEvent(
            READOUT_WINDOW, t0 + p.t_init_conf + t_sweep, 0.0, 0))
    return PulseSequence(tuple(events), CALIBRATION)


def _resolve_count(requested: Optional[int], default: int) -> int:
    if requested is None:
        return default
    if requested < 1 or requested > default:
        raise DomainError(
            f"n_readouts must be in [1, {default}], got {requested}")
    return requested


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

    tol = _TIME_RTOL * max(1.0, seq.span())
    prev_start = -math.inf
    for i, e in enumerate(seq.events):
        if e.start < prev_start - tol:
            violations.append(f"event {i} starts at {e.start} before event {i - 1}")
        prev_start = e.start

    pulses_by_voxel: dict[Optional[int], list[SequenceEvent]] = {}
    for e in seq.events:
        if e.kind == CONFOCAL_LASER_PULSE:
            pulses_by_voxel.setdefault(e.voxel_index, []).append(e)
    for i, e in enumerate(seq.events):
        if e.kind != READOUT_WINDOW:
            continue
        matching = pulses_by_voxel.get(e.voxel_index)
        if not matching:
            continue  # self-dwelling window
        if not any(q.start - tol <= e.start and e.end <= q.end + tol
                   for q in matching):
            violations.append(
                f"readout window (event {i}) lies outside every laser pulse "
                f"for voxel {e.voxel_index}")

    if seq.protocol_tag in (LCQDM, LEIBOLD):
        mw_ends = [e.end for e in seq.events if e.kind == MW_BLOCK]
        windows = seq.windows()
        if mw_ends and windows:
            recurrent_span = max(w.end for w in windows) - max(mw_ends)
            if recurrent_span > p.t1 * (1 + _TIME_RTOL):
                msg = (f"recurrent span {recurrent_span:.6g} us exceeds "
                       f"t1 = {p.t1:.6g} us")
                if len(windows) == 1:
                    warnings.append(msg + " (single clamped readout)")
                else:
                    violations.append(msg)

    return ValidationReport(not violations, tuple(violations), tuple(warnings))


def duty_cycle(seq: PulseSequence) -> float:
    """Fraction of the sequence span spent acquiring readout signal."""
    total = seq.span()
    if total <= 0:
        return 0.0
    return sum(w.duration for w in seq.windows()) / total
