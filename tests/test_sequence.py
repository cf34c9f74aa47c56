import math
import random
import time
import tracemalloc
import warnings
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdmsim import (CALIBRATION, CONVENTIONAL, DomainError, LCQDM, LEIBOLD,
                    PhotophysicsModel, ProtocolParams, PulseSequence,
                    SequenceEvent, SimConfig, ValidationReport, VoxelGrid,
                    build_calibration_sequence, build_conventional_cycle,
                    build_cycle, build_lcqdm_cycle, build_leibold_cycle,
                    duty_cycle, eta_exact, plan_acquisition, simulate_protocol,
                    speedup_report, validate_sequence)
from qdmsim import sequence
from qdmsim.sequence import (CONFOCAL_LASER_PULSE, DEAD_TIME, EVENT_KINDS,
                             LIGHT_SHEET_PULSE, MW_BLOCK, READOUT_WINDOW,
                             cycle_layout)

LS_CODE = EVENT_KINDS.index(LIGHT_SHEET_PULSE)
MW_CODE = EVENT_KINDS.index(MW_BLOCK)
WINDOW_CODE = EVENT_KINDS.index(READOUT_WINDOW)
LASER_CODE = EVENT_KINDS.index(CONFOCAL_LASER_PULSE)


def make_params(t_init_ls=20.0, t_init_conf=20.0, t_ro=5.0, t_mw=100.0,
                t_d=0.1, t1=5000.0):
    return ProtocolParams(t_init_ls=t_init_ls, t_init_conf=t_init_conf,
                          t_ro_conf=t_ro, t_mw=t_mw, t_d=t_d, t1=t1)


# Keep t1/t_ro bounded so a drawn cycle stays at a few thousand events.
param_strategy = st.builds(
    make_params,
    t_init_ls=st.floats(0.0, 500.0),
    t_init_conf=st.floats(0.0, 1500.0),
    t_ro=st.floats(0.5, 50.0),
    t_mw=st.floats(0.0, 1000.0),
    t_d=st.floats(0.0, 1.0),
    t1=st.floats(10.0, 2000.0),
)

# One readout already overruns t1: the recurrent builders clamp to one.
clamped_param_strategy = st.builds(
    make_params,
    t_init_ls=st.floats(0.0, 500.0),
    t_init_conf=st.floats(0.0, 1500.0),
    t_ro=st.floats(10.0, 50.0),
    t_mw=st.floats(0.0, 1000.0),
    t_d=st.floats(0.0, 1.0),
    t1=st.floats(0.1, 9.9),
)


def window_ends(seq):
    return (seq.start + seq.duration)[seq.kind == WINDOW_CODE]


def columns_sequence(rows, tag):
    """Sequence from (kind code, start, duration, voxel) rows, voxel -1 kept."""
    kind, start, duration, voxel = zip(*rows) if rows else ((), (), (), ())
    return PulseSequence(np.array(kind, np.int8), np.array(start, float),
                         np.array(duration, float), np.array(voxel, np.int64), tag)


def event_rows(seq):
    """Every event of a sequence as a plain row, read from its columns."""
    return tuple(SequenceEvent(EVENT_KINDS[k], s, d, None if v < 0 else v)
                 for k, s, d, v in zip(seq.kind.tolist(), seq.start.tolist(),
                                       seq.duration.tolist(), seq.voxel.tolist()))


def end(e):
    return e.start + e.duration


# -- sequential per-event references ------------------------------------------

def reference_timeline(tag, p, t_sweep=2.0):
    """Event rows written one loop step at a time, in event order."""
    E = SequenceEvent
    if tag == LCQDM:
        rows = [E(LIGHT_SHEET_PULSE, 0.0, p.t_init_ls),
                E(MW_BLOCK, p.t_init_ls, p.t_mw)]
        base = p.t_init_ls + p.t_mw
        slot = p.t_ro_conf + p.t_d
        for k in range(cycle_layout(LCQDM, p)[0]):
            start = base + k * slot
            rows.append(E(READOUT_WINDOW, start, p.t_ro_conf, k))
            rows.append(E(DEAD_TIME, start + p.t_ro_conf, p.t_d))
    elif tag == LEIBOLD:
        rows = [E(MW_BLOCK, 0.0, p.t_mw)]
        slot = p.t_ro_conf + p.t_init_conf + p.t_d
        dwell = p.t_ro_conf + p.t_init_conf
        for k in range(cycle_layout(LEIBOLD, p)[0]):
            start = p.t_mw + k * slot
            rows.append(E(READOUT_WINDOW, start, p.t_ro_conf, k))
            rows.append(E(CONFOCAL_LASER_PULSE, start, dwell, k))
            rows.append(E(DEAD_TIME, start + dwell, p.t_d))
    elif tag == CONVENTIONAL:
        rows = [E(CONFOCAL_LASER_PULSE, 0.0, p.t_init_conf),
                E(MW_BLOCK, p.t_init_conf, p.t_mw),
                E(READOUT_WINDOW, p.t_init_conf + p.t_mw, p.t_ro_conf, 0),
                E(DEAD_TIME, p.t_init_conf + p.t_mw + p.t_ro_conf, p.t_d)]
    else:
        rows = []
        half = p.t_init_conf + t_sweep + p.t_ro_conf
        for h in range(2):
            t0 = h * half
            rows.append(E(CONFOCAL_LASER_PULSE, t0, p.t_init_conf, 0))
            rows.append(E(MW_BLOCK, t0 + p.t_init_conf, 0.0))
            rows.append(E(CONFOCAL_LASER_PULSE, t0 + p.t_init_conf,
                          t_sweep + p.t_ro_conf, 0))
            rows.append(E(READOUT_WINDOW, t0 + p.t_init_conf + t_sweep, 0.0, 0))
    return tuple(rows)


def reference_text(rows):
    lines = []
    for e in rows:
        cols = [e.kind, str(float(e.start)), str(float(e.duration))]
        if e.voxel_index is not None:
            cols.append(str(e.voxel_index))
        lines.append(" ".join(cols))
    return "\n".join(lines) + "\n"


def reference_span(rows):
    if not rows:
        return 0.0
    return max(end(e) for e in rows) - min(e.start for e in rows)


def reference_duty(rows):
    total = reference_span(rows)
    if total <= 0:
        return 0.0
    return sum(e.duration for e in rows if e.kind == READOUT_WINDOW) / total


def reference_validate(seq, p):
    """The per-event validator the array code must reproduce exactly."""
    rtol = 1e-9
    events = event_rows(seq)
    violations, warnings = [], []

    tol = rtol * max(1.0, reference_span(events))
    prev_start = -math.inf
    for i, e in enumerate(events):
        if e.start < prev_start - tol:
            violations.append(f"event {i} starts at {e.start} before event {i - 1}")
        prev_start = e.start

    pulses_by_voxel: dict[Optional[int], list[SequenceEvent]] = {}
    for e in events:
        if e.kind == CONFOCAL_LASER_PULSE:
            pulses_by_voxel.setdefault(e.voxel_index, []).append(e)
    for i, e in enumerate(events):
        if e.kind != READOUT_WINDOW:
            continue
        matching = pulses_by_voxel.get(e.voxel_index)
        if not matching:
            continue
        if not any(q.start - tol <= e.start and end(e) <= end(q) + tol
                   for q in matching):
            violations.append(
                f"readout window (event {i}) lies outside every laser pulse "
                f"for voxel {e.voxel_index}")

    if seq.protocol_tag in (LCQDM, LEIBOLD):
        mw_ends = [end(e) for e in events if e.kind == MW_BLOCK]
        windows = [e for e in events if e.kind == READOUT_WINDOW]
        if mw_ends and windows:
            recurrent_span = max(end(w) for w in windows) - max(mw_ends)
            if recurrent_span > p.t1 * (1 + rtol):
                msg = (f"recurrent span {recurrent_span:.6g} us exceeds "
                       f"t1 = {p.t1:.6g} us")
                if len(windows) == 1:
                    warnings.append(msg + " (single clamped readout)")
                else:
                    violations.append(msg)

    return ValidationReport(not violations, tuple(violations), tuple(warnings))


def build(tag, p, t_sweep=2.0):
    if tag == LCQDM:
        return build_lcqdm_cycle(p)
    if tag == LEIBOLD:
        return build_leibold_cycle(p)
    if tag == CONVENTIONAL:
        return build_conventional_cycle(p)
    return build_calibration_sequence(p, t_sweep)


PERTURBATIONS = ("start_before_predecessor", "window_past_dwell",
                 "laser_dropped", "last_window_past_t1")


def perturb(seq, p, how, rng):
    """One seeded edit of a built timeline; offsets straddle the tolerances."""
    kind, start, duration, voxel = (seq.kind.copy(), seq.start.copy(),
                                    seq.duration.copy(), seq.voxel.copy())
    ends = start + duration
    tol = 1e-9 * max(1.0, seq.span())
    factor = rng.choice((0.5, 2.0, 1e6))
    windows = np.flatnonzero(kind == WINDOW_CODE).tolist()
    if how == "start_before_predecessor":
        i = rng.randrange(1, kind.size)
        start[i] = max(0.0, start[i - 1] - factor * tol)
    elif how == "window_past_dwell":
        i = rng.choice(windows)
        dwell_ends = ends[(kind == LASER_CODE) & (voxel == voxel[i])]
        dwell_end = dwell_ends.max() if dwell_ends.size else ends[i]
        duration[i] = dwell_end + factor * tol - start[i]
    elif how == "laser_dropped":
        lasers = np.flatnonzero(kind == LASER_CODE).tolist()
        if lasers:
            keep = np.arange(kind.size) != rng.choice(lasers)
            kind, start, duration, voxel = (kind[keep], start[keep],
                                            duration[keep], voxel[keep])
    else:
        i = windows[-1]
        mw_ends = ends[kind == MW_CODE]
        mw_end = mw_ends.max() if mw_ends.size else 0.0
        late = mw_end + p.t1 * (1 + factor * 1e-9) - ends[i]
        start[i] += max(0.0, late)
    return PulseSequence(kind, start, duration, voxel, seq.protocol_tag)


def reference_slots_within(budget, slot):
    """The readout count as computed before it was loop-free: floor the
    quotient, then step down one at a time while n * slot overruns."""
    n = math.floor(budget / slot)
    while n > 1 and n * slot > budget:
        n -= 1
    return max(1, n)


def nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else 0.0)
    return x


# budget = k * slot moved by a few ulps, so the quotient sits at or next to
# an integer, where the float division can round up across it.
near_integer_pairs = st.builds(
    lambda k, slot, ulps: (nudged(k * slot, ulps), slot),
    st.integers(1, 2**53 - 1), st.floats(1e-3, 1e3), st.integers(-2, 2))


class TestRecurrentCounts:
    def test_lcqdm_table_values(self):
        assert cycle_layout(LCQDM, make_params())[0] == 980
        assert cycle_layout(LCQDM, make_params(t_ro=50.0, t_d=0.0))[0] == 100

    def test_lcqdm_exact_fit(self):
        p = make_params(t_ro=5.0, t_d=0.1, t1=5.1)
        assert cycle_layout(LCQDM, p)[0] == 1

    def test_leibold_table_values(self):
        assert cycle_layout(LEIBOLD, make_params())[0] == 199
        assert cycle_layout(
            LEIBOLD, make_params(t_ro=10.0, t_init_conf=50.0))[0] == 83

    def test_leibold_exact_fit(self):
        p = make_params(t_ro=5.0, t_init_conf=20.0, t_d=0.1, t1=25.1)
        assert cycle_layout(LEIBOLD, p)[0] == 1

    def test_minimum_one(self):
        p = make_params(t_ro=50.0, t_d=0.0, t1=10.0)
        assert cycle_layout(LCQDM, p)[0] == 1
        assert cycle_layout(LEIBOLD, p)[0] == 1

    def test_overflowing_count_is_domain_error(self):
        p = make_params(t_init_conf=0.0, t_ro=1e-300, t_d=0.0, t1=1e300)
        with pytest.raises(DomainError, match="overflows"):
            cycle_layout(LCQDM, p)[0]
        with pytest.raises(DomainError, match="overflows"):
            cycle_layout(LEIBOLD, p)[0]

    @given(st.one_of(near_integer_pairs,
                     st.tuples(st.floats(1e-3, 1e15), st.floats(1e-3, 1e3))))
    def test_slots_within_matches_stepped_reference(self, pair):
        budget, slot = pair
        if budget / slot < 2**53:
            assert sequence._slots_within(budget, slot) == \
                reference_slots_within(budget, slot)

    @given(st.floats(2.0**53, 1e290), st.floats(1e-3, 1e3),
           st.integers(-2, 2))
    def test_slots_within_above_2_53_fits_budget(self, quotient, slot, ulps):
        budget = nudged(quotient * slot, ulps)
        if not math.isfinite(budget) or budget / slot < 2**53:
            return
        n = sequence._slots_within(budget, slot)
        assert n * slot <= budget
        # at most one float below the quotient
        assert n >= math.nextafter(budget / slot, 0.0)

    @given(param_strategy)
    def test_lcqdm_never_below_leibold(self, p):
        assert cycle_layout(LCQDM, p)[0] >= cycle_layout(LEIBOLD, p)[0]


class TestLcqdmBuilder:
    def test_three_readout_case(self):
        p = make_params(t1=16.0)
        seq = build_lcqdm_cycle(p)
        assert seq.kind.size == 2 + 3 * 2
        assert seq.span() == pytest.approx(p.t_init_ls + p.t_mw + 3 * 5.1)
        assert seq.voxel[seq.kind == WINDOW_CODE].tolist() == [0, 1, 2]

    def test_minimum_cycle(self):
        p = make_params(t_ro=5.0, t_d=0.1, t1=5.05)
        seq = build_lcqdm_cycle(p)
        assert seq.kind.size == 4
        assert window_ends(seq).size == 1

    def test_t1_budget_holds_for_default(self):
        p = make_params()
        seq = build_lcqdm_cycle(p)
        mw_end = p.t_init_ls + p.t_mw
        last_end = window_ends(seq).max()
        assert last_end <= mw_end + p.t1 + 1e-9
        assert window_ends(seq).size == 980

    def test_partial_cycle(self):
        seq = build_cycle(LCQDM, make_params(), 7)
        assert window_ends(seq).size == 7
        with pytest.raises(DomainError):
            build_cycle(LCQDM, make_params(), 0)
        with pytest.raises(DomainError):
            build_cycle(LCQDM, make_params(), 981)


class TestLeiboldBuilder:
    def test_window_count_matches_recurrent_count(self):
        seq = build_leibold_cycle(make_params())
        assert window_ends(seq).size == 199

    def test_small_case_event_count(self):
        p = make_params(t_ro=5.0, t_init_conf=20.0, t_d=0.1, t1=51.0)
        seq = build_leibold_cycle(p)
        assert window_ends(seq).size == 2
        assert seq.kind.size == 1 + 2 * 3

    def test_zero_reinit_matches_lcqdm_cadence(self):
        p = make_params(t_init_conf=0.0)
        leib = build_leibold_cycle(p)
        lc = build_lcqdm_cycle(p)
        offset = p.t_init_ls  # light-sheet pulse precedes the MW block
        leib_starts = leib.start[leib.kind == WINDOW_CODE]
        lc_starts = lc.start[lc.kind == WINDOW_CODE]
        assert leib_starts.size == lc_starts.size
        np.testing.assert_allclose(leib_starts + offset, lc_starts, rtol=1e-12)


class TestConventionalBuilder:
    def test_single_readout(self):
        seq = build_conventional_cycle(make_params())
        assert window_ends(seq).size == 1
        assert seq.span() == pytest.approx(125.1)

    def test_zero_dead_time_span(self):
        p = make_params(t_d=0.0)
        seq = build_conventional_cycle(p)
        assert seq.span() == pytest.approx(p.t_init_conf + p.t_mw + p.t_ro_conf)


class TestCalibrationBuilder:
    def test_zero_delay(self):
        seq = build_calibration_sequence(make_params(), 0.0)
        windows = seq.start[seq.kind == WINDOW_CODE]
        assert windows.size == 2
        lasers = seq.start[seq.kind == LASER_CODE]
        # readout coincides with its laser rise (the second pulse per half)
        assert windows[0] == lasers[1]

    def test_delay_offsets(self):
        p = make_params()
        seq = build_calibration_sequence(p, 2.0)
        windows = seq.start[seq.kind == WINDOW_CODE]
        readout_lasers = seq.start[seq.kind == LASER_CODE][1::2]
        for w, laser in zip(windows, readout_lasers):
            assert w - laser == pytest.approx(2.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(DomainError):
            build_calibration_sequence(make_params(), -1.0)


class TestInputHygiene:
    @pytest.mark.parametrize("t_sweep", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, t_sweep):
        with pytest.raises(DomainError, match="t_sweep"):
            build_calibration_sequence(make_params(), t_sweep)

    @pytest.mark.parametrize("start, duration", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_times_rejected(self, start, duration):
        with pytest.raises(DomainError, match="finite"):
            PulseSequence(np.array([2], np.int8), [start], [duration], [-1],
                          LCQDM)

    @pytest.mark.parametrize("start, duration, i", [
        ([1e308, 0.0, 1.0], [1e308, 1.0, 1.0], 0),
        ([0.0, 1.7e308, 1.0], [1.0, 1.7e308, 1.0], 1)])
    def test_overflowing_end_rejected(self, start, duration, i):
        # such an end made span() inf with an overflow warning, and with it
        # the validator's tolerance, so events out of order passed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"event {i} .* finite end"):
                PulseSequence(np.array([1, 3, 1], np.int8), start, duration,
                              [0, 0, 0], CALIBRATION)

    @pytest.mark.parametrize("columns", [
        ([5], [0.0], [1.0], [-1]),          # kind code past EVENT_KINDS
        ([-1], [0.0], [1.0], [-1]),
        ([300], [0.0], [1.0], [-1]),        # would wrap to a valid int8
        ([2.0], [0.0], [1.0], [-1]),        # kind codes must be integers
        ([2, 3], [0.0], [1.0, 2.0], [-1, 0]),  # unequal lengths
        ([3], [0.0], [1.0], [-2]),
        ([3, 3], [0.0, 9.0], [1.0, 1.0], [0.7, 1.9]),  # was cast to [0, 1]
        ([3, 3], [0.0, 9.0], [1.0, 1.0], [np.nan, 0]),
        ([3], [0.0], [1.0], [2**64 - 1]),   # uint64, was cast to -1 (no voxel)
        ([3], [0.0], [1.0], [2**63]),
    ])
    def test_malformed_columns_rejected(self, columns):
        with pytest.raises(DomainError):
            PulseSequence(*(np.array(c) for c in columns), LCQDM)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3"])
    def test_non_integer_readout_count_rejected(self, n):
        with pytest.raises(DomainError, match="n_readouts must be a whole number"):
            build_cycle(LCQDM, make_params(), n)
        with pytest.raises(DomainError, match="n_readouts must be a whole number"):
            build_cycle(LEIBOLD, make_params(), n)

    def test_unknown_protocol_tag_rejected(self):
        with pytest.raises(DomainError, match="unknown protocol tag 'Bogus'"):
            PulseSequence(np.array([2], np.int8), [0.0], [1.0], [-1], "Bogus")

    def test_numpy_integer_readout_count_accepted(self):
        p = make_params()
        assert build_cycle(LCQDM, p, np.int64(7)) == build_cycle(LCQDM, p, 7)

    def test_columns_are_read_only(self):
        seq = build_lcqdm_cycle(make_params())
        with pytest.raises(ValueError):
            seq.start[0] = 1.0

    def test_caller_arrays_stay_writeable(self):
        # the constructor once adopted and froze float64 start and duration
        # arrays, and int8 kind and int64 voxel arrays, as given
        kind = np.array([1, 3, 1], np.int8)
        start, duration = np.array([0.0, 1.0, 1.0]), np.array([5.0, 0.0, 5.0])
        voxel = np.array([0, 0, -1], np.int64)
        seq = PulseSequence(kind, start, duration, voxel, CALIBRATION)
        callers = (kind, start, duration, voxel)
        for caller in callers:
            assert caller.flags.writeable
        for col in (seq.kind, seq.start, seq.duration, seq.voxel):
            assert not col.flags.writeable
            assert not any(np.shares_memory(col, caller) for caller in callers)


class TestBuildCycleFollowsLayout:
    @given(param_strategy, st.data())
    @settings(max_examples=40, deadline=None)
    def test_windows_open_at_layout_slots(self, p, data):
        for tag in sequence.PROTOCOLS:
            count, overhead, slot = cycle_layout(tag, p)
            for n in {1, count, data.draw(st.integers(1, count), label=tag)}:
                seq = build_cycle(tag, p, n)
                assert (seq.start[seq.kind == WINDOW_CODE].tolist()
                        == [overhead + k * slot for k in range(n)])
                assert seq.span() == pytest.approx(overhead + n * slot, rel=1e-12)

    @pytest.mark.parametrize("tag", ["Bogus", CALIBRATION])
    def test_unknown_tag_rejected(self, tag):
        with pytest.raises(DomainError, match="unknown protocol"):
            build_cycle(tag, make_params())

    def test_conventional_cycle_holds_one_readout(self):
        with pytest.raises(DomainError, match="n_readouts must be <= 1, got 2"):
            build_cycle(CONVENTIONAL, make_params(), 2)


def checked_build(tag, p, n=None):
    """build_cycle with every column passed through the checked constructor:
    the reference for build_cycle's unchecked fast path."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(PulseSequence, "_unchecked",
                  classmethod(lambda cls, *columns: cls(*columns)))
        return build_cycle(tag, p, n)


def build_outcome(build, *args):
    try:
        return build(*args)
    except DomainError as exc:
        return str(exc)


# Durations up to the float maximum, with t1 at most a thousand slots, so
# prelude and slot sums may overflow while a cycle stays small.
overflow_param_strategy = st.builds(
    lambda t_init_ls, t_init_conf, t_ro, t_mw, t_d, slots: make_params(
        t_init_ls, t_init_conf, t_ro, t_mw, t_d,
        min(slots * (t_ro + t_d), 1.7e308)),
    *(st.floats(0.0, 1.7e308) for _ in range(2)),
    st.floats(1e-300, 1.7e308), st.floats(0.0, 1.7e308), st.floats(0.0, 1.7e308),
    st.floats(1e-3, 1e3))


class TestUncheckedBuild:
    @given(param_strategy, st.data())
    @settings(max_examples=60, deadline=None)
    def test_columns_pass_the_checked_constructor(self, p, data):
        for tag in sequence.PROTOCOLS:
            count = cycle_layout(tag, p)[0]
            for n in (None, data.draw(st.integers(1, count), label=tag)):
                seq = build_cycle(tag, p, n)
                checked = PulseSequence(seq.kind, seq.start, seq.duration,
                                        seq.voxel, tag)
                assert checked == seq == checked_build(tag, p, n)
                for name in ("kind", "start", "duration", "voxel"):
                    col = getattr(seq, name)
                    assert col.dtype == getattr(checked, name).dtype
                    assert not col.flags.writeable

    @given(overflow_param_strategy, st.sampled_from(sequence.PROTOCOLS))
    @settings(max_examples=200, deadline=None)
    def test_same_outcome_near_overflow(self, p, tag):
        ours = build_outcome(build_cycle, tag, p)
        ref = build_outcome(checked_build, tag, p)
        assert type(ours) is type(ref) and ours == ref
        # the layout refuses exactly the cycles the builder refuses
        assert isinstance(build_outcome(cycle_layout, tag, p), str) \
            == isinstance(ours, str)

    # The layout refuses an overflowing cycle before any column is filled.
    @pytest.mark.parametrize("tag, overrides, message", [
        (LCQDM, dict(t_init_ls=1e308, t_mw=1e308),
         "a LCQDM cycle of 980 readouts ends at inf us; its times overflow"),
        (CONVENTIONAL, dict(t_init_conf=1e308, t_mw=1e308),
         "a Conventional cycle of 1 readouts ends at inf us; its times overflow"),
        (LEIBOLD, dict(t_ro=1e308, t_init_conf=1e308),
         "a Leibold cycle of 1 readouts ends at nan us; its times overflow"),
        (LCQDM, dict(t_ro=1.7e308, t_d=1.7e308),
         "a LCQDM cycle of 1 readouts ends at nan us; its times overflow"),
        (LEIBOLD, dict(t_mw=1.7e308, t_ro=1.7e308, t1=1e308),
         "a Leibold cycle of 1 readouts ends at inf us; its times overflow"),
        (CONVENTIONAL, dict(t_mw=1.7e308, t_ro=1.7e308),
         "a Conventional cycle of 1 readouts ends at inf us; its times overflow"),
        (LEIBOLD, dict(t_mw=1.7e308, t_ro=1.7e308),
         "a Leibold cycle of 1 readouts ends at inf us; its times overflow"),
    ])
    def test_overflow_raises_as_before(self, tag, overrides, message):
        # numpy warns nothing on the way: under warnings-as-errors the caller
        # still gets the DomainError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                build_cycle(tag, make_params(**overrides))
        assert str(info.value) == message

    def test_overflowing_last_end_is_refused(self):
        # every start and duration is finite, only the last end is not
        p = make_params(t_mw=1.7e308, t_ro=1e300, t_d=1e307, t1=1e307)
        for call in (cycle_layout, build_cycle, checked_build):
            with pytest.raises(DomainError, match="ends at inf us"):
                call(LCQDM, p)


# Every time is finite, but every protocol's cycle ends beyond the float
# range: LCQDM's overhead t_init_ls + t_mw overflows.
OVERFLOWING_CYCLE = ProtocolParams(t_init_ls=1e308, t_init_conf=1e308,
                                   t_ro_conf=5.0, t_mw=1.7e308, t_d=0.1, t1=5000.0)


@pytest.mark.parametrize("call", [
    lambda p: eta_exact(p, LCQDM),
    lambda p: simulate_protocol(
        SimConfig(p, PhotophysicsModel(), 1.0, 10, 0), LCQDM, noiseless=True),
    lambda p: plan_acquisition(VoxelGrid(4, 4, 1, 1.0), p, LCQDM),
    lambda p: speedup_report(VoxelGrid(4, 4, 1, 1.0), p),
], ids=["eta_exact", "simulate_protocol", "plan_acquisition", "speedup_report"])
def test_layout_readers_refuse_an_overflowing_cycle(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="its times overflow"):
            call(OVERFLOWING_CYCLE)


class TestMaterializationBound:
    @pytest.mark.parametrize("builder", [build_lcqdm_cycle, build_leibold_cycle])
    def test_huge_cycle_fails_before_allocating(self, builder):
        p = make_params(t1=1e12)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            with pytest.raises(DomainError, match="cycle_layout"):
                builder(p)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 1 << 20

    def test_bound_counts_events(self, monkeypatch):
        monkeypatch.setattr(sequence, "MAX_EVENTS", 10)
        p = make_params()
        assert build_cycle(LCQDM, p, 4).kind.size == 10
        with pytest.raises(DomainError, match="12 events"):
            build_cycle(LCQDM, p, 5)
        assert build_cycle(LEIBOLD, p, 3).kind.size == 10
        with pytest.raises(DomainError, match="13 events"):
            build_cycle(LEIBOLD, p, 4)


class TestValidation:
    def test_builders_produce_valid_sequences(self):
        p = make_params()
        for seq in (build_lcqdm_cycle(p), build_leibold_cycle(p),
                    build_conventional_cycle(p),
                    build_calibration_sequence(p, 2.0)):
            report = validate_sequence(seq, p)
            assert report.ok, report.violations

    @given(param_strategy)
    @settings(max_examples=60, deadline=None)
    def test_builders_valid_for_random_params(self, p):
        for seq in (build_lcqdm_cycle(p), build_leibold_cycle(p),
                    build_conventional_cycle(p)):
            assert validate_sequence(seq, p).ok

    def test_t1_budget_violation(self):
        p = make_params(t1=100.0)
        rows = [(MW_CODE, 0.0, 10.0, -1), (WINDOW_CODE, 10.0, 5.0, 0),
                (WINDOW_CODE, 106.0, 5.0, 1)]  # ends at t1 + 11
        report = validate_sequence(columns_sequence(rows, LCQDM), p)
        assert not report.ok
        assert any("t1" in v for v in report.violations)

    def test_containment_violation(self):
        p = make_params()
        rows = [(LASER_CODE, 0.0, 5.0, 0), (WINDOW_CODE, 10.0, 2.0, 0)]
        report = validate_sequence(columns_sequence(rows, CONVENTIONAL), p)
        assert not report.ok
        assert any("laser pulse" in v for v in report.violations)

    def test_one_misplaced_leibold_window_is_one_violation(self):
        p = make_params()
        seq = build_cycle(LEIBOLD, p, 6)
        moved = int(np.flatnonzero((seq.kind == WINDOW_CODE) & (seq.voxel == 3))[0])
        duration = seq.duration.copy()
        # same start, so the event order holds; the end overruns the dwell
        duration[moved] = p.t_ro_conf + p.t_init_conf + 1.0
        edited = PulseSequence(seq.kind, seq.start, duration, seq.voxel, LEIBOLD)
        report = validate_sequence(edited, p)
        assert report.violations == (
            f"readout window (event {moved}) lies outside every laser pulse "
            f"for voxel 3",)

    def test_clamped_single_readout_is_warning(self):
        p = make_params(t_ro=50.0, t_d=0.0, t1=10.0)
        seq = build_lcqdm_cycle(p)
        report = validate_sequence(seq, p)
        assert report.ok
        assert report.warnings

    def test_unsorted_events_flagged(self):
        p = make_params()
        rows = [(MW_CODE, 10.0, 5.0, -1), (LS_CODE, 0.0, 5.0, -1)]
        report = validate_sequence(columns_sequence(rows, LCQDM), p)
        assert not report.ok

    def test_event_invariants(self):
        with pytest.raises(DomainError):
            columns_sequence([(WINDOW_CODE, -1.0, 5.0, 0)], LCQDM)
        with pytest.raises(DomainError):
            columns_sequence([(WINDOW_CODE, 0.0, -5.0, 0)], LCQDM)

    def test_several_pulses_per_voxel(self):
        # the calibration pattern: a window held by the second of two pulses
        # of its voxel, another by none of them, one voxel without pulses;
        # pulses and windows without a voxel form a group of their own
        p = make_params()
        rows = [(LASER_CODE, 0.0, 5.0, 0), (WINDOW_CODE, 1.0, 1.0, 0),
                (LASER_CODE, 10.0, 5.0, 0), (WINDOW_CODE, 12.0, 1.0, 0),
                (WINDOW_CODE, 16.0, 1.0, 0), (WINDOW_CODE, 18.0, 1.0, 1),
                (LASER_CODE, 20.0, 1.0, -1), (WINDOW_CODE, 20.0, 1.0, -1),
                (WINDOW_CODE, 22.0, 1.0, -1)]
        seq = columns_sequence(rows, CALIBRATION)
        report = validate_sequence(seq, p)
        assert report.violations == (
            "readout window (event 4) lies outside every laser pulse for voxel 0",
            "readout window (event 8) lies outside every laser pulse for voxel None")
        assert report == reference_validate(seq, p)


class TestPairingShortcut:
    """Windows pair with pulses only through a shared voxel; where none is
    shared the validator pairs nothing, and must still report alike."""

    def test_pulses_on_no_window_voxel(self):
        # pulse voxels interleave the window voxels but never meet them
        rows = [(LASER_CODE, 0.0, 50.0, 1), (WINDOW_CODE, 1.0, 1.0, 0),
                (LASER_CODE, 2.0, 1.0, 3), (WINDOW_CODE, 60.0, 1.0, 2),
                (LASER_CODE, 70.0, 1.0, -1), (WINDOW_CODE, 80.0, 1.0, 4)]
        p = make_params()
        for tag in (*sequence.PROTOCOLS, CALIBRATION):
            seq = columns_sequence(rows, tag)
            report = validate_sequence(seq, p)
            assert report == reference_validate(seq, p)
            assert report.ok

    def test_voxelless_window_pairs_with_voxelless_pulse(self):
        # voxel -1 is a group of its own: the init pulse of a conventional
        # cycle must hold a window that addresses no voxel either
        p = make_params()
        seq = build_conventional_cycle(p)
        voxel = seq.voxel.copy()
        voxel[seq.kind == WINDOW_CODE] = -1
        inside = PulseSequence(seq.kind, seq.start, seq.duration, voxel,
                               CONVENTIONAL)
        report = validate_sequence(inside, p)
        assert report == reference_validate(inside, p)
        assert report.violations == (
            "readout window (event 2) lies outside every laser pulse for voxel None",)
        rows = [(LASER_CODE, 0.0, 5.0, -1), (WINDOW_CODE, 1.0, 2.0, -1),
                (WINDOW_CODE, 4.0, 2.0, -1)]
        seq = columns_sequence(rows, CONVENTIONAL)
        report = validate_sequence(seq, p)
        assert report == reference_validate(seq, p)
        assert report.violations == (
            "readout window (event 2) lies outside every laser pulse for voxel None",)

    @given(st.lists(st.tuples(st.sampled_from(range(len(EVENT_KINDS))),
                              st.floats(0.0, 50.0), st.floats(0.0, 20.0),
                              st.integers(-1, 2)), max_size=14),
           st.sampled_from((*sequence.PROTOCOLS, CALIBRATION)))
    @settings(max_examples=300, deadline=None)
    def test_hand_built_timelines(self, rows, tag):
        # few voxels and many rows: several pulses per voxel, windows with
        # and without pulses on their voxel, and timelines with neither
        p = make_params(t1=30.0)
        seq = columns_sequence(rows, tag)
        assert validate_sequence(seq, p) == reference_validate(seq, p)


class TestArrayValidatorMatchesReference:
    @given(param_strategy, st.floats(0.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_built_cycles(self, p, t_sweep):
        for tag in (*sequence.PROTOCOLS, CALIBRATION):
            seq = build(tag, p, t_sweep)
            assert validate_sequence(seq, p) == reference_validate(seq, p)

    @given(param_strategy, st.sampled_from((*sequence.PROTOCOLS, CALIBRATION)),
           st.sampled_from(PERTURBATIONS), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_perturbed_cycles(self, p, tag, how, seed):
        seq = perturb(build(tag, p), p, how, random.Random(seed))
        assert validate_sequence(seq, p) == reference_validate(seq, p)

    @given(clamped_param_strategy, st.sampled_from((LCQDM, LEIBOLD)))
    @settings(max_examples=40, deadline=None)
    def test_single_clamped_readout(self, p, tag):
        seq = build(tag, p)
        report = validate_sequence(seq, p)
        assert report == reference_validate(seq, p)
        assert report.ok and len(report.warnings) == 1

    def test_perturbations_find_violations(self):
        # the edits must reach every branch the reference has
        p = make_params(t1=200.0)
        rng = random.Random(11)
        seen = set()
        for _ in range(200):
            tag = rng.choice((LEIBOLD, CALIBRATION, LCQDM))
            seq = perturb(build(tag, p), p, rng.choice(PERTURBATIONS), rng)
            report = reference_validate(seq, p)
            assert validate_sequence(seq, p) == report
            seen.update(v.split()[0] for v in report.violations)
        assert seen == {"event", "readout", "recurrent"}


def joined_calibration(p, delays):
    """One timeline of the calibration sequences at the given delays, each
    starting where the previous one ends; every pulse and window is on
    voxel 0, so one voxel block holds all the pulses."""
    parts, offset = [], 0.0
    for t_sweep in delays:
        seq = build_calibration_sequence(p, float(t_sweep))
        parts.append((seq, offset))
        offset += seq.span()
    return PulseSequence(np.concatenate([s.kind for s, _ in parts]),
                         np.concatenate([s.start + t for s, t in parts]),
                         np.concatenate([s.duration for s, _ in parts]),
                         np.concatenate([s.voxel for s, _ in parts]),
                         CALIBRATION)


# Every drawn timeline spans [0, SPAN], which fixes the validator's tolerance.
SPAN = 100.0
DEAD_CODE = EVENT_KINDS.index(DEAD_TIME)
pulse_starts = st.sampled_from((1.0, 2.0, 5.0, 10.0)) | st.floats(1.0, 60.0)
pulse_lengths = st.sampled_from((1.0, 2.0, 5.0, 10.0)) | st.floats(0.0, 35.0)


@st.composite
def multi_pulse_timelines(draw):
    """Several pulses per voxel, overlapping or nested, and windows that are
    drawn freely or placed on a pulse's start - tol or end + tol, one ulp
    either side or on it; events sorted by start or left as drawn."""
    tol = 1e-9 * SPAN
    pulses = draw(st.lists(st.tuples(pulse_starts, pulse_lengths,
                                     st.integers(-1, 2)), min_size=1, max_size=12))
    rows = [(DEAD_CODE, 0.0, SPAN, -1)]
    rows += [(LASER_CODE, s, d, v) for s, d, v in pulses]
    for _ in range(draw(st.integers(1, 10))):
        ps, pd, v = draw(st.sampled_from(pulses))
        start = draw(st.sampled_from((ps - tol, ps))
                     | st.floats(0.0, 70.0) | st.just(ps + pd))
        start = nudged(start, draw(st.integers(-1, 1)))
        end_at = draw(st.sampled_from((ps + pd + tol, ps + pd))
                      | st.floats(start, min(SPAN, start + 25.0)))
        duration = nudged(max(0.0, end_at - start), draw(st.integers(-1, 1)))
        rows.append((WINDOW_CODE, start, duration,
                     draw(st.sampled_from((v, v, 0, -1)))))
    if draw(st.booleans()):
        rows.sort(key=lambda row: row[1])
    return rows


class TestContainmentRounds:
    """Containment is checked without rounds: each window against the first
    pulse of its voxel, then the windows left in one sorted pass over all
    pulses, so many pulses on one voxel cost neither rounds nor pair arrays."""

    def test_delay_sweep_matches_reference(self):
        p = make_params()
        seq = joined_calibration(p, np.linspace(0.0, 60.0, 100))
        report = validate_sequence(seq, p)
        assert report == reference_validate(seq, p)
        assert report.ok

    def test_delay_sweep_memory_is_linear(self):
        p = make_params()
        seq = joined_calibration(p, np.linspace(0.0, 60.0, 600))
        tracemalloc.start()
        try:
            report = validate_sequence(seq, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak <= 2 << 20

    def test_window_held_by_none_of_many_pulses(self):
        p = make_params()
        rows = [(LASER_CODE, float(k), 0.5, 0) for k in range(200)]
        rows.append((WINDOW_CODE, 250.0, 1.0, 0))
        seq = columns_sequence(rows, CALIBRATION)
        report = validate_sequence(seq, p)
        assert report == reference_validate(seq, p)
        assert report.violations == (
            "readout window (event 200) lies outside every laser pulse for voxel 0",)

    def test_window_outside_twenty_thousand_pulses(self):
        # one round per pulse of the block once took about 0.1 s here
        p = make_params()
        rows = [(LASER_CODE, float(k), 0.5, 0) for k in range(20000)]
        rows.append((WINDOW_CODE, 30000.0, 1.0, 0))
        seq = columns_sequence(rows, CALIBRATION)
        report = validate_sequence(seq, p)
        assert report == reference_validate(seq, p)
        assert report.violations == (
            "readout window (event 20000) lies outside every laser pulse "
            "for voxel 0",)

    @given(multi_pulse_timelines(),
           st.sampled_from((*sequence.PROTOCOLS, CALIBRATION)))
    @settings(max_examples=400, deadline=None)
    def test_multi_pulse_timelines(self, rows, tag):
        p = make_params(t1=30.0)
        seq = columns_sequence(rows, tag)
        assert validate_sequence(seq, p) == reference_validate(seq, p)


class TestGoldenTimelines:
    @pytest.mark.parametrize("tag", [*sequence.PROTOCOLS, CALIBRATION])
    def test_default_cycles(self, tag):
        p = make_params()
        self.check(build(tag, p), reference_timeline(tag, p))

    @given(param_strategy, st.floats(0.0, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_random_params(self, p, t_sweep):
        for tag in (*sequence.PROTOCOLS, CALIBRATION):
            self.check(build(tag, p, t_sweep), reference_timeline(tag, p, t_sweep))

    @staticmethod
    def check(seq, rows):
        assert event_rows(seq) == rows
        assert seq.windows() == tuple(e for e in rows if e.kind == READOUT_WINDOW)
        assert seq.to_text() == reference_text(rows)
        assert seq.span() == reference_span(rows)
        assert duty_cycle(seq) == pytest.approx(reference_duty(rows), rel=1e-12)


class TestDutyCycle:
    def test_lcqdm_value(self):
        assert duty_cycle(build_lcqdm_cycle(make_params())) == pytest.approx(
            4900.0 / 5118.0, rel=1e-9)

    def test_conventional_value(self):
        assert duty_cycle(build_conventional_cycle(make_params())) == pytest.approx(
            5.0 / 125.1, rel=1e-9)

    def test_no_windows(self):
        seq = columns_sequence([(MW_CODE, 0.0, 10.0, -1)], LCQDM)
        assert duty_cycle(seq) == 0.0

    def test_empty_sequence(self):
        seq = columns_sequence([], LCQDM)
        assert seq.span() == 0.0
        assert duty_cycle(seq) == 0.0
        assert seq.to_text() == "\n"
        assert validate_sequence(seq, make_params()).ok

    @given(param_strategy)
    @settings(max_examples=100, deadline=None)
    def test_protocol_ordering(self, p):
        # The light-sheet protocol wins once its global initialization
        # amortizes over the readout train: N_lc * t_init_conf >= t_init_ls.
        # (With a short train and a slow sheet the ordering genuinely flips.)
        if p.t_init_conf == 0.0 or p.t_mw == 0.0:
            return
        if cycle_layout(LCQDM, p)[0] * p.t_init_conf < p.t_init_ls:
            return
        lc = duty_cycle(build_lcqdm_cycle(p))
        leib = duty_cycle(build_leibold_cycle(p))
        conv = duty_cycle(build_conventional_cycle(p))
        assert lc >= leib * (1 - 1e-12)
        assert leib >= conv * (1 - 1e-12)

    def test_protocol_ordering_reference_params(self):
        p = make_params()
        assert (duty_cycle(build_lcqdm_cycle(p))
                > duty_cycle(build_leibold_cycle(p))
                > duty_cycle(build_conventional_cycle(p)))


class TestSerialization:
    def test_timeline_text(self):
        p = make_params(t_ro=5.0, t_d=0.1, t1=11.0, t_init_ls=20.0, t_mw=100.0)
        text = build_lcqdm_cycle(p).to_text()
        assert text == (
            "LightSheetPulse 0.0 20.0\n"
            "MWBlock 20.0 100.0\n"
            "ReadoutWindow 120.0 5.0 0\n"
            "DeadTime 125.0 0.1\n"
            "ReadoutWindow 125.1 5.0 1\n"
            "DeadTime 130.1 0.1\n"
        )

    def test_builders_are_deterministic(self):
        p = make_params()
        assert build_lcqdm_cycle(p) == build_lcqdm_cycle(p)
        assert build_leibold_cycle(p) == build_leibold_cycle(p)
        assert build_conventional_cycle(p) == build_conventional_cycle(p)
        assert (build_calibration_sequence(p, 1.5)
                == build_calibration_sequence(p, 1.5))

    def test_equality_is_column_wise(self):
        p = make_params()
        assert build_cycle(LCQDM, p, 5) != build_cycle(LCQDM, p, 6)
        assert build_lcqdm_cycle(p) != build_lcqdm_cycle(make_params(t_d=0.2))
        assert (build_calibration_sequence(p, 1.5)
                != build_calibration_sequence(p, 1.25))
        one = build_conventional_cycle(p)
        assert one != PulseSequence(one.kind, one.start, one.duration,
                                    one.voxel, LCQDM)


class TestParamsValidation:
    def test_negative_duration_rejected(self):
        with pytest.raises(DomainError):
            make_params(t_mw=-1.0)

    def test_zero_t1_rejected(self):
        with pytest.raises(DomainError):
            make_params(t1=0.0)

    def test_zero_readout_rejected(self):
        with pytest.raises(DomainError):
            make_params(t_ro=0.0)

    def test_calibration_tag_exists(self):
        p = make_params()
        assert build_calibration_sequence(p, 0.5).protocol_tag == CALIBRATION
        assert build_leibold_cycle(p).protocol_tag == LEIBOLD
