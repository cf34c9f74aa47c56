import dataclasses
import math
import random
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdmsim import (CALIBRATION, CONVENTIONAL, DomainError, LCQDM, LEIBOLD,
                    PhotophysicsModel, ProtocolParams, PulseSequence,
                    SequenceEvent, SimConfig, VoxelGrid,
                    build_calibration_sequence, build_conventional_cycle,
                    build_cycle, build_lcqdm_cycle, build_leibold_cycle,
                    duty_cycle, eta_exact, plan_acquisition, simulate_protocol,
                    speedup_report, validate_sequence)
from qdmsim import sequence
from qdmsim.sequence import (CONFOCAL_LASER_PULSE, DEAD_TIME, EVENT_KINDS,
                             LIGHT_SHEET_PULSE, MW_BLOCK, READOUT_WINDOW,
                             cycle_layout)

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


def recurrent_span(seq):
    """From the end of the MW block to the end of the last readout window,
    read one event row at a time."""
    events = event_rows(seq)
    return (max(end(e) for e in events if e.kind == READOUT_WINDOW)
            - max(end(e) for e in events if e.kind == MW_BLOCK))


def reference_validate(seq, p):
    """The t1 budget check one event row at a time: the array validator must
    report exactly this."""
    violations, warned = [], []
    if seq.protocol_tag in (LCQDM, LEIBOLD):
        span = recurrent_span(seq)
        if span > p.t1 * (1 + 1e-9):
            msg = f"recurrent span {span:.6g} us exceeds t1 = {p.t1:.6g} us"
            if len(seq.windows()) == 1:
                warned.append(msg + " (single clamped readout)")
            else:
                violations.append(msg)
    return sequence.ValidationReport(not violations, tuple(violations), tuple(warned))


# How a test moves t1 against a built cycle's recurrent span; offsets
# straddle the validator's 1e-9 relative tolerance.
T1_EDITS = ("at_span", "within_tolerance", "past_tolerance", "anywhere")


def edited_t1(seq, p, how, rng):
    """p with its t1 moved against seq's recurrent span as `how` says."""
    span = recurrent_span(seq)
    if how == "at_span":
        t1 = span
    elif how == "within_tolerance":
        t1 = span / (1 + rng.choice((0.25e-9, 0.5e-9, 0.9e-9)))
    elif how == "past_tolerance":
        t1 = span / (1 + rng.choice((2e-9, 1e-6, 0.5)))
    else:
        t1 = rng.uniform(0.01, 2.0) * span
    return dataclasses.replace(p, t1=t1)


def build(tag, p, t_sweep=2.0):
    if tag == LCQDM:
        return build_lcqdm_cycle(p)
    if tag == LEIBOLD:
        return build_leibold_cycle(p)
    if tag == CONVENTIONAL:
        return build_conventional_cycle(p)
    return build_calibration_sequence(p, t_sweep)


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

    @pytest.mark.parametrize("n", [2.5, 3.0, "3"])
    def test_non_integer_readout_count_rejected(self, n):
        with pytest.raises(DomainError, match="n_readouts must be a whole number"):
            build_cycle(LCQDM, make_params(), n)
        with pytest.raises(DomainError, match="n_readouts must be a whole number"):
            build_cycle(LEIBOLD, make_params(), n)

    def test_numpy_integer_readout_count_accepted(self):
        p = make_params()
        assert build_cycle(LCQDM, p, np.int64(7)) == build_cycle(LCQDM, p, 7)

    def test_columns_are_read_only(self):
        seq = build_lcqdm_cycle(make_params())
        with pytest.raises(ValueError):
            seq.start[0] = 1.0

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


def build_outcome(build, *args):
    try:
        return build(*args)
    except DomainError as exc:
        return str(exc)


def assert_finite_ends(seq):
    # numpy warns on an overflowing sum, and the suite turns that into an error
    assert np.isfinite(seq.start + seq.duration).all()


# Durations up to the float maximum, with t1 at most a thousand slots, so
# prelude and slot sums may overflow while a cycle stays small.
overflow_param_strategy = st.builds(
    lambda t_init_ls, t_init_conf, t_ro, t_mw, t_d, slots: make_params(
        t_init_ls, t_init_conf, t_ro, t_mw, t_d,
        min(slots * (t_ro + t_d), 1.7e308)),
    *(st.floats(0.0, 1.7e308) for _ in range(2)),
    st.floats(1e-300, 1.7e308), st.floats(0.0, 1.7e308), st.floats(0.0, 1.7e308),
    st.floats(1e-3, 1e3))


class TestOverflow:
    @given(overflow_param_strategy, st.sampled_from(sequence.PROTOCOLS))
    @settings(max_examples=200, deadline=None)
    def test_layout_refuses_exactly_the_cycles_the_builder_refuses(self, p, tag):
        layout = build_outcome(cycle_layout, tag, p)
        built = build_outcome(build_cycle, tag, p)
        if isinstance(layout, str):
            assert built == layout
        else:
            assert_finite_ends(built)

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
        for call in (cycle_layout, build_cycle):
            with pytest.raises(DomainError, match="ends at inf us"):
                call(LCQDM, p)

    def test_overflowing_calibration_is_refused(self):
        # every start and duration would be finite: the reference half opens
        # at inf, so its laser pulses and its window would start there
        p = make_params(t_init_conf=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                build_calibration_sequence(p, 1e308)
        assert str(info.value) == ("a calibration sequence at t_sweep = 1e+308 us "
                                   "ends at inf us; its times overflow")

    # the last end is (half + t_init_conf) + (t_sweep + t_ro_conf), with
    # half = t_init_conf + t_sweep + t_ro_conf: each time alone can overflow it
    @pytest.mark.parametrize("overrides, t_sweep", [
        (dict(t_init_conf=1e308), 0.0),
        (dict(t_ro=1e308), 0.0),
        (dict(), 1.7e308),
        (dict(t_ro=6e307), 6e307),
    ], ids=["t_init_conf", "t_ro_conf", "t_sweep", "t_sweep+t_ro_conf"])
    def test_each_overflowing_calibration_time_is_refused(self, overrides, t_sweep):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                build_calibration_sequence(make_params(**overrides), t_sweep)
        assert str(info.value) == (f"a calibration sequence at t_sweep = {t_sweep!r} "
                                   "us ends at inf us; its times overflow")

    @pytest.mark.parametrize("overrides, t_sweep", [
        (dict(), 8e307),
        (dict(t_init_conf=5e307), 0.0),
    ], ids=["t_sweep", "t_init_conf"])
    def test_calibration_below_overflow_is_built(self, overrides, t_sweep):
        p = make_params(**overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = build_calibration_sequence(p, t_sweep)
        assert event_rows(seq) == reference_timeline(CALIBRATION, p, t_sweep)
        assert_builder_invariants(seq, p)

    @given(st.floats(0.0, 1.7e308), st.floats(1e-300, 1.7e308),
           st.floats(0.0, 1.7e308))
    @settings(max_examples=200, deadline=None)
    def test_calibration_near_overflow(self, t_init_conf, t_ro, t_sweep):
        p = make_params(t_init_conf=t_init_conf, t_ro=t_ro)
        seq = build_outcome(build_calibration_sequence, p, t_sweep)
        if isinstance(seq, str):
            assert seq.endswith("its times overflow")
        else:
            assert_finite_ends(seq)


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


def assert_builder_invariants(seq, p):
    """What every builder timeline holds by construction, and nothing checks
    at run time but the t1 budget: event order, each window inside the laser
    event that reads it, finite ends, column types and read-only columns."""
    columns = (seq.kind, seq.start, seq.duration, seq.voxel)
    assert [c.dtype for c in columns] == [np.int8, np.float64, np.float64, np.int64]
    assert not any(c.flags.writeable for c in columns)
    assert_finite_ends(seq)
    tol = 1e-9 * max(1.0, seq.span())
    assert (seq.start[1:] >= seq.start[:-1] - tol).all()
    windows = np.flatnonzero(seq.kind == WINDOW_CODE)
    lasers = np.flatnonzero(seq.kind == LASER_CODE)
    if seq.protocol_tag == LEIBOLD:
        # one laser dwell per voxel, in window order
        assert seq.voxel[lasers].tolist() == seq.voxel[windows].tolist() \
            == list(range(windows.size))
        dwells = lasers
    elif seq.protocol_tag == CALIBRATION:
        dwells = lasers[1::2]  # each half's second laser pulse
        assert dwells.size == windows.size == 2
    else:
        dwells = None
    if dwells is not None:
        assert (seq.start[dwells] <= seq.start[windows]).all()
        assert (seq.start[windows] + seq.duration[windows]
                <= seq.start[dwells] + seq.duration[dwells]).all()
    assert validate_sequence(seq, p).ok


class TestBuilderInvariants:
    @given(param_strategy, st.data())
    @settings(max_examples=60, deadline=None)
    def test_full_and_partial_cycles(self, p, data):
        for tag in sequence.PROTOCOLS:
            count = cycle_layout(tag, p)[0]
            for n in (None, data.draw(st.integers(1, count), label=tag)):
                assert_builder_invariants(build_cycle(tag, p, n), p)

    @given(clamped_param_strategy, st.sampled_from((LCQDM, LEIBOLD)))
    @settings(max_examples=40, deadline=None)
    def test_clamped_cycles(self, p, tag):
        seq = build_cycle(tag, p)
        assert_builder_invariants(seq, p)
        assert len(validate_sequence(seq, p).warnings) == 1

    @given(param_strategy, st.floats(0.0, 100.0) | st.floats(0.0, 1e300))
    @settings(max_examples=60, deadline=None)
    def test_calibration_delays(self, p, t_sweep):
        assert_builder_invariants(build_calibration_sequence(p, t_sweep), p)


class TestValidation:
    def test_builders_produce_valid_sequences(self):
        p = make_params()
        for seq in (build_lcqdm_cycle(p), build_leibold_cycle(p),
                    build_conventional_cycle(p),
                    build_calibration_sequence(p, 2.0)):
            report = validate_sequence(seq, p)
            assert report.ok, report.violations

    @pytest.mark.parametrize("tag, message", [
        (LCQDM, "recurrent span 4997.9 us exceeds t1 = 2500 us"),    # 979 * 5.1 + 5
        (LEIBOLD, "recurrent span 4974.8 us exceeds t1 = 2500 us"),  # 198 * 25.1 + 5
    ])
    def test_t1_budget_violation(self, tag, message):
        # a cycle built for t1 = 5 ms, validated against half of it: the
        # last window ends (n - 1) slots and one readout after the MW block
        seq = build_cycle(tag, make_params())
        report = validate_sequence(seq, make_params(t1=2500.0))
        assert report == sequence.ValidationReport(False, (message,), ())

    @pytest.mark.parametrize("tag", [LCQDM, LEIBOLD])
    def test_two_readouts_over_budget_is_a_violation(self, tag):
        # only a single readout is the clamped case
        seq = build_cycle(tag, make_params(), 2)
        span = recurrent_span(seq)
        report = validate_sequence(seq, make_params(t1=1.0))
        assert report == sequence.ValidationReport(
            False, (f"recurrent span {span:.6g} us exceeds t1 = 1 us",), ())

    def test_clamped_single_readout_is_warning(self):
        p = make_params(t_ro=50.0, t_d=0.0, t1=10.0)
        seq = build_lcqdm_cycle(p)
        report = validate_sequence(seq, p)
        assert report.ok
        assert report.warnings == (
            "recurrent span 50 us exceeds t1 = 10 us (single clamped readout)",)

    def test_calibration_has_no_t1_budget(self):
        p = make_params()
        report = validate_sequence(build_calibration_sequence(p, 1e4),
                                   make_params(t1=1.0))
        assert report.ok and not report.warnings

    def test_conventional_has_no_t1_budget(self):
        # one readout per cycle: nothing recurs within t1
        seq = build_conventional_cycle(make_params(t_ro=50.0))
        report = validate_sequence(seq, make_params(t1=1.0))
        assert report.ok and not report.warnings

    @pytest.mark.parametrize("tag", [LCQDM, LEIBOLD])
    @pytest.mark.parametrize("slack, ok", [(0.0, True), (0.5e-9, True),
                                           (2e-9, False)])
    def test_t1_budget_tolerance(self, tag, slack, ok):
        # t1 = span / (1 + slack): the span passes up to a slack of 1e-9
        seq = build_cycle(tag, make_params())
        report = validate_sequence(
            seq, make_params(t1=recurrent_span(seq) / (1 + slack)))
        assert report.ok is ok and not report.warnings
        assert len(report.violations) == (0 if ok else 1)


class TestArrayValidatorMatchesReference:
    @given(param_strategy, st.floats(0.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_built_cycles(self, p, t_sweep):
        for tag in (*sequence.PROTOCOLS, CALIBRATION):
            seq = build(tag, p, t_sweep)
            assert validate_sequence(seq, p) == reference_validate(seq, p)

    @given(param_strategy, st.sampled_from((*sequence.PROTOCOLS, CALIBRATION)),
           st.sampled_from(T1_EDITS), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_perturbed_cycles(self, p, tag, how, seed):
        # a built cycle validated against a t1 moved across its recurrent span
        seq = build(tag, p)
        q = edited_t1(seq, p, how, random.Random(seed))
        assert validate_sequence(seq, q) == reference_validate(seq, q)

    @given(clamped_param_strategy, st.sampled_from((LCQDM, LEIBOLD)))
    @settings(max_examples=40, deadline=None)
    def test_single_clamped_readout(self, p, tag):
        seq = build(tag, p)
        report = validate_sequence(seq, p)
        assert report == reference_validate(seq, p)
        assert report.ok and len(report.warnings) == 1

    def test_perturbations_find_violations(self):
        # the t1 edits must reach every outcome the reference has
        rng = random.Random(11)
        seen = set()
        for p in (make_params(t1=200.0), make_params(t_ro=50.0, t_d=0.0, t1=10.0)):
            for _ in range(100):
                seq = build(rng.choice((LCQDM, LEIBOLD)), p)
                q = edited_t1(seq, p, rng.choice(T1_EDITS), rng)
                report = reference_validate(seq, q)
                assert validate_sequence(seq, q) == report
                seen.add("violation" if report.violations else
                         "warning" if report.warnings else "ok")
        assert seen == {"ok", "violation", "warning"}


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

    @pytest.mark.parametrize("field", [name for name, _ in sequence._PARAM_FIELDS])
    def test_numpy_scalar_field_accepted(self, field):
        # ProtocolParams refuses an ndarray field; a numpy scalar is no ndarray
        p = make_params()
        q = dataclasses.replace(p, **{field: np.float64(getattr(p, field))})
        for tag in sequence.PROTOCOLS:
            assert cycle_layout(tag, q) == cycle_layout(tag, p)
            assert build_cycle(tag, q) == build_cycle(tag, p)
        assert build_calibration_sequence(q, 2.0) == build_calibration_sequence(p, 2.0)

    def test_calibration_tag_exists(self):
        p = make_params()
        assert build_calibration_sequence(p, 0.5).protocol_tag == CALIBRATION
        assert build_leibold_cycle(p).protocol_tag == LEIBOLD
