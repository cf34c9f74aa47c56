import pytest
from hypothesis import given, settings, strategies as st

from qdmsim import (CALIBRATION, CONVENTIONAL, DomainError, LCQDM, LEIBOLD,
                    ProtocolParams, PulseSequence, SequenceEvent,
                    build_calibration_sequence, build_conventional_cycle,
                    build_lcqdm_cycle, build_leibold_cycle, duty_cycle,
                    recurrent_count_lcqdm, recurrent_count_leibold,
                    validate_sequence)


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


class TestRecurrentCounts:
    def test_lcqdm_table_values(self):
        assert recurrent_count_lcqdm(make_params()) == 980
        assert recurrent_count_lcqdm(make_params(t_ro=50.0, t_d=0.0)) == 100

    def test_lcqdm_exact_fit(self):
        p = make_params(t_ro=5.0, t_d=0.1, t1=5.1)
        assert recurrent_count_lcqdm(p) == 1

    def test_leibold_table_values(self):
        assert recurrent_count_leibold(make_params()) == 199
        assert recurrent_count_leibold(
            make_params(t_ro=10.0, t_init_conf=50.0)) == 83

    def test_leibold_exact_fit(self):
        p = make_params(t_ro=5.0, t_init_conf=20.0, t_d=0.1, t1=25.1)
        assert recurrent_count_leibold(p) == 1

    def test_minimum_one(self):
        p = make_params(t_ro=50.0, t_d=0.0, t1=10.0)
        assert recurrent_count_lcqdm(p) == 1
        assert recurrent_count_leibold(p) == 1

    def test_overflowing_count_is_domain_error(self):
        p = make_params(t_init_conf=0.0, t_ro=1e-300, t_d=0.0, t1=1e300)
        with pytest.raises(DomainError, match="overflows"):
            recurrent_count_lcqdm(p)
        with pytest.raises(DomainError, match="overflows"):
            recurrent_count_leibold(p)

    @given(param_strategy)
    def test_lcqdm_never_below_leibold(self, p):
        assert recurrent_count_lcqdm(p) >= recurrent_count_leibold(p)


class TestLcqdmBuilder:
    def test_three_readout_case(self):
        p = make_params(t1=16.0)
        seq = build_lcqdm_cycle(p)
        assert len(seq.events) == 2 + 3 * 2
        assert seq.span() == pytest.approx(p.t_init_ls + p.t_mw + 3 * 5.1)
        assert [w.voxel_index for w in seq.windows()] == [0, 1, 2]

    def test_minimum_cycle(self):
        p = make_params(t_ro=5.0, t_d=0.1, t1=5.05)
        seq = build_lcqdm_cycle(p)
        assert len(seq.events) == 4
        assert len(seq.windows()) == 1

    def test_t1_budget_holds_for_default(self):
        p = make_params()
        seq = build_lcqdm_cycle(p)
        mw_end = p.t_init_ls + p.t_mw
        last_end = max(w.end for w in seq.windows())
        assert last_end <= mw_end + p.t1 + 1e-9
        assert len(seq.windows()) == 980

    def test_partial_cycle(self):
        seq = build_lcqdm_cycle(make_params(), n_readouts=7)
        assert len(seq.windows()) == 7
        with pytest.raises(DomainError):
            build_lcqdm_cycle(make_params(), n_readouts=0)
        with pytest.raises(DomainError):
            build_lcqdm_cycle(make_params(), n_readouts=981)


class TestLeiboldBuilder:
    def test_window_count_matches_recurrent_count(self):
        seq = build_leibold_cycle(make_params())
        assert len(seq.windows()) == 199

    def test_small_case_event_count(self):
        p = make_params(t_ro=5.0, t_init_conf=20.0, t_d=0.1, t1=51.0)
        seq = build_leibold_cycle(p)
        assert len(seq.windows()) == 2
        assert len(seq.events) == 1 + 2 * 3

    def test_zero_reinit_matches_lcqdm_cadence(self):
        p = make_params(t_init_conf=0.0)
        leib = build_leibold_cycle(p)
        lc = build_lcqdm_cycle(p)
        offset = p.t_init_ls  # light-sheet pulse precedes the MW block
        assert len(leib.windows()) == len(lc.windows())
        for wl, wc in zip(leib.windows(), lc.windows()):
            assert wl.start + offset == pytest.approx(wc.start, rel=1e-12)


class TestConventionalBuilder:
    def test_single_readout(self):
        seq = build_conventional_cycle(make_params())
        assert len(seq.windows()) == 1
        assert seq.span() == pytest.approx(125.1)

    def test_zero_dead_time_span(self):
        p = make_params(t_d=0.0)
        seq = build_conventional_cycle(p)
        assert seq.span() == pytest.approx(p.t_init_conf + p.t_mw + p.t_ro_conf)


class TestCalibrationBuilder:
    def test_zero_delay(self):
        seq = build_calibration_sequence(make_params(), 0.0)
        windows = seq.windows()
        assert len(windows) == 2
        lasers = [e for e in seq.events if e.kind == "ConfocalLaserPulse"]
        # readout coincides with its laser rise (the second pulse per half)
        assert windows[0].start == lasers[1].start

    def test_delay_offsets(self):
        p = make_params()
        seq = build_calibration_sequence(p, 2.0)
        windows = seq.windows()
        readout_lasers = [e for e in seq.events
                          if e.kind == "ConfocalLaserPulse"][1::2]
        for w, laser in zip(windows, readout_lasers):
            assert w.start - laser.start == pytest.approx(2.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(DomainError):
            build_calibration_sequence(make_params(), -1.0)


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
        events = (
            SequenceEvent("MWBlock", 0.0, 10.0),
            SequenceEvent("ReadoutWindow", 10.0, 5.0, 0),
            SequenceEvent("ReadoutWindow", 106.0, 5.0, 1),  # ends at t1 + 11
        )
        report = validate_sequence(PulseSequence(events, LCQDM), p)
        assert not report.ok
        assert any("t1" in v for v in report.violations)

    def test_containment_violation(self):
        p = make_params()
        events = (
            SequenceEvent("ConfocalLaserPulse", 0.0, 5.0, 0),
            SequenceEvent("ReadoutWindow", 10.0, 2.0, 0),
        )
        report = validate_sequence(PulseSequence(events, CONVENTIONAL), p)
        assert not report.ok
        assert any("laser pulse" in v for v in report.violations)

    def test_one_misplaced_leibold_window_is_one_violation(self):
        p = make_params()
        events = list(build_leibold_cycle(p, 6).events)
        moved = next(i for i, e in enumerate(events)
                     if e.kind == "ReadoutWindow" and e.voxel_index == 3)
        w = events[moved]
        # same start, so the event order holds; the end overruns the dwell
        events[moved] = SequenceEvent(w.kind, w.start,
                                      p.t_ro_conf + p.t_init_conf + 1.0, 3)
        report = validate_sequence(PulseSequence(tuple(events), LEIBOLD), p)
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
        events = (
            SequenceEvent("MWBlock", 10.0, 5.0),
            SequenceEvent("LightSheetPulse", 0.0, 5.0),
        )
        report = validate_sequence(PulseSequence(events, LCQDM), p)
        assert not report.ok

    def test_event_invariants(self):
        with pytest.raises(DomainError):
            SequenceEvent("ReadoutWindow", -1.0, 5.0, 0)
        with pytest.raises(DomainError):
            SequenceEvent("ReadoutWindow", 0.0, -5.0, 0)
        with pytest.raises(DomainError):
            SequenceEvent("Bogus", 0.0, 5.0)


class TestDutyCycle:
    def test_lcqdm_value(self):
        assert duty_cycle(build_lcqdm_cycle(make_params())) == pytest.approx(
            4900.0 / 5118.0, rel=1e-9)

    def test_conventional_value(self):
        assert duty_cycle(build_conventional_cycle(make_params())) == pytest.approx(
            5.0 / 125.1, rel=1e-9)

    def test_no_windows(self):
        seq = PulseSequence((SequenceEvent("MWBlock", 0.0, 10.0),), LCQDM)
        assert duty_cycle(seq) == 0.0

    @given(param_strategy)
    @settings(max_examples=100, deadline=None)
    def test_protocol_ordering(self, p):
        # The light-sheet protocol wins once its global initialization
        # amortizes over the readout train: N_lc * t_init_conf >= t_init_ls.
        # (With a short train and a slow sheet the ordering genuinely flips.)
        if p.t_init_conf == 0.0 or p.t_mw == 0.0:
            return
        if recurrent_count_lcqdm(p) * p.t_init_conf < p.t_init_ls:
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
