import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdmsim import (CalibrationTrace, DomainError, ExtractionError,
                    LogQuadraticCurve, PhotophysicsModel,
                    contrast_at_delay, extract_init_time,
                    extract_readout_time, extract_times, fit_log_quadratic,
                    init_time, read_trace_csv, simulate_calibration,
                    trace_to_csv)
from qdmsim.calibration import E_CUBED_DECAY, TRACE_CSV_HEADER


def exponential_trace(tau_p, t_max, n, c0=0.03, flux=15.0, intensity=1.0):
    """Noiseless trace with contrast c0*exp(-t/tau_p) and constant flux."""
    t = np.linspace(0.0, t_max, n)
    c = c0 * np.exp(-t / tau_p)
    return CalibrationTrace(intensity, t, flux * (1 - c), np.full(n, flux))


def brute_force_objective_argmax():
    """Scan the closed-form objective (1 - e^-x)/sqrt(x) for its maximum.

    Independent oracle for the readout-time criterion.  The optimum solves
    2x = e^x - 1.
    """
    x = np.linspace(0.01, 4.0, 400001)
    f = (1 - np.exp(-x)) / np.sqrt(x)
    return float(x[np.argmax(f)])


X_STAR = brute_force_objective_argmax()


def contrast(sig_pl, ref_pl):
    """contrast_series of a one-sample trace."""
    return CalibrationTrace(1.0, [0.0], [sig_pl], [ref_pl]).contrast_series()[0]


class TestContrast:
    def test_definition(self):
        assert contrast(0.9, 1.0) == pytest.approx(0.1)

    def test_thermalized(self):
        assert contrast(1.0, 1.0) == 0.0

    def test_default_peak(self):
        assert contrast(0.97, 1.0) == pytest.approx(0.03)

    @pytest.mark.parametrize("ref", [0.0, -1.0])
    def test_nonpositive_reference(self, ref):
        with pytest.raises(DomainError, match="ref_pl must be positive everywhere"):
            CalibrationTrace(1.0, [0.0, 1.0], [1.0, 1.0], [1.0, ref])


class TestInitExtraction:
    def test_three_tau_for_pure_exponential(self):
        trace = exponential_trace(tau_p=3.0, t_max=15.0, n=1501)
        assert extract_init_time(trace) == pytest.approx(9.0, abs=0.01)

    def test_tau_ten(self):
        trace = exponential_trace(tau_p=10.0, t_max=50.0, n=2501)
        assert extract_init_time(trace) == pytest.approx(30.0, abs=0.02)

    def test_interpolation_beats_grid(self):
        # coarse grid, but the linear interpolation still lands near 3*tau
        trace = exponential_trace(tau_p=3.0, t_max=15.0, n=31)
        assert extract_init_time(trace) == pytest.approx(9.0, abs=0.1)

    def test_constant_contrast_fails(self):
        t = np.linspace(0, 10, 11)
        trace = CalibrationTrace(1.0, t, np.full(11, 0.97), np.full(11, 1.0))
        with pytest.raises(ExtractionError):
            extract_init_time(trace)

    def test_too_short_trace_fails(self):
        trace = exponential_trace(tau_p=3.0, t_max=4.0, n=41)
        with pytest.raises(ExtractionError):
            extract_init_time(trace)

    @pytest.mark.parametrize("shots", [20, 100_000, None])  # None: noiseless
    def test_array_search_matches_scan(self, model, shots):
        for intensity in np.geomspace(0.1, 5.0, 6):
            t = np.linspace(0.0, 1.25 * init_time(model, intensity), 1000)
            for seed in range(5):
                trace = simulate_calibration(model, intensity, t, shots or 1, seed,
                                             noiseless=shots is None)
                assert (init_time_outcome(extract_init_time, trace)
                        == init_time_outcome(scan_init_time, trace))

    def test_array_search_matches_scan_without_crossing(self, model):
        t = np.linspace(0.0, 0.5 * init_time(model, 1.0), 1000)
        trace = simulate_calibration(model, 1.0, t, 1, 0, noiseless=True)
        outcome = init_time_outcome(extract_init_time, trace)
        assert outcome == init_time_outcome(scan_init_time, trace)
        assert "trace too short" in outcome[1]

    def test_needs_three_samples(self):
        trace = CalibrationTrace(1.0, [0.0, 1.0], [0.9, 0.95], [1.0, 1.0])
        with pytest.raises(ExtractionError):
            extract_init_time(trace)

    def test_roundtrip_against_model(self, model):
        # traces generated from the contrast model return init_time(I)
        for i in (0.05, 0.3, 1.0):
            t_init = init_time(model, i)
            t = np.linspace(0.0, 1.3 * t_init, 1200)
            c = np.array([contrast_at_delay(model, i, x) for x in t])
            trace = CalibrationTrace(i, t, 15.0 * (1 - c), np.full(t.size, 15.0))
            step = t[1] - t[0]
            assert extract_init_time(trace) == pytest.approx(t_init, abs=step)


def scan_init_time(trace):
    """extract_init_time as a Python scan from the peak, the reference for its
    array search."""
    c = trace.contrast_series()
    t = trace.t_sweep
    peak_idx = int(np.argmax(c))
    threshold = c[peak_idx] * E_CUBED_DECAY
    for j in range(peak_idx + 1, len(trace)):
        if c[j] <= threshold:
            frac = (c[j - 1] - threshold) / (c[j - 1] - c[j])
            return float(t[j - 1] + frac * (t[j] - t[j - 1]))
    raise ExtractionError(
        "contrast never decays to 1/e^3 of its peak; trace too short")


def init_time_outcome(extract, trace):
    """(float hex, None) or (None, error text), comparable bitwise."""
    try:
        return extract(trace).hex(), None
    except ExtractionError as exc:
        return None, str(exc)


class TestReadoutExtraction:
    def test_against_brute_force_oracle(self):
        trace = exponential_trace(tau_p=3.0, t_max=15.0, n=3001)
        t_ro, warnings = extract_readout_time(trace)
        assert t_ro == pytest.approx(X_STAR * 3.0, rel=0.01)
        assert not warnings

    def test_tau_ten_scales(self):
        trace = exponential_trace(tau_p=10.0, t_max=50.0, n=5001)
        t_ro, _ = extract_readout_time(trace)
        assert t_ro == pytest.approx(X_STAR * 10.0, rel=0.01)

    def test_root_equation_consistency(self):
        # the brute-force argmax solves 2x = e^x - 1
        assert 2 * X_STAR == pytest.approx(math.exp(X_STAR) - 1, abs=1e-4)
        assert X_STAR == pytest.approx(1.25643, abs=1e-4)

    def test_constant_contrast_monotone_objective(self):
        t = np.linspace(0, 10, 101)
        trace = CalibrationTrace(1.0, t, np.full(101, 0.97), np.full(101, 1.0))
        t_ro, warnings = extract_readout_time(trace)
        assert t_ro == 10.0
        assert warnings  # no interior maximum

    def test_flux_scale_invariance(self):
        base = exponential_trace(tau_p=3.0, t_max=15.0, n=1501, flux=15.0)
        scaled = CalibrationTrace(1.0, base.t_sweep, 40.0 * base.sig_pl,
                                  40.0 * base.ref_pl)
        assert extract_readout_time(base)[0] == extract_readout_time(scaled)[0]

    def test_instantaneous_mode_peaks_earlier(self):
        # instantaneous objective e^-x * sqrt(x) peaks at x = 1/2
        trace = exponential_trace(tau_p=4.0, t_max=20.0, n=4001)
        t_avg, _ = extract_readout_time(trace, mode="averaged")
        t_inst, _ = extract_readout_time(trace, mode="instantaneous")
        assert t_inst == pytest.approx(2.0, rel=0.02)
        assert t_inst < t_avg

    def test_unknown_mode(self):
        trace = exponential_trace(tau_p=3.0, t_max=15.0, n=100)
        with pytest.raises(DomainError):
            extract_readout_time(trace, mode="bogus")


class TestExtractTimes:
    def test_combined_report(self):
        trace = exponential_trace(tau_p=3.0, t_max=15.0, n=3001)
        times = extract_times(trace)
        assert times.t_init == pytest.approx(9.0, abs=0.01)
        assert times.t_ro == pytest.approx(X_STAR * 3.0, rel=0.01)
        assert times.peak_contrast == pytest.approx(0.03, rel=1e-9)
        assert times.t_init > times.t_ro
        assert not times.warnings

    def test_no_positive_contrast(self):
        # signal above reference at every delay: the contrast is negative
        t = np.linspace(0.0, 10.0, 50)
        trace = CalibrationTrace(1.0, t, np.full(50, 2.0), np.ones(50))
        with pytest.raises(ExtractionError, match="no positive peak"):
            extract_times(trace)

    def test_inverted_times_warn(self):
        # fast contrast decay puts the 1/e^3 crossing early, while a steep
        # late rise in flux drags the SNR argmax to the end of the trace
        t = np.linspace(0, 20, 2001)
        c = 0.03 * np.exp(-t / 0.4)
        ref = 1.0 + 1e4 * (t / 20) ** 8
        trace = CalibrationTrace(1.0, t, ref * (1 - c), ref)
        times = extract_times(trace)
        assert times.t_init < times.t_ro
        assert any("t_init" in w for w in times.warnings)


class TestFit:
    def test_noiseless_recovery(self):
        gen = LogQuadraticCurve(1.0, -0.8, 0.05)
        intensities = [10.0 ** (-2 + 3 * k / 9) for k in range(10)]
        points = [(i, gen.duration(i)) for i in intensities]
        fit = fit_log_quadratic(points)
        assert fit.a == pytest.approx(1.0, abs=1e-9)
        assert fit.b == pytest.approx(-0.8, abs=1e-9)
        assert fit.c == pytest.approx(0.05, abs=1e-9)

    def test_exact_interpolation_of_three_points(self):
        gen = LogQuadraticCurve(0.3, -1.1, 0.2)
        points = [(i, gen.duration(i)) for i in (0.01, 0.3, 7.0)]
        fit = fit_log_quadratic(points)
        for i, t in points:
            assert fit.duration(i) == pytest.approx(t, rel=1e-9)

    def test_two_distinct_intensities_underdetermined(self):
        with pytest.raises(DomainError):
            fit_log_quadratic([(0.1, 5.0), (0.1, 5.1), (1.0, 2.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            fit_log_quadratic([(0.1, 5.0), (-1.0, 2.0), (1.0, 1.0)])
        with pytest.raises(DomainError):
            fit_log_quadratic([(0.1, 0.0), (0.5, 2.0), (1.0, 1.0)])

    def test_residual_reported_through_curve(self, rng):
        gen = LogQuadraticCurve(0.7, -0.9, 0.1)
        intensities = 10.0 ** rng.uniform(-2, 1, size=12)
        intensities.sort()
        points = [(i, gen.duration(i)) for i in intensities]
        fit = fit_log_quadratic(points)
        for i, t in points:
            assert math.log10(fit.duration(i)) == pytest.approx(
                math.log10(t), abs=1e-9)


class TestTraceHygiene:
    def test_negative_t_sweep_rejected(self):
        with pytest.raises(DomainError):
            CalibrationTrace(1.0, [-1.0, 0.0, 1.0], [1, 1, 1], [1, 1, 1])

    def test_non_increasing_rejected(self):
        with pytest.raises(DomainError):
            CalibrationTrace(1.0, [0.0, 1.0, 1.0], [1, 1, 1], [1, 1, 1])

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(DomainError):
            CalibrationTrace(1.0, [0.0, 1.0], [1, 1], [1, 0])

    def test_unequal_columns_rejected(self):
        with pytest.raises(DomainError, match="equally long"):
            CalibrationTrace(1.0, [0.0, 1.0, 2.0], [1, 1, 1], [1, 1])

    def test_csv_roundtrip(self):
        trace = exponential_trace(tau_p=3.0, t_max=9.0, n=10)
        again = read_trace_csv(trace_to_csv(trace), trace.intensity)
        assert np.array_equal(again.t_sweep, trace.t_sweep)
        assert np.array_equal(again.sig_pl, trace.sig_pl)
        assert np.array_equal(again.ref_pl, trace.ref_pl)

    @pytest.mark.parametrize("text, line", [
        ("t_sweep_us,sig_pl,ref_pl\n\n\n0,1,1\n1,2\n", 5),
        ("\nt_sweep_us,sig_pl,ref_pl\n0,1,1\n  \n1,x,1\n", 5),
    ])
    def test_csv_error_names_file_line(self, text, line):
        # blank lines are skipped but still counted
        with pytest.raises(DomainError, match=f"trace CSV line {line}:"):
            read_trace_csv(text, 1.0)

    def test_csv_header_enforced(self):
        with pytest.raises(DomainError):
            read_trace_csv("time,sig,ref\n0,1,1\n", 1.0)


def reference_read_trace_csv(text, intensity):
    """read_trace_csv as it was written before the one-pass parse: one
    float() call per field, row by row."""
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines or lines[0][1].replace(" ", "") != TRACE_CSV_HEADER:
        raise DomainError(f"trace CSV must start with header {TRACE_CSV_HEADER!r}")
    rows = []
    for n, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise DomainError(f"trace CSV line {n}: expected 3 columns")
        try:
            rows.append(tuple(float(x) for x in parts))
        except ValueError as exc:
            raise DomainError(f"trace CSV line {n}: {exc}") from None
    arr = np.array(rows, dtype=float).reshape(-1, 3)
    return CalibrationTrace(intensity, arr[:, 0], arr[:, 1], arr[:, 2])


def _outcome(parse, text):
    """The columns' bits of a parse, or its exception type and message."""
    try:
        trace = parse(text, 1.0)
    except Exception as exc:  # the type itself is compared
        return type(exc), str(exc)
    return tuple(col.view(np.int64).tobytes()
                 for col in (trace.t_sweep, trace.sig_pl, trace.ref_pl))


_HEADERS = [" t_sweep_us , sig_pl , ref_pl ",
            "t_sweep_us, sig_pl,\tref_pl", "t_sweep_us,sig,ref",
            "t_sweep_us,sig_pl,ref_pl,", "0,1,1"]
_FIELDS = ["1", "2.5", "-0.0", "1e400", "1_0", "nan", "inf", "-inf", "", "x",
           " 3 ", "\t4\t", "0x1", "1e", "\xa05", "1 # 2"]
_SEPARATORS = ["\n", "\r\n", "\r", "\x0c", "\u2028", "\n\n", "\n  \n",
               "\n\t\n"]


@st.composite
def _trace_text(draw):
    """Trace CSV text that is often malformed: odd headers, fields, column
    counts and line breaks."""
    odd_header = draw(st.integers(0, 3)) == 0
    rows = [draw(st.sampled_from(_HEADERS)) if odd_header else TRACE_CSV_HEADER]
    for i in range(draw(st.integers(0, 6))):
        # mostly well-formed rows, so some texts parse all the way
        row = [str(i), repr(1.0 + i), "10"]
        flaw = draw(st.integers(0, 7))
        if flaw == 0:
            row[draw(st.integers(0, 2))] = draw(st.sampled_from(_FIELDS))
        elif flaw == 1:
            row = (row + ["7"])[:draw(st.sampled_from([2, 4]))]
        elif flaw == 2:
            row.append("")  # a trailing comma
        pad = draw(st.sampled_from(["", "", " ", "\t"]))
        rows.append(pad + ",".join(row) + pad)
    seps = [draw(st.sampled_from(_SEPARATORS)) for _ in rows]
    return draw(st.sampled_from(["", "\n", "  \n"])) + "".join(
        r + sep for r, sep in zip(rows, seps))


class TestOnePassParse:
    """read_trace_csv against the row-by-row reference parser."""

    def test_bitwise_equal_on_simulated_traces(self):
        model = PhotophysicsModel()
        rng = np.random.default_rng(20261018)
        for seed in range(240):
            intensity = float(10.0 ** rng.uniform(-1.0, math.log10(5.0)))
            grid = np.linspace(0.0, 1.25 * init_time(model, intensity),
                               int(rng.integers(3, 400)))
            trace = simulate_calibration(model, intensity, grid, 20, seed=seed,
                                         noiseless=seed % 2 == 0)
            text = trace_to_csv(trace)
            got = read_trace_csv(text, intensity)
            want = reference_read_trace_csv(text, intensity)
            for a, b, c in zip((got.t_sweep, got.sig_pl, got.ref_pl),
                               (want.t_sweep, want.sig_pl, want.ref_pl),
                               (trace.t_sweep, trace.sig_pl, trace.ref_pl)):
                assert a.dtype == b.dtype == np.float64
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
                assert np.array_equal(a.view(np.int64), c.view(np.int64))

    @settings(max_examples=400, deadline=None)
    @given(text=_trace_text())
    def test_same_result_or_error_as_reference(self, text):
        assert _outcome(read_trace_csv, text) == _outcome(
            reference_read_trace_csv, text)

    @pytest.mark.parametrize("text", [
        TRACE_CSV_HEADER + "\n",
        " t_sweep_us , sig_pl , ref_pl \r\n\r\n",
        TRACE_CSV_HEADER + "\r\n0,1,1\r\n\r\n1, 2 ,\t3\r\n",
        TRACE_CSV_HEADER + "\x0c0,1,1\u20281,2,3\n",
        TRACE_CSV_HEADER + "\n0,1,1\n1,1_0,1\n",
    ])
    def test_edge_texts_parse_alike(self, text):
        got = _outcome(read_trace_csv, text)
        assert isinstance(got[0], bytes)
        assert got == _outcome(reference_read_trace_csv, text)

    @pytest.mark.parametrize("text, message", [
        (TRACE_CSV_HEADER + "\n0,1,1\n1,x,1\n2,3\n", "line 3: could not convert"),
        (TRACE_CSV_HEADER + "\n0,1,1\n1,2\n2,x,1\n", "line 3: expected 3 columns"),
        (TRACE_CSV_HEADER + "\n0,1,1,\n", "line 2: expected 3 columns"),
        (TRACE_CSV_HEADER + "\n0,1,\n", "line 2: could not convert"),
        (TRACE_CSV_HEADER + "\r\n\r\n\x0c0,1,1\u20281,1,ref\n", "line 5:"),
    ])
    def test_first_bad_row_is_named(self, text, message):
        with pytest.raises(DomainError, match=message):
            read_trace_csv(text, 1.0)
        assert _outcome(read_trace_csv, text) == _outcome(
            reference_read_trace_csv, text)
