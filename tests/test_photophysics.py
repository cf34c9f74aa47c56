import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdmsim import (DomainError, LogQuadraticCurve, OutOfRangeError,
                    PhotophysicsModel, confocal_intensity, contrast_at_delay,
                    init_time, lightsheet_intensity, photon_flux, readout_time)
from qdmsim.photophysics import VALID_INTENSITY_MAX, VALID_INTENSITY_MIN


class TestIntensities:
    def test_lightsheet_full_power(self):
        # 2 W over a 100 um x 10 um sheet
        assert lightsheet_intensity(2000.0, 100.0, 10.0) == pytest.approx(2.0)

    def test_lightsheet_zero_power(self):
        assert lightsheet_intensity(0.0, 100.0, 10.0) == 0.0

    def test_lightsheet_low_power(self):
        assert lightsheet_intensity(2.0, 100.0, 10.0) == pytest.approx(0.002)

    @pytest.mark.parametrize("l_y,d_ls", [(0.0, 10.0), (100.0, 0.0), (-1.0, 10.0)])
    def test_lightsheet_bad_dimensions(self, l_y, d_ls):
        with pytest.raises(DomainError):
            lightsheet_intensity(1.0, l_y, d_ls)

    def test_confocal_2mw(self):
        assert confocal_intensity(2.0, 0.53) == pytest.approx(2.0 / 0.2809, rel=1e-12)

    def test_confocal_unit_divisor(self):
        assert confocal_intensity(1.0, 1.0) == 1.0

    def test_confocal_bioimaging_floor(self):
        # 2 uW readout power
        assert confocal_intensity(0.002, 0.53) == pytest.approx(0.002 / 0.2809, rel=1e-12)

    def test_confocal_bad_diameter(self):
        with pytest.raises(DomainError):
            confocal_intensity(1.0, 0.0)

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            lightsheet_intensity(-1.0, 100.0, 10.0)
        with pytest.raises(DomainError):
            confocal_intensity(-1.0, 0.53)

    # Non-finite input is refused before any arithmetic: no nan or 0.0 result.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position,message", [
        (0, "sheet power p_ls must be finite and >= 0"),
        (1, "sheet dimension l_y must be finite and positive"),
        (2, "sheet dimension d_ls must be finite and positive")])
    def test_lightsheet_non_finite_rejected(self, position, message, bad, capfd):
        args = [2000.0, 100.0, 10.0]
        args[position] = bad
        with pytest.raises(DomainError, match=message):
            lightsheet_intensity(*args)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position,message", [
        (0, "readout power p_conf must be finite and >= 0"),
        (1, "beam diameter delta_conf must be finite and positive")])
    def test_confocal_non_finite_rejected(self, position, message, bad, capfd):
        args = [2.0, 0.53]
        args[position] = bad
        with pytest.raises(DomainError, match=message):
            confocal_intensity(*args)
        assert capfd.readouterr().err == ""


class TestTimescales:
    def test_init_time_default_at_unity(self, model):
        assert init_time(model, 1.0) == pytest.approx(10.0 ** 0.7, rel=1e-12)

    def test_init_time_default_low_intensity(self, model):
        # a + b*(-2) + c*4 = 0.7 + 1.8 + 0.4 = 2.9
        assert init_time(model, 0.01) == pytest.approx(10.0 ** 2.9, rel=1e-12)

    def test_init_time_constant_curve(self):
        m = PhotophysicsModel(init_curve=LogQuadraticCurve(1.0, 0.0, 0.0),
                              readout_curve=LogQuadraticCurve(0.0, 0.0, 0.0))
        for i in (0.001, 0.05, 1.0, 10.0):
            assert init_time(m, i) == pytest.approx(10.0, rel=1e-12)

    def test_readout_time_default(self, model):
        assert readout_time(model, 1.0) == pytest.approx(10.0 ** 0.7, rel=1e-12)
        assert readout_time(model, 0.1) == pytest.approx(10.0, rel=1e-12)

    def test_readout_time_constant_unit_curve(self):
        m = PhotophysicsModel(init_curve=LogQuadraticCurve(0.5, 0.0, 0.0),
                              readout_curve=LogQuadraticCurve(0.0, 0.0, 0.0))
        assert readout_time(m, 0.37) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_intensity(self, model, bad):
        with pytest.raises(DomainError):
            init_time(model, bad)

    @pytest.mark.parametrize("outside", [1e-4, 10.001, 1e3])
    def test_out_of_range_is_hard_error(self, model, outside):
        with pytest.raises(OutOfRangeError):
            init_time(model, outside)
        with pytest.raises(OutOfRangeError):
            readout_time(model, outside)

    def test_out_of_range_is_domain_error_subclass(self):
        assert issubclass(OutOfRangeError, DomainError)

    def test_positive_and_finite_over_range(self, model):
        for k in range(200):
            i = 10.0 ** (-3 + 4 * k / 199)
            for t in (init_time(model, i), readout_time(model, i)):
                assert math.isfinite(t) and t > 0

    def test_init_over_readout_ratio_nonincreasing(self, model):
        # low intensity pushes initialization far slower than readout
        grid = [10.0 ** (-2 + 2 * k / 60) for k in range(61)]
        ratios = [init_time(model, i) / readout_time(model, i) for i in grid]
        assert all(a >= b * (1 - 1e-12) for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] > 10 * ratios[-1]

    def test_init_slower_than_readout_enforced_below_saturation(self):
        with pytest.raises(DomainError):
            PhotophysicsModel(init_curve=LogQuadraticCurve(0.0, 0.0, 0.0),
                              readout_curve=LogQuadraticCurve(1.0, 0.0, 0.0))

    def test_overflowing_curve_is_domain_error(self):
        # 10 ** 400 overflows a float; it must not escape as OverflowError
        with pytest.raises(DomainError, match="overflowed"):
            LogQuadraticCurve(400.0, 0.0, 0.0).duration(1.0)


class TestFluxAndContrast:
    def test_half_saturation(self, model):
        assert photon_flux(model, model.i_sat) == pytest.approx(model.r_max / 2)

    def test_zero_intensity(self, model):
        assert photon_flux(model, 0.0) == 0.0

    def test_three_i_sat(self, model):
        assert photon_flux(model, 3 * model.i_sat) == pytest.approx(0.75 * model.r_max)

    def test_flux_monotone_and_bounded(self, model):
        grid = [0.0] + [10.0 ** (-4 + 8 * k / 100) for k in range(101)]
        vals = [photon_flux(model, i) for i in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v < model.r_max for v in vals)

    def test_contrast_peak_at_zero_delay(self, model):
        assert contrast_at_delay(model, 1.0, 0.0) == model.c0

    def test_contrast_e_cubed_at_init_time(self, model):
        for i in (0.01, 0.2, 1.0, 5.0):
            c = contrast_at_delay(model, i, init_time(model, i))
            assert c == pytest.approx(model.c0 * math.exp(-3), rel=1e-12)

    def test_contrast_value_one_tau(self):
        # tau_p = 3 us model: init_time == 9 us at any intensity
        m = PhotophysicsModel(init_curve=LogQuadraticCurve(math.log10(9.0), 0.0, 0.0),
                              readout_curve=LogQuadraticCurve(0.0, 0.0, 0.0))
        assert contrast_at_delay(m, 1.0, 3.0) == pytest.approx(0.0110363832, abs=1e-9)

    def test_contrast_scale_invariance(self, model):
        # c/c0 depends only on t / tau_p
        for i_a, i_b in [(0.05, 1.0), (0.2, 3.0)]:
            tau_a = init_time(model, i_a) / 3
            tau_b = init_time(model, i_b) / 3
            for x in (0.3, 1.0, 2.5):
                ca = contrast_at_delay(model, i_a, x * tau_a) / model.c0
                cb = contrast_at_delay(model, i_b, x * tau_b) / model.c0
                assert ca == pytest.approx(cb, rel=1e-12)

    def test_negative_delay_rejected(self, model):
        with pytest.raises(DomainError):
            contrast_at_delay(model, 1.0, -0.5)

    @pytest.mark.parametrize("intensity", [0.01, 0.3, 1.0, 7.0])
    def test_contrast_array_matches_scalar_calls(self, model, intensity):
        rng = np.random.default_rng(round(intensity * 100))
        delays = rng.uniform(0.0, 3 * init_time(model, intensity), (4, 25))
        got = contrast_at_delay(model, intensity, delays)
        assert got.shape == delays.shape and got.dtype == np.float64
        want = np.array([[contrast_at_delay(model, intensity, float(t))
                          for t in row] for row in delays])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("delay", [0.0, 2.5, 3, np.float64(2.5)])
    def test_scalar_delay_returns_float(self, model, delay):
        assert type(contrast_at_delay(model, 1.0, delay)) is float

    def test_one_negative_element_rejected(self, model):
        delays = np.linspace(0.0, 10.0, 50)
        delays[17] = -1e-9
        with pytest.raises(DomainError, match="t_sweep must be >= 0"):
            contrast_at_delay(model, 1.0, delays)

    def test_nan_delay_rejected(self, model):
        with pytest.raises(DomainError, match="t_sweep must be >= 0, got nan"):
            contrast_at_delay(model, 1.0, math.nan)

    def test_one_nan_element_rejected(self, model):
        delays = np.linspace(0.0, 10.0, 50)
        delays[17] = math.nan
        with pytest.raises(DomainError, match="t_sweep must be >= 0, got nan"):
            contrast_at_delay(model, 1.0, delays)

    def test_infinite_delay_decays_to_zero(self, model):
        assert contrast_at_delay(model, 1.0, math.inf) == 0.0
        assert contrast_at_delay(model, 1.0, np.array([0.0, math.inf]))[1] == 0.0


class TestModelValidation:
    @pytest.mark.parametrize("kw", [dict(i_sat=0.0), dict(i_sat=-1.0),
                                    dict(r_max=0.0), dict(c0=0.0),
                                    dict(c0=1.0), dict(c0=-0.2)])
    def test_bad_scalars(self, kw):
        with pytest.raises(DomainError):
            PhotophysicsModel(**kw)

    def test_curve_coefficients_must_be_finite(self):
        with pytest.raises(DomainError):
            LogQuadraticCurve(math.nan, 0.0, 0.0)

    def test_inverted_validity_range(self):
        with pytest.raises(DomainError, match="invalid validity range"):
            PhotophysicsModel(valid_min=5, valid_max=1)

    def test_saturation_below_window_skips_domination_check(self):
        # readout slower than init everywhere: refused while i_sat lies
        # inside the window, accepted once no sample lies at or below it
        slow_readout = dict(init_curve=LogQuadraticCurve(0.0, 0.0, 0.0),
                            readout_curve=LogQuadraticCurve(1.0, 0.0, 0.0))
        with pytest.raises(DomainError, match="dominate"):
            PhotophysicsModel(**slow_readout)
        model = PhotophysicsModel(i_sat=0.0005, **slow_readout)
        assert model.i_sat < model.valid_min

    def test_crossing_between_log_samples_is_refused(self):
        # t_init / t_ro is least, 0.977, at I = 0.02839 mW/um^2, which lies
        # between the points of a 33-point log grid over [0.001, 1]
        with pytest.raises(DomainError, match=r"violated at I=0\.02839"):
            PhotophysicsModel(init_curve=LogQuadraticCurve(48.5464453125, 61.575, 20.0))

    @given(init=st.tuples(st.floats(-2, 2), st.floats(-3, 3), st.floats(-1, 1)),
           readout=st.tuples(st.floats(-2, 2), st.floats(-3, 3), st.floats(-1, 1)),
           i_sat=st.floats(0.01, 20))
    @settings(max_examples=300)
    def test_domination_check_matches_a_fine_grid(self, init, readout, i_sat):
        model_kw = dict(init_curve=LogQuadraticCurve(*init),
                        readout_curve=LogQuadraticCurve(*readout), i_sat=i_sat)
        x = np.linspace(math.log10(VALID_INTENSITY_MIN),
                        math.log10(min(i_sat, VALID_INTENSITY_MAX)), 10**4)
        da, db, dc = np.subtract(init, readout)
        least_ratio = (10.0 ** (da + db * x + dc * x * x)).min()
        if least_ratio < 0.999:
            with pytest.raises(DomainError, match="dominate"):
                PhotophysicsModel(**model_kw)
        elif least_ratio > 1.001:
            PhotophysicsModel(**model_kw)

    @pytest.mark.parametrize("intensity", [0.0, -1.0, math.nan, math.inf])
    def test_curve_at_nonpositive_intensity(self, intensity):
        with pytest.raises(DomainError, match="intensity must be finite and positive"):
            LogQuadraticCurve(0.7, -0.9, 0.1).duration(intensity)

    @pytest.mark.parametrize("intensity", [-1.0, math.nan])
    def test_flux_at_negative_or_nan_intensity(self, model, intensity):
        with pytest.raises(DomainError, match="intensity must be finite and >= 0"):
            photon_flux(model, intensity)

    @given(a=st.floats(-1, 2), b=st.floats(-1.5, 0),
           c=st.floats(0, 0.3), i=st.floats(0.001, 10))
    def test_admissible_curves_always_positive(self, a, b, c, i):
        assert LogQuadraticCurve(a, b, c).duration(i) > 0
