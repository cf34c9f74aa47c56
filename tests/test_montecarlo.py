import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import qdmsim.montecarlo

from qdmsim import (CALIBRATION, CONVENTIONAL, DomainError, LCQDM, LEIBOLD,
                    ProtocolParams, SimConfig, build_leibold_cycle,
                    contrast_at_delay, end_to_end_pipeline, eta_exact,
                    eta_paper, extract_init_time, init_time, photon_flux,
                    readout_time, simulate_calibration, simulate_protocol)
from qdmsim.montecarlo import CALIBRATION_BIN_US, TRIAL_BLOCK
from qdmsim.sensitivity import readout_decay_sum
from qdmsim.sequence import (EVENT_KINDS, MW_BLOCK, READOUT_WINDOW,
                             cycle_layout)

# The acceptance-criterion-5 spots: (protocol, I_conf mW/um^2, t_mw us).
CRITERION_5_SPOTS = [
    (LCQDM, 1.0, 100.0),
    (LCQDM, 0.0712, 1000.0),
    (LEIBOLD, 1.0, 100.0),
    (LEIBOLD, 0.1, 10.0),
    (CONVENTIONAL, 7.1199715201139185, 1000.0),
]


def params_at(model, i_conf, t_mw=100.0, i_ls=0.2, t1=5000.0, t_d=0.1):
    return ProtocolParams(t_init_ls=init_time(model, i_ls),
                          t_init_conf=init_time(model, i_conf),
                          t_ro_conf=readout_time(model, i_conf),
                          t_mw=t_mw, t_d=t_d, t1=t1)


def sim_config(model, i_conf, n_trials, seed=11, **kw):
    return SimConfig(params=params_at(model, i_conf, **kw), model=model,
                     i_conf=i_conf, n_trials=n_trials, master_seed=seed)


def block_stream_estimates(cfg, tag, noiseless, amplitude):
    """Per-trial estimates rebuilt from the documented block-stream contract:
    block b draws its reference totals, then its signal totals, from
    PCG64(SeedSequence((master_seed, b)))."""
    n_windows, _, slot = cycle_layout(tag, cfg.params)
    mu = photon_flux(cfg.model, cfg.i_conf) * cfg.params.t_ro_conf
    encoded = cfg.model.c0 * amplitude * readout_decay_sum(
        n_windows, slot, cfg.params.t1)
    lam_ref, lam_sig = n_windows * mu, mu * (n_windows - encoded)
    n = cfg.n_trials
    if noiseless:
        return np.full(n, encoded / n_windows)
    parts = []
    for block in range(-(-n // TRIAL_BLOCK)):
        size = min(TRIAL_BLOCK, n - block * TRIAL_BLOCK)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((cfg.master_seed, block))))
        ref = rng.poisson(lam_ref, size)
        parts.append((ref - rng.poisson(lam_sig, size)) / lam_ref)
    return np.concatenate(parts)


def reference_trial_etas(estimates, t_per_voxel, c0):
    """The per-trial generator simulate_protocol used before it divided the
    whole array at once; it yields numpy float64 scalars."""
    with np.errstate(divide="ignore"):
        return [(math.sqrt(t_per_voxel) * c0 / e if e != 0 else math.inf)
                for e in estimates]


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, model):
        cfg = sim_config(model, 1.0, 500)
        assert simulate_protocol(cfg, LCQDM) == simulate_protocol(cfg, LCQDM)

    def test_different_seed_differs(self, model):
        a = simulate_protocol(sim_config(model, 1.0, 500, seed=1), LCQDM)
        b = simulate_protocol(sim_config(model, 1.0, 500, seed=2), LCQDM)
        assert a.eta_empirical != b.eta_empirical

    def test_full_blocks_are_a_prefix_of_a_longer_run(self, model):
        full, longer = [], []
        simulate_protocol(sim_config(model, 1.0, 2 * TRIAL_BLOCK), LCQDM,
                          trial_etas_out=full)
        simulate_protocol(sim_config(model, 1.0, 2 * TRIAL_BLOCK + 3), LCQDM,
                          trial_etas_out=longer)
        assert longer[:2 * TRIAL_BLOCK] == full
        # each block draws from its own stream
        assert longer[:3] != longer[TRIAL_BLOCK:TRIAL_BLOCK + 3]
        assert longer[:3] != longer[2 * TRIAL_BLOCK:]

    def test_single_trial_reproducible(self, model):
        cfg = sim_config(model, 1.0, 1)
        a = simulate_protocol(cfg, CONVENTIONAL)
        b = simulate_protocol(cfg, CONVENTIONAL)
        assert a == b
        # stderr unavailable is reported, not fatal
        assert a.signal_stderr == 0.0
        assert "n_trials too small to estimate a standard error" in a.warnings
        assert a.eta_stderr == (0.0 if a.signal_mean > 0 else math.inf)


class TestNoiselessClosedForm:
    def test_lcqdm_matches_independent_accounting(self, model):
        cfg = sim_config(model, 1.0, 3)
        out = simulate_protocol(cfg, LCQDM, noiseless=True)
        p = cfg.params
        # independent accounting of the cycle and the unweighted decay mean
        n = cycle_layout(LCQDM, p)[0]
        slot = p.t_ro_conf + p.t_d
        span = p.t_init_ls + p.t_mw + n * slot
        s = np.exp(-(np.arange(n) * slot) / p.t1)
        expected = math.sqrt(span / n) / np.mean(s)
        assert out.eta_empirical == pytest.approx(expected, rel=1e-6)
        assert out.readouts_per_cycle == n
        assert out.cycle_time == pytest.approx(span, rel=1e-12)

    def test_lcqdm_frozen_value(self, model):
        # frozen from a 40-digit evaluation of the same accounting
        out = simulate_protocol(sim_config(model, 1.0, 1), LCQDM, noiseless=True)
        assert out.eta_empirical == pytest.approx(3.61877483845, rel=1e-9)

    def test_conventional_noiseless_equals_analytic(self, model):
        cfg = sim_config(model, 1.0, 1)
        out = simulate_protocol(cfg, CONVENTIONAL, noiseless=True)
        # single readout at zero delay: no decay, no approximation gap
        assert out.eta_empirical == pytest.approx(
            eta_paper(cfg.params, CONVENTIONAL), rel=1e-12)

    def test_leibold_systematic_gap_under_8pct(self, model):
        cfg = sim_config(model, 1.0, 1)
        out = simulate_protocol(cfg, LEIBOLD, noiseless=True)
        paper = eta_paper(cfg.params, LEIBOLD)
        gap = abs(out.eta_empirical - paper) / paper
        assert gap < 0.09


class TestExactOracle:
    def test_lcqdm_frozen_value(self, model):
        # 40-digit mpmath sum over the 978 readouts of this cycle
        assert eta_exact(params_at(model, 1.0), LCQDM) == pytest.approx(
            3.61877483845, rel=1e-9)

    @pytest.mark.parametrize("protocol,i_conf,t_mw", CRITERION_5_SPOTS)
    def test_closed_form_matches_window_sum(self, model, protocol, i_conf, t_mw):
        p = params_at(model, i_conf, t_mw=t_mw)
        n, overhead, slot = cycle_layout(protocol, p)
        s = np.exp(-(np.arange(n) * slot) / p.t1)
        direct = math.sqrt((overhead + n * slot) / n) / np.mean(s)
        assert eta_exact(p, protocol) == pytest.approx(direct, rel=1e-12)
        out = simulate_protocol(sim_config(model, i_conf, 1, t_mw=t_mw),
                                protocol, noiseless=True)
        assert out.eta_empirical == pytest.approx(eta_exact(p, protocol),
                                                  rel=1e-12)

    @pytest.mark.parametrize("protocol,i_conf,t_mw", CRITERION_5_SPOTS)
    def test_monte_carlo_within_four_sigma(self, model, protocol, i_conf, t_mw):
        cfg = sim_config(model, i_conf, 100_000, seed=417, t_mw=t_mw)
        out = simulate_protocol(cfg, protocol)
        exact = eta_exact(cfg.params, protocol)
        assert abs(out.eta_empirical - exact) <= 4 * out.eta_stderr

    def test_paper_prefactor_gap(self, model):
        # readouts filling t1 with no overhead: the mean amplitude is 1 - 1/e,
        # the paper's prefactor uses the endpoint average (1 + 1/e) / 2
        p = ProtocolParams(t_init_ls=0.0, t_init_conf=0.0, t_ro_conf=1e-3,
                           t_mw=0.0, t_d=0.0, t1=1000.0)
        gap = (1 + math.exp(-1)) / (2 * (1 - math.exp(-1)))
        assert gap == pytest.approx(1.0820, abs=5e-5)
        for protocol in (LCQDM, LEIBOLD):
            assert eta_exact(p, protocol) / eta_paper(p, protocol) == pytest.approx(
                gap, rel=1e-5)
        assert eta_exact(p, CONVENTIONAL) == pytest.approx(
            eta_paper(p, CONVENTIONAL), rel=1e-12)


def reference_estimates(cfg, n_trials, seed):
    """Per-window sampler: 2W Poisson draws per trial, unweighted mean of
    (ref - sig) / mu, with the delays read off the built Leibold timeline."""
    p, model = cfg.params, cfg.model
    seq = build_leibold_cycle(p)
    mw_end = (seq.start + seq.duration)[seq.kind == EVENT_KINDS.index(MW_BLOCK)].max()
    window_start = seq.start[seq.kind == EVENT_KINDS.index(READOUT_WINDOW)]
    s = np.exp(-(window_start - mw_end) / p.t1)
    mu = photon_flux(model, cfg.i_conf) * p.t_ro_conf
    rng = np.random.default_rng(seed)
    ref = rng.poisson(mu, (n_trials, s.size))
    sig = rng.poisson(mu * (1.0 - model.c0 * s), (n_trials, s.size))
    return (ref - sig).mean(axis=1) / mu, s, mu


class TestSufficientStatistics:
    def test_matches_per_window_sampler_at_small_w(self, model):
        n = 20_000
        cfg = sim_config(model, 0.1, n, seed=5)
        out = simulate_protocol(cfg, LEIBOLD)
        ref, s, mu = reference_estimates(cfg, n, seed=6)
        w = s.size
        assert w == out.readouts_per_cycle == 83
        c0 = model.c0
        exact_mean = c0 * np.mean(s)
        exact_var = np.sum(2.0 - c0 * s) / (w * w * mu)
        new_var = out.signal_stderr ** 2 * n
        ref_var = np.var(ref, ddof=1)
        se_mean = math.sqrt(exact_var / n)
        se_var = exact_var * math.sqrt(2.0 / (n - 1))
        assert abs(out.signal_mean - exact_mean) <= 4 * se_mean
        assert abs(np.mean(ref) - exact_mean) <= 4 * se_mean
        assert abs(out.signal_mean - np.mean(ref)) <= 4 * math.sqrt(2) * se_mean
        assert abs(new_var - exact_var) <= 4 * se_var
        assert abs(ref_var - exact_var) <= 4 * se_var
        assert abs(new_var - ref_var) <= 4 * math.sqrt(2) * se_var

    def test_billion_windows_without_per_window_arrays(self, model):
        p = ProtocolParams(t_init_ls=1.0, t_init_conf=1.0, t_ro_conf=1e-3,
                           t_mw=10.0, t_d=0.0, t1=1e6)
        cfg = SimConfig(params=p, model=model, i_conf=1.0, n_trials=200,
                        master_seed=3)
        tracemalloc.start()
        try:
            out = simulate_protocol(cfg, LCQDM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.readouts_per_cycle == cycle_layout(LCQDM, p)[0] >= 999_999_999
        assert peak < 1 << 20
        assert abs(out.eta_empirical - eta_exact(p, LCQDM)) <= 4 * out.eta_stderr

    def test_photon_total_beyond_sampler_range_is_domain_error(self, model):
        p = ProtocolParams(t_init_ls=1.0, t_init_conf=1.0, t_ro_conf=1e-3,
                           t_mw=10.0, t_d=0.0, t1=1e20)
        cfg = SimConfig(params=p, model=model, i_conf=1.0, n_trials=2,
                        master_seed=3)
        with pytest.raises(DomainError, match="Poisson"):
            simulate_protocol(cfg, LCQDM)


class TestConsistencyWithSequence:
    def test_readout_counts(self, model):
        for i_conf in (0.05, 0.5, 2.0):
            cfg = sim_config(model, i_conf, 1)
            lc = simulate_protocol(cfg, LCQDM, noiseless=True)
            lb = simulate_protocol(cfg, LEIBOLD, noiseless=True)
            cv = simulate_protocol(cfg, CONVENTIONAL, noiseless=True)
            assert lc.readouts_per_cycle == cycle_layout(LCQDM, cfg.params)[0]
            assert lb.readouts_per_cycle == cycle_layout(LEIBOLD, cfg.params)[0]
            assert cv.readouts_per_cycle == 1


class TestAnalyticAgreement:
    @pytest.mark.parametrize("protocol,i_conf", [
        (LCQDM, 1.0), (LEIBOLD, 0.1), (CONVENTIONAL, 1.0)])
    def test_within_fifteen_percent(self, model, protocol, i_conf):
        cfg = sim_config(model, i_conf, 4000)
        out = simulate_protocol(cfg, protocol)
        analytic = eta_paper(cfg.params, protocol)
        assert abs(out.eta_empirical - analytic) / analytic <= 0.15

    def test_stderr_shrinks_with_trials(self, model):
        cfg_a = sim_config(model, 1.0, 400)
        cfg_b = sim_config(model, 1.0, 6400)
        se_a = simulate_protocol(cfg_a, LCQDM).eta_stderr
        se_b = simulate_protocol(cfg_b, LCQDM).eta_stderr
        assert se_b < se_a
        assert se_a / se_b == pytest.approx(4.0, rel=0.35)


class TestNullSignal:
    def test_zero_amplitude_consistent_with_zero(self, model):
        means = []
        for seed in range(24):
            cfg = sim_config(model, 1.0, 200, seed=seed)
            out = simulate_protocol(cfg, LCQDM, signal_amplitude=0.0)
            means.append(out.signal_mean)
        assert stats.ttest_1samp(means, 0.0).pvalue > 0.01

    def test_zero_amplitude_eta_degrades(self, model):
        cfg = sim_config(model, 1.0, 50)
        out = simulate_protocol(cfg, LCQDM, signal_amplitude=0.0)
        # estimate consistent with zero, so eta is unusable: non-finite
        # (negative estimate) or far above the signal-present value
        assert abs(out.signal_mean) <= 5 * out.signal_stderr
        assert (not math.isfinite(out.eta_empirical)
                or out.eta_empirical > 5 * eta_paper(cfg.params, LCQDM))


def reference_calibration(model, intensity, grid, shots, seed, noiseless):
    """simulate_calibration with one scalar contrast_at_delay call per delay
    point, where the package makes one call per trace."""
    grid = np.asarray(grid, dtype=float)
    flux = photon_flux(model, intensity)
    decay = np.array([contrast_at_delay(model, intensity, t) for t in grid])
    sig_rate = flux * (1.0 - decay)
    ref_rate = np.full_like(sig_rate, flux)
    if not noiseless:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        window = shots * CALIBRATION_BIN_US
        sig_rate = rng.poisson(sig_rate * window) / window
        ref_rate = rng.poisson(ref_rate * window) / window
    return grid, sig_rate, ref_rate


class TestSimulateCalibration:
    @pytest.mark.parametrize("noiseless", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_per_point_reference(self, model, seed, noiseless):
        rng = np.random.default_rng(seed)
        intensity = float(10.0 ** rng.uniform(-2.0, 0.9))
        t_max = 1.25 * init_time(model, intensity) * rng.uniform(0.5, 2.0)
        grid = np.sort(rng.uniform(0.0, t_max, 300))
        grid[0] = 0.0
        trace = simulate_calibration(model, intensity, grid, 50, seed=seed,
                                     noiseless=noiseless)
        want = reference_calibration(model, intensity, grid, 50, seed, noiseless)
        for got, ref in zip((trace.t_sweep, trace.sig_pl, trace.ref_pl), want):
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()

    def test_one_decay_evaluation_per_trace(self, model, monkeypatch):
        # The traced benchmark counts curve evaluations at this binding, so
        # each trace must reach it exactly once.
        calls = []

        def counting(*args):
            calls.append(args)
            return contrast_at_delay(*args)

        monkeypatch.setattr(qdmsim.montecarlo, "contrast_at_delay", counting)
        grid = np.linspace(0.0, 12.0, 400)
        for noiseless in (True, False):
            simulate_calibration(model, 1.0, grid, 64, seed=5, noiseless=noiseless)
        assert len(calls) == 2
        intensities = (0.1, 1.0, 3.0)
        grids = [np.linspace(0.0, 1.4 * init_time(model, i), 400) for i in intensities]
        end_to_end_pipeline(model, intensities, grids, 64, 7, noiseless=True)
        assert len(calls) == 5

    def test_noiseless_recovers_contrast_model(self, model):
        grid = np.linspace(0.0, 10.0, 101)
        trace = simulate_calibration(model, 1.0, grid, 1, seed=3, noiseless=True)
        for t, c, ref in zip(trace.t_sweep, trace.contrast_series(), trace.ref_pl):
            assert c == pytest.approx(contrast_at_delay(model, 1.0, t), rel=1e-12)
            assert ref == pytest.approx(photon_flux(model, 1.0), rel=1e-12)

    def test_roundtrip_through_extraction(self, model):
        t_init = init_time(model, 1.0)
        grid = np.linspace(0.0, 1.4 * t_init, 800)
        trace = simulate_calibration(model, 1.0, grid, 1, seed=3, noiseless=True)
        step = grid[1] - grid[0]
        assert extract_init_time(trace) == pytest.approx(t_init, abs=step)

    def test_seeded_trace_reproducible(self, model):
        grid = np.linspace(0.0, 8.0, 50)
        a = simulate_calibration(model, 1.0, grid, 64, seed=5)
        b = simulate_calibration(model, 1.0, grid, 64, seed=5)
        assert np.array_equal(a.sig_pl, b.sig_pl)
        assert np.array_equal(a.ref_pl, b.ref_pl)
        c = simulate_calibration(model, 1.0, grid, 64, seed=6)
        assert not np.array_equal(a.sig_pl, c.sig_pl)

    def test_noisy_trace_converges_to_model(self, model):
        grid = np.linspace(0.0, 6.0, 25)
        trace = simulate_calibration(model, 1.0, grid, 50000, seed=5)
        for t, c in zip(trace.t_sweep, trace.contrast_series()):
            assert c == pytest.approx(contrast_at_delay(model, 1.0, t), abs=0.004)

    def test_bad_grid_rejected(self, model):
        with pytest.raises(DomainError):
            simulate_calibration(model, 1.0, [3.0, 2.0], 1, seed=0)
        with pytest.raises(DomainError):
            simulate_calibration(model, 1.0, [], 1, seed=0)
        with pytest.raises(DomainError):
            simulate_calibration(model, 1.0, [0.0, 1.0], 0, seed=0)

    @pytest.mark.parametrize("noiseless", [True, False])
    def test_nan_delay_rejected(self, model, noiseless):
        # nan slips past the ordering checks, so the decay refuses it
        with pytest.raises(DomainError, match="t_sweep must be >= 0, got nan"):
            simulate_calibration(model, 1.0, [0.0, math.nan, 2.0], 64, seed=0,
                                 noiseless=noiseless)


class TestEndToEndPipeline:
    INTENSITIES = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0)

    def grids_for(self, model):
        return [np.linspace(0.0, 1.25 * init_time(model, i), 1500)
                for i in self.INTENSITIES]

    def test_noiseless_recovers_init_curve(self, model):
        result = end_to_end_pipeline(model, self.INTENSITIES,
                                     self.grids_for(model), 1, 99,
                                     noiseless=True)
        assert result.init_curve.a == pytest.approx(0.7, abs=0.02)
        assert result.init_curve.b == pytest.approx(-0.9, abs=0.02)
        assert result.init_curve.c == pytest.approx(0.1, abs=0.02)

    def test_readout_curve_follows_objective_optimum(self, model):
        # the synthetic contrast model ties the extracted readout time to
        # x* * tau_p, i.e. the init curve shifted down by log10(3 / x*)
        x_star = 1.25643120862617
        result = end_to_end_pipeline(model, self.INTENSITIES,
                                     self.grids_for(model), 1, 99,
                                     noiseless=True)
        assert result.readout_curve.a == pytest.approx(
            0.7 + math.log10(x_star / 3.0), abs=0.02)
        assert result.readout_curve.b == pytest.approx(-0.9, abs=0.02)
        assert result.readout_curve.c == pytest.approx(0.1, abs=0.02)
        for intensity, t_ro, t_init in result.samples:
            assert t_ro == pytest.approx(
                x_star / 3.0 * init_time(model, intensity), rel=0.01)
            assert t_init == pytest.approx(init_time(model, intensity), rel=0.01)

    def test_single_intensity_underdetermined(self, model):
        with pytest.raises(DomainError):
            end_to_end_pipeline(model, [1.0],
                                [np.linspace(0, 10, 200)], 1, 99,
                                noiseless=True)

    def test_seeded_pipeline_reproducible(self, model):
        intensities = (0.1, 0.3, 1.0)
        grids = [np.linspace(0.0, 1.25 * init_time(model, i), 400)
                 for i in intensities]
        a = end_to_end_pipeline(model, intensities, grids, 200, 42)
        b = end_to_end_pipeline(model, intensities, grids, 200, 42)
        assert a == b

    def test_mismatched_grids_rejected(self, model):
        with pytest.raises(DomainError):
            end_to_end_pipeline(model, (0.1, 1.0), [np.linspace(0, 5, 10)],
                                1, 0, noiseless=True)


class TestConfigValidation:
    def test_n_trials_positive(self, model):
        with pytest.raises(DomainError):
            SimConfig(params=params_at(model, 1.0), model=model, i_conf=1.0,
                      n_trials=0, master_seed=0)

    @pytest.mark.parametrize("noiseless", [False, True])
    def test_zero_readout_intensity(self, model, noiseless):
        cfg = SimConfig(params=params_at(model, 1.0), model=model, i_conf=0.0,
                        n_trials=10, master_seed=0)
        with pytest.raises(DomainError,
                           match="expected photon count per window is zero"):
            simulate_protocol(cfg, LCQDM, noiseless=noiseless)

    def test_unknown_protocol(self, model):
        # a calibration sequence has a PulseSequence tag but is no protocol
        for tag in ("Bogus", CALIBRATION):
            with pytest.raises(DomainError, match="unknown protocol"):
                simulate_protocol(sim_config(model, 1.0, 10), tag)

    @pytest.mark.parametrize("amplitude, noiseless", [
        (1.0, False), (1.0, True), (0.0, False), (0.0, True), (-0.0, False),
        (0.3, True)])
    def test_trial_etas_are_plain_floats(self, model, amplitude, noiseless):
        # at 1e-3 mW/um^2 about one photon reaches a window, so many noisy
        # estimates are exactly zero
        cfg = sim_config(model, 1e-3, 2 * TRIAL_BLOCK + 5)
        dump = []
        out = simulate_protocol(cfg, CONVENTIONAL, noiseless=noiseless,
                                signal_amplitude=amplitude, trial_etas_out=dump)
        assert all(type(eta) is float for eta in dump)
        estimates = block_stream_estimates(cfg, CONVENTIONAL, noiseless,
                                           amplitude)
        assert out.signal_mean == float(np.mean(estimates))
        expected = reference_trial_etas(
            estimates, out.cycle_time / out.readouts_per_cycle, cfg.model.c0)
        assert [e.hex() for e in dump] == [float(e).hex() for e in expected]
        if amplitude == 0.0:
            assert math.inf in dump

    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 2 * TRIAL_BLOCK + 5])
    @pytest.mark.parametrize("amplitude, noiseless", [
        (1.0, False), (1.0, True), (0.0, False), (0.0, True)])
    @pytest.mark.parametrize("protocol", [LCQDM, LEIBOLD, CONVENTIONAL])
    def test_signal_moments_are_numpys(self, model, protocol, amplitude,
                                       noiseless, n):
        # bitwise the values np.mean and np.std(ddof=1) give
        cfg = sim_config(model, 1.0, n)
        out = simulate_protocol(cfg, protocol, noiseless=noiseless,
                                signal_amplitude=amplitude)
        estimates = block_stream_estimates(cfg, protocol, noiseless, amplitude)
        assert out.signal_mean.hex() == float(np.mean(estimates)).hex()
        if n == 1:
            assert out.signal_stderr == 0.0
            assert "n_trials too small" in out.warnings[0]
        else:
            expected = float(np.std(estimates, ddof=1) / math.sqrt(n))
            assert out.signal_stderr.hex() == expected.hex()

    # The model's c0 is 0.03, so 40 asks for a negative signal rate in the
    # first window; -1e30 asks for more signal photons than Poisson draws.
    @pytest.mark.parametrize("noiseless", [False, True])
    @pytest.mark.parametrize("protocol", [LCQDM, CONVENTIONAL])
    @pytest.mark.parametrize("amplitude", [
        math.nan, math.inf, -math.inf, 1e30, -1e30, 40.0])
    def test_bad_signal_amplitude_rejected(self, model, amplitude, protocol,
                                           noiseless):
        with pytest.raises(DomainError, match="signal"):
            simulate_protocol(sim_config(model, 1.0, 10), protocol,
                              noiseless=noiseless, signal_amplitude=amplitude)

    def test_trial_eta_dump(self, model):
        cfg = sim_config(model, 1.0, 25)
        dump = []
        out = simulate_protocol(cfg, LCQDM, trial_etas_out=dump)
        assert len(dump) == 25
        assert np.median(dump) == pytest.approx(out.eta_empirical, rel=0.2)
