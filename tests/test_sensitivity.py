import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdmsim import (CONVENTIONAL, DomainError, LCQDM, LEIBOLD,
                    OutOfRangeError, PROTOCOLS, ProtocolParams,
                    RECURRENT_SNR_PREFACTOR, SensitivityResult, SweepSpec,
                    default_config_text, eta_paper, evaluate_point, init_time,
                    log_grid, parse_config, readout_time, sweep,
                    time_reduction_factor)
from qdmsim.sensitivity import CSV_HEADER


def make_params(t_init_ls=20.0, t_init_conf=20.0, t_ro=5.0, t_mw=100.0,
                t_d=0.1, t1=5000.0):
    return ProtocolParams(t_init_ls=t_init_ls, t_init_conf=t_init_conf,
                          t_ro_conf=t_ro, t_mw=t_mw, t_d=t_d, t1=t1)


# Values frozen from an independent 40-digit evaluation of the formulas.
ETA_LC_REFERENCE = 3.3413136104694
ETA_LEIBOLD_REFERENCE = 7.39808164735615
ETA_CONV_REFERENCE = 11.1848111293843


class TestFormulas:
    def test_prefactor_identity(self):
        assert abs(RECURRENT_SNR_PREFACTOR - 1.4621171573) <= 1e-10

    def test_lcqdm_reference_point(self):
        assert eta_paper(make_params(), LCQDM) == pytest.approx(
            ETA_LC_REFERENCE, rel=1e-12)
        # independent re-derivation
        expected = 2 / (1 + math.exp(-1)) * math.sqrt((20 + 100 + 5000) * 5.1 / 5000)
        assert eta_paper(make_params(), LCQDM) == pytest.approx(expected, rel=1e-12)

    def test_lcqdm_long_t1_asymptote(self):
        p = make_params(t_init_ls=20.0, t_mw=100.0, t1=1e12)
        asymptote = RECURRENT_SNR_PREFACTOR * math.sqrt(5.1)
        assert eta_paper(p, LCQDM) == pytest.approx(asymptote, rel=1e-9)
        assert asymptote == pytest.approx(3.30192543312623, rel=1e-12)

    def test_lcqdm_prefactor_collapse(self):
        # no overhead and a single slot exactly filling t1
        p = make_params(t_init_ls=0.0, t_mw=0.0, t_ro=40.0, t_d=0.0, t1=40.0)
        assert eta_paper(p, LCQDM) == pytest.approx(
            RECURRENT_SNR_PREFACTOR * math.sqrt(40.0), rel=1e-12)

    def test_leibold_reference_point(self):
        assert eta_paper(make_params(), LEIBOLD) == pytest.approx(
            ETA_LEIBOLD_REFERENCE, rel=1e-12)

    def test_leibold_low_intensity_regime(self):
        p = make_params(t_ro=22.1, t_init_conf=1242.0)
        assert eta_paper(p, LEIBOLD) == pytest.approx(52.5037293182941, rel=1e-12)

    def test_leibold_reduces_to_lcqdm(self):
        p = make_params(t_init_ls=0.0, t_init_conf=0.0)
        assert eta_paper(p, LEIBOLD) == pytest.approx(eta_paper(p, LCQDM), rel=1e-12)

    def test_conventional_reference_point(self):
        assert eta_paper(make_params(), CONVENTIONAL) == pytest.approx(
            ETA_CONV_REFERENCE, rel=1e-12)
        assert eta_paper(make_params(), CONVENTIONAL) == pytest.approx(
            math.sqrt(125.1), rel=1e-12)

    def test_conventional_degenerate(self):
        p = ProtocolParams(t_init_ls=0.0, t_init_conf=0.0, t_ro_conf=1e-12,
                           t_mw=1.0, t_d=0.0, t1=1.0)
        assert eta_paper(p, CONVENTIONAL) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("tag", ["Bogus", "Calibration", "lcqdm"])
    def test_unknown_tag_rejected(self, tag):
        with pytest.raises(DomainError, match=f"unknown protocol {tag!r}"):
            eta_paper(make_params(), tag)

    def test_conventional_long_mw(self):
        p = make_params(t_ro=5.0, t_init_conf=5.0, t_mw=1000.0)
        assert eta_paper(p, CONVENTIONAL) == pytest.approx(31.7820704171393, rel=1e-12)


class TestTimeReduction:
    def test_five_squares_to_twentyfive(self):
        assert time_reduction_factor(5.0) == 25.0

    def test_identity(self):
        assert time_reduction_factor(1.0) == 1.0
        assert time_reduction_factor(2.0) == 4.0

    def test_squared_ratio_is_time_ratio(self, rng):
        # at equal SNR the measurement time scales as eta**2
        for _ in range(1000):
            pa = make_params(t_init_ls=rng.uniform(0, 100),
                             t_init_conf=rng.uniform(1, 1300),
                             t_ro=rng.uniform(2, 25),
                             t_mw=rng.uniform(1, 1000),
                             t_d=0.1, t1=rng.uniform(1000, 10000))
            pb = make_params(t_mw=rng.uniform(1, 1000))
            ea, eb = eta_paper(pa, LCQDM), eta_paper(pb, CONVENTIONAL)
            t_a, t_b = ea * ea, eb * eb
            assert time_reduction_factor(ea / eb) * t_b == pytest.approx(
                t_a, rel=1e-12)


class TestFormulaProperties:
    @given(st.floats(0.1, 1000), st.floats(0.1, 1000), st.floats(0.5, 50),
           st.floats(0, 10), st.floats(100, 10000), st.floats(1, 64))
    @settings(max_examples=200)
    def test_scale_covariance(self, t_init_ls, t_mw, t_ro, t_d, t1, k):
        p = make_params(t_init_ls, t_init_ls / 2 + 1, t_ro, t_mw, t_d, t1)
        ps = make_params(k * p.t_init_ls, k * p.t_init_conf, k * p.t_ro_conf,
                         k * p.t_mw, k * p.t_d, k * p.t1)
        root_k = math.sqrt(k)
        for tag in PROTOCOLS:
            assert eta_paper(ps, tag) == pytest.approx(
                root_k * eta_paper(p, tag), rel=1e-9)

    def test_strictly_increasing_in_t_mw(self):
        grid = [1.0, 3.0, 10.0, 50.0, 300.0, 1000.0]
        for tag in PROTOCOLS:
            vals = [eta_paper(make_params(t_mw=t), tag) for t in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_ordering_theorem(self, rng):
        # equal init times and a readout slot shorter than t_mw + t1
        # guarantee the light-sheet protocol is at least as sensitive
        for _ in range(2000):
            t_init = rng.uniform(0, 2000)
            p = make_params(t_init_ls=t_init, t_init_conf=t_init,
                            t_ro=rng.uniform(1, 30), t_mw=rng.uniform(1, 1000),
                            t_d=rng.uniform(0, 0.5), t1=rng.uniform(100, 10000))
            if p.t_ro_conf + p.t_d <= p.t_mw + p.t1:
                assert eta_paper(p, LCQDM) <= eta_paper(p, LEIBOLD) * (1 + 1e-12)


class TestSweep:
    def test_single_cell_matches_direct_calls(self, model):
        spec = SweepSpec(i_conf_grid=(1.0,), t_mw_grid=(100.0,), i_ls=0.2,
                         model=model, t1=5000.0, t_d=0.1)
        grid = sweep(spec)
        p = make_params(t_init_ls=init_time(model, 0.2),
                        t_init_conf=init_time(model, 1.0),
                        t_ro=readout_time(model, 1.0))
        cells = (grid.eta_lcqdm, grid.eta_leibold, grid.eta_conventional)
        for tag, cell in zip(PROTOCOLS, cells, strict=True):
            assert cell[0, 0] == eta_paper(p, tag)

    def test_reference_cell_ratio(self, model):
        cell = evaluate_point(model, 1.0, 1000.0, 0.2, 5000.0, 0.1)
        # frozen from the 40-digit oracle
        assert cell.eta_lcqdm == pytest.approx(3.62848321006, rel=1e-11)
        assert cell.eta_conventional == pytest.approx(31.7824439695, rel=1e-11)
        assert cell.ratio_conv_over_lc == pytest.approx(8.75915420563, rel=1e-11)

    def test_ratios_consistent(self, model):
        cell = evaluate_point(model, 0.5, 30.0, 0.2, 5000.0, 0.1)
        assert cell.ratio_leibold_over_lc == pytest.approx(
            cell.eta_leibold / cell.eta_lcqdm, rel=1e-12)
        assert cell.ratio_conv_over_lc == pytest.approx(
            cell.eta_conventional / cell.eta_lcqdm, rel=1e-12)

    def test_invalid_cells_recorded_not_fatal(self, model):
        spec = SweepSpec(i_conf_grid=(0.5, 1.0, 12.0), t_mw_grid=(10.0,),
                         i_ls=0.2, model=model, t1=5000.0, t_d=0.1)
        grid = sweep(spec)
        assert grid.valid[0, 0]
        assert grid.valid[0, 1]
        assert not grid.valid[0, 2]
        assert all(np.isnan(a[0, 2]) for a in (
            grid.eta_lcqdm, grid.eta_leibold, grid.eta_conventional,
            grid.ratio_leibold_over_lc, grid.ratio_conv_over_lc))
        assert grid.n_valid == 2
        assert grid.cell_errors[0][:2] == (0, 2)

    def test_out_of_range_i_ls_rejected(self, model):
        with pytest.raises(DomainError):
            SweepSpec(i_conf_grid=(1.0,), t_mw_grid=(10.0,), i_ls=100.0,
                      model=model, t1=5000.0, t_d=0.1)

    @pytest.mark.parametrize("overrides, message", [
        (dict(i_conf_grid=()), "i_conf_grid must be non-empty"),
        (dict(t_mw_grid=()), "t_mw_grid must be non-empty"),
        (dict(t_mw_grid=(10.0, math.inf)), "t_mw_grid must be finite"),
        (dict(t1=math.inf), "t1 must be finite and positive"),
        (dict(t_d=-1.0), "t_d must be finite and >= 0"),
    ])
    def test_spec_refusals(self, model, overrides, message):
        fields = dict(i_conf_grid=(1.0,), t_mw_grid=(10.0,), i_ls=0.2,
                      model=model, t1=5000.0, t_d=0.1)
        with pytest.raises(DomainError, match=message):
            SweepSpec(**{**fields, **overrides})

    def test_unknown_ratio_map(self, model):
        spec = SweepSpec(i_conf_grid=(1.0,), t_mw_grid=(10.0,), i_ls=0.2,
                         model=model, t1=5000.0, t_d=0.1)
        with pytest.raises(DomainError, match="unknown ratio map 'bogus'"):
            sweep(spec).to_pgm("bogus")

    def test_grid_must_increase(self, model):
        with pytest.raises(DomainError):
            SweepSpec(i_conf_grid=(1.0, 1.0), t_mw_grid=(10.0,), i_ls=0.2,
                      model=model, t1=5000.0, t_d=0.1)

    def test_csv_shape_and_header(self, model):
        spec = SweepSpec(i_conf_grid=log_grid(0.01, 1.0, 4),
                         t_mw_grid=log_grid(1.0, 100.0, 3), i_ls=0.2,
                         model=model, t1=5000.0, t_d=0.1)
        text = sweep(spec).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 12
        assert all(ln.endswith(",1") for ln in lines[1:])

    def test_pgm_header(self, model):
        spec = SweepSpec(i_conf_grid=log_grid(0.01, 1.0, 5),
                         t_mw_grid=log_grid(1.0, 100.0, 4), i_ls=0.2,
                         model=model, t1=5000.0, t_d=0.1)
        pgm = sweep(spec).to_pgm("conv_lc").split("\n")
        assert pgm[0] == "P2"
        assert pgm[1] == "5 4"
        assert pgm[2] == "255"
        assert len(pgm[3].split()) == 5

    def test_sweep_deterministic(self, model):
        spec = SweepSpec(i_conf_grid=log_grid(0.01, 5.0, 7),
                         t_mw_grid=log_grid(1.0, 1000.0, 7), i_ls=0.2,
                         model=model, t1=5000.0, t_d=0.1)
        assert sweep(spec).to_csv() == sweep(spec).to_csv()


def _sweep_spec(p_conf_max):
    text = default_config_text().replace("p_conf_max = 2 mW",
                                         f"p_conf_max = {p_conf_max}")
    return parse_config(text).sweep_spec()


def _reference_csv(spec):
    """sweep.csv rebuilt cell by cell from evaluate_point."""
    lines = [CSV_HEADER]
    for t_mw in spec.t_mw_grid:
        for i_conf in spec.i_conf_grid:
            try:
                cell = evaluate_point(spec.model, i_conf, t_mw, spec.i_ls,
                                      spec.t1, spec.t_d)
            except OutOfRangeError:
                fields = [i_conf, t_mw] + ["nan"] * 5 + ["0"]
            else:
                fields = [i_conf, t_mw, cell.eta_lcqdm, cell.eta_leibold,
                          cell.eta_conventional, cell.ratio_leibold_over_lc,
                          cell.ratio_conv_over_lc, "1"]
            lines.append(",".join(
                f if isinstance(f, str) else str(float(f)) for f in fields))
    return "\n".join(lines) + "\n"


def _reference_pgm(spec, which):
    """P2 map rebuilt cell by cell with math.log10 and Python rounding."""
    logs = []
    for t_mw in spec.t_mw_grid:
        row = []
        for i_conf in spec.i_conf_grid:
            try:
                cell = evaluate_point(spec.model, i_conf, t_mw, spec.i_ls,
                                      spec.t1, spec.t_d)
            except OutOfRangeError:
                row.append(None)
                continue
            ratio = (cell.ratio_conv_over_lc if which == "conv_lc"
                     else cell.ratio_leibold_over_lc)
            row.append(math.log10(ratio))
        logs.append(row)
    finite = [v for row in logs for v in row if v is not None]
    lo, hi = min(finite), max(finite)
    scale = 255.0 / (hi - lo)
    rows = [" ".join("0" if v is None else str(int(round((v - lo) * scale)))
                     for v in row) for row in logs]
    return (f"P2\n{len(spec.i_conf_grid)} {len(spec.t_mw_grid)}\n255\n"
            + "\n".join(rows) + "\n")


class TestSweepMatchesPerCellReference:
    # 3.5 mW puts the top intensities past the model validity window
    @pytest.mark.parametrize("p_conf_max, n_invalid", [("2 mW", 0),
                                                       ("3.5 mW", 122)])
    def test_csv_text(self, p_conf_max, n_invalid):
        spec = _sweep_spec(p_conf_max)
        text = sweep(spec).to_csv()
        assert text == _reference_csv(spec)
        assert sum(ln.endswith(",0") for ln in text.splitlines()) == n_invalid
        if n_invalid:
            assert ",nan,nan,nan,nan,nan,0\n" in text

    @pytest.mark.parametrize("p_conf_max", ["2 mW", "3.5 mW"])
    @pytest.mark.parametrize("which", ["conv_lc", "leibold_lc"])
    def test_pgm_text(self, p_conf_max, which):
        spec = _sweep_spec(p_conf_max)
        assert sweep(spec).to_pgm(which) == _reference_pgm(spec, which)


class TestLogGrid:
    def test_endpoints_and_spacing(self):
        g = log_grid(0.01, 100.0, 5)
        assert g[0] == pytest.approx(0.01, rel=1e-12)
        assert g[-1] == pytest.approx(100.0, rel=1e-12)
        assert g[2] == pytest.approx(1.0, rel=1e-12)

    def test_single_point(self):
        assert log_grid(0.5, 2.0, 1) == (0.5,)

    def test_rejects_bad_bounds(self):
        with pytest.raises(DomainError):
            log_grid(1.0, 0.5, 4)


def test_result_requires_positive_etas():
    with pytest.raises(DomainError):
        SensitivityResult(-1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        SensitivityResult(math.nan, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        SensitivityResult(1.0, 1.0, math.nan, 1.0, 1.0)
