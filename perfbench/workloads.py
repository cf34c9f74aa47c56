"""The benchmark's three workloads: seeded inputs, one timed pass, oracle checks.

Each workload has the same shape.  prepare(index) makes the inputs of one
pass from (seed, index) and is not timed; run(inputs) is the timed pass,
the same size every time; check(inputs, outputs) compares what the
program produced with oracle.py and raises oracle.CheckError on the first
disagreement.  check returns a dict of figures worth keeping (z-scores,
measured ratios) for the run's results file.

The workloads call the package through module attributes
(qdmsim.montecarlo.simulate_protocol, qdmsim.cli.main, ...), so the traced
run can wrap those functions without touching the package.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qdmsim.calibration
import qdmsim.cli
import qdmsim.config
import qdmsim.montecarlo
import qdmsim.photophysics
import qdmsim.sequence

import inputs
import oracle
from oracle import CONVENTIONAL, LCQDM, LEIBOLD, CheckError

B = inputs.BASE
INIT = (B["init_a"], B["init_b"], B["init_c"])
READOUT = (B["readout_a"], B["readout_b"], B["readout_c"])
REL = 1e-12   # float results recomputed here agree to a few ulps


class OperationFailed(RuntimeError):
    """The program reported an error for a pass (non-zero CLI exit)."""


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = qdmsim.cli.main(argv)
    if code != 0:
        raise OperationFailed(f"qdmsim {' '.join(argv)} exited {code}")


def _kv(data: bytes) -> dict[str, str]:
    """key = value lines of a CLI report; repeated keys keep the last value."""
    return dict(line.split(" = ", 1) for line in data.decode().splitlines())


def _table(data: bytes, header: str) -> np.ndarray:
    text = data.decode()
    first, _, body = text.partition("\n")
    if first != header:
        raise CheckError(f"CSV header {first!r}, want {header!r}")
    return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def _seeds(*entropy: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(list(entropy)).generate_state(n)]


def _timing(i_conf: float, i_ls: float, t_mw: float, t_d: float, t1: float
            ) -> oracle.Timing:
    return oracle.Timing(
        t_init_ls=oracle.duration(INIT, i_ls),
        t_init_conf=oracle.duration(INIT, i_conf),
        t_ro=oracle.duration(READOUT, i_conf), t_mw=t_mw, t_d=t_d, t1=t1)


# -- mc_oracle ----------------------------------------------------------------

#: The five acceptance-criterion-5 spots: (protocol, I_conf mW/um^2, t_mw us,
#: trials per pass).  Conventional trials are cheap and individually noisy,
#: so it gets ten times as many to keep its eta standard error near 10%.
SPOTS = (
    (LCQDM, 1.0, 100.0, 160),
    (LCQDM, 0.0712, 1000.0, 160),
    (LEIBOLD, 1.0, 100.0, 160),
    (LEIBOLD, 0.1, 10.0, 320),
    (CONVENTIONAL, 7.1199715201139185, 1000.0, 1600),
)
_BUILDER = {LCQDM: "build_lcqdm_cycle", LEIBOLD: "build_leibold_cycle",
            CONVENTIONAL: "build_conventional_cycle"}


@dataclass
class Spot:
    protocol: str
    i_conf: float
    t_mw: float
    trials: int
    master_seed: int


class McOracle:
    """Shot-noise Monte Carlo at the five spots, checked by z-score."""

    name = "mc_oracle"

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        self.seed = seed
        self.model = qdmsim.config.parse_config(inputs.config_text(B)).model()
        self.scale = 20 if tiny else 1

    def prepare(self, index: int) -> list[Spot]:
        seeds = _seeds(self.seed, index, n=len(SPOTS))
        return [Spot(p, i, t, max(4, n // self.scale), s)
                for (p, i, t, n), s in zip(SPOTS, seeds)]

    def run(self, spots: list[Spot]) -> list:
        pp, seq, mc = qdmsim.photophysics, qdmsim.sequence, qdmsim.montecarlo
        out = []
        for spot in spots:
            params = seq.ProtocolParams(
                t_init_ls=pp.init_time(self.model, B["i_ls"]),
                t_init_conf=pp.init_time(self.model, spot.i_conf),
                t_ro_conf=pp.readout_time(self.model, spot.i_conf),
                t_mw=spot.t_mw, t_d=B["t_d"], t1=B["t1"])
            cycle = getattr(seq, _BUILDER[spot.protocol])(params)
            report = seq.validate_sequence(cycle, params)
            sim = mc.SimConfig(params=params, model=self.model,
                               i_conf=spot.i_conf, n_trials=spot.trials,
                               master_seed=spot.master_seed)
            out.append((cycle, report, mc.simulate_protocol(sim, spot.protocol)))
        return out

    def check(self, spots: list[Spot], outputs: list) -> dict:
        figures = {}
        for spot, (cycle, report, sim) in zip(spots, outputs):
            label = f"{spot.protocol}@{spot.i_conf:g}"
            tm = _timing(spot.i_conf, B["i_ls"], spot.t_mw, B["t_d"], B["t1"])
            mu = oracle.flux(B["r_max"], B["i_sat"], spot.i_conf) * tm.t_ro
            ex = oracle.monte_carlo(spot.protocol, tm, B["c0"], mu)
            if not report.ok:
                raise CheckError(f"{label}: cycle fails validation {report.violations}")
            if len(cycle.windows()) != ex.windows or sim.readouts_per_cycle != ex.windows:
                raise CheckError(f"{label}: {len(cycle.windows())} windows built, "
                                 f"{sim.readouts_per_cycle} simulated, want {ex.windows}")
            oracle.require_close(f"{label} cycle span", cycle.span(), ex.span, REL)
            oracle.require_close(f"{label} cycle_time", sim.cycle_time, ex.span, REL)
            if sim.n_trials != spot.trials:
                raise CheckError(f"{label}: {sim.n_trials} trials, want {spot.trials}")
            stderr = ex.trial_sd / math.sqrt(spot.trials)
            z = oracle.require_z(f"{label} signal mean", sim.signal_mean,
                                 ex.signal_mean, stderr)
            # The sample standard deviation scatters by 1/sqrt(2 (n - 1)).
            spread = 1.0 / math.sqrt(2.0 * (spot.trials - 1))
            oracle.require_z(f"{label} signal stderr", sim.signal_stderr / stderr,
                             1.0, spread)
            if sim.signal_mean > 0:
                eta = math.sqrt(ex.span / ex.windows) * B["c0"] / sim.signal_mean
                oracle.require_close(f"{label} eta", sim.eta_empirical, eta, REL)
            elif sim.eta_empirical != math.inf:
                raise CheckError(f"{label}: non-positive signal mean gives eta "
                                 f"{sim.eta_empirical}, want inf")
            figures[f"z.{label}"] = z
            figures[f"eta_empirical_over_paper.{label}"] = sim.eta_empirical / ex.eta_paper
            figures[f"eta_empirical_over_exact.{label}"] = sim.eta_empirical / ex.eta_exact
        return figures


# -- design_study ---------------------------------------------------------------

COMMANDS = (("eval",), ("sweep", "--pgm"), ("plan", "--protocol", "lcqdm"),
            ("plan", "--protocol", "conventional"))
SWEEP_HEADER = ("i_conf_mw_per_um2,t_mw_us,eta_lc,eta_leibold,eta_conv,"
                "ratio_leibold_lc,ratio_conv_lc,valid")
CYCLES_HEADER = "cycle,voxel_start,voxel_end,start_us,duration_us"
RF_HEADER = "voxel_x,voxel_y,voxel_z,f_sx_mhz,f_sy_mhz,f_dx_mhz,f_dy_mhz"


def _out_name(argv: tuple[str, ...]) -> str:
    return "_".join(a for a in argv if not a.startswith("--"))


class DesignStudy:
    """eval, sweep --pgm and two plans through cli.main on a seeded config."""

    name = "design_study"

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        self.seed = seed
        self.work = work
        self.grid = (6, 5, 3) if tiny else inputs.DESIGN_GRID
        self.sweep_points = 9 if tiny else B["sweep_points_i"]
        self.config = work / "design.cfg"

    def prepare(self, index: int) -> dict:
        values = inputs.design_values(self.seed, index, self.grid)
        values.update(sweep_points_i=self.sweep_points,
                      sweep_points_t=self.sweep_points)
        self.config.write_text(inputs.config_text(values))
        return values

    def run(self, values: dict) -> None:
        for argv in COMMANDS:
            _cli(["--config", str(self.config), argv[0],
                  "--out", str(self.work / _out_name(argv)), *argv[1:]])

    def check(self, v: dict, _outputs=None) -> dict:
        files = {_out_name(argv): oracle.check_manifest(self.work / _out_name(argv))
                 for argv in COMMANDS}
        i_conf = v["p_conf"] / (v["delta_conf"] * v["delta_conf"])
        tm = _timing(i_conf, v["i_ls"], v["t_mw"], v["t_d"], v["t1"])
        self._check_eval(files["eval"], i_conf, tm)
        self._check_sweep(files["sweep"], v)
        for tag, protocol in (("lcqdm", LCQDM), ("conventional", CONVENTIONAL)):
            self._check_plan(files[f"plan_{tag}"], protocol, v, tm)
        return {}

    @staticmethod
    def _check_eval(files: dict, i_conf: float, tm: oracle.Timing) -> None:
        rep = _kv(files["eval_report.txt"])
        oracle.require_close("eval i_conf", float(rep["i_conf_mw_per_um2"]), i_conf, REL)
        lc, leib, conv = (f(tm) for f in oracle.ETA.values())
        for key, want in (("eta_lc_sqrt_us", lc), ("eta_leibold_sqrt_us", leib),
                          ("eta_conv_sqrt_us", conv),
                          ("ratio_leibold_lc", leib / lc),
                          ("ratio_conv_lc", conv / lc),
                          ("time_reduction_conv_lc", (conv / lc) ** 2)):
            oracle.require_close(f"eval {key}", float(rep[key]), want, REL)

    @staticmethod
    def _check_sweep(files: dict, v: dict) -> None:
        n_i, n_t = v["sweep_points_i"], v["sweep_points_t"]
        d2 = v["delta_conf"] * v["delta_conf"]
        i_grid = oracle.log_grid(v["p_conf_min"] / d2, v["p_conf_max"] / d2, n_i)
        t_grid = oracle.log_grid(v["t_mw_min"], v["t_mw_max"], n_t)
        table = _table(files["sweep.csv"], SWEEP_HEADER)
        if table.shape != (n_i * n_t, 8):
            raise CheckError(f"sweep.csv has shape {table.shape}")
        i_col, t_col = table[:, 0], table[:, 1]
        _all_close("sweep i_conf", i_col, np.tile(i_grid, n_t))
        _all_close("sweep t_mw", t_col, np.repeat(t_grid, n_i))
        valid = (i_col >= v["i_valid_min"]) & (i_col <= v["i_valid_max"])
        if not np.array_equal(table[:, 7], valid.astype(float)):
            raise CheckError("sweep valid column disagrees with the validity window")
        if not np.all(np.isnan(table[~valid, 2:7])):
            raise CheckError("sweep invalid cells must be nan")
        want = _sweep_cells(i_col[valid], t_col[valid], v)
        for k, name in enumerate(SWEEP_HEADER.split(",")[2:7]):
            _all_close(f"sweep {name}", table[valid, 2 + k], want[k])
        for which, col in (("conv_lc", 6), ("leibold_lc", 5)):
            ratio = np.full(n_i * n_t, np.nan)
            ratio[valid] = want[col - 2]
            _check_pgm(files[f"sweep_ratio_{which}.pgm"], ratio.reshape(n_t, n_i))

    @staticmethod
    def _check_plan(files: dict, protocol: str, v: dict, tm: oracle.Timing) -> None:
        nx, ny, nz = v["grid_nx"], v["grid_ny"], v["grid_nz"]
        n = nx * ny * nz
        rep = _kv(files["plan_report.txt"])
        label = f"plan {protocol}"
        batch = oracle.cycle_layout(protocol, tm)[0]
        if (rep["protocol"], int(rep["n_voxels"]), int(rep["n_cycles"])) != (
                protocol, n, -(-n // batch)):
            raise CheckError(f"{label}: report header {rep}")
        oracle.require_close(f"{label} total_time_us", float(rep["total_time_us"]),
                             oracle.scan_total(protocol, tm, n, nz, v["t_z_step"]), REL)
        # speedup_report plans without focus steps, per its docstring.
        totals = {p: oracle.scan_total(p, tm, n) for p in oracle.ETA}
        for key, want in (("total_lcqdm_us", totals[LCQDM]),
                          ("total_leibold_us", totals[LEIBOLD]),
                          ("total_conventional_us", totals[CONVENTIONAL]),
                          ("speedup_conv_over_lc", totals[CONVENTIONAL] / totals[LCQDM]),
                          ("speedup_leibold_over_lc", totals[LEIBOLD] / totals[LCQDM])):
            oracle.require_close(f"{label} {key}", float(rep[key]), want, REL)

        cycles = _table(files["plan_cycles.csv"], CYCLES_HEADER)
        want = oracle.plan_rows(protocol, tm, n, nx * ny, v["t_z_step"])
        if cycles.shape != (len(want), 5) or not (
                np.array_equal(cycles[:, 0], np.arange(len(want)))
                and np.array_equal(cycles[:, 1:3], want[:, :2])):
            raise CheckError(f"{label}: plan_cycles.csv voxel ranges differ")
        _all_close(f"{label} cycle start", cycles[:, 3], want[:, 2])
        _all_close(f"{label} cycle duration", cycles[:, 4], want[:, 3])

        rf = _table(files["plan_rf.csv"], RF_HEADER)
        axes = tuple((v[f"aom_{a}_f0"], v[f"aom_{a}_slope"])
                     for a in ("scan_x", "scan_y", "descan_x", "descan_y"))
        want = oracle.rf_rows(nx, ny, nz, v["grid_pitch"], axes)
        if rf.shape != want.shape or not np.array_equal(rf[:, :3], want[:, :3]):
            raise CheckError(f"{label}: plan_rf.csv voxel columns differ")
        _all_close(f"{label} rf", rf[:, 3:], want[:, 3:])


def _sweep_cells(i_conf: np.ndarray, t_mw: np.ndarray, v: dict) -> list:
    """eta_lc, eta_leibold, eta_conv and the two ratios at each cell."""
    tm = oracle.Timing(oracle.duration(INIT, v["i_ls"]), oracle.duration(INIT, i_conf),
                       oracle.duration(READOUT, i_conf), t_mw, v["t_d"], v["t1"])
    lc, leib, conv = (f(tm) for f in oracle.ETA.values())
    return [lc, leib, conv, leib / lc, conv / lc]


def _check_pgm(data: bytes, ratio: np.ndarray) -> None:
    """P2 graymap of log10(ratio), scaled min->0 and max->255; invalid cells 0."""
    tokens = data.decode().split()
    h, w = ratio.shape
    if tokens[:4] != ["P2", str(w), str(h), "255"] or len(tokens) != 4 + w * h:
        raise CheckError(f"graymap header {tokens[:4]} for a {w}x{h} map")
    pixels = np.array(tokens[4:], dtype=int).reshape(h, w)
    logs = np.log10(ratio)
    finite = np.isfinite(logs)
    lo, hi = np.min(logs[finite]), np.max(logs[finite])
    want = np.where(finite, np.round((logs - lo) * (255.0 / (hi - lo))), 0.0)
    # A value on a rounding boundary may land either side.
    if np.max(np.abs(pixels - want)) > 1:
        raise CheckError("graymap pixels differ from the ratio map")


def _all_close(label: str, got: np.ndarray, want: np.ndarray, rel: float = REL) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{label}: shape {got.shape}, want {want.shape}")
    bad = np.abs(got - want) > rel * np.abs(want)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise CheckError(f"{label}: element {k} is {got.flat[k]!r}, "
                         f"want {want.flat[k]!r} (rel {rel:g})")


# -- calibration_roundtrip ------------------------------------------------------

#: Campaign intensities in mW/um^2, jittered by up to 10% per pass.
INTENSITIES = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
#: 1-us bins averaged per delay point.  At the lowest intensity that is
#: 2.5e5 reference counts, so the contrast noise (0.003) stays a tenth of
#: c0: the noisy maximum lies near zero delay and extraction cannot fail on
#: a noise spike at the end of the trace.
SHOTS = 100_000
POINTS = 1000       # delay points per trace, spanning 1.25 t_init
TRACE_HEADER = "t_sweep_us,sig_pl,ref_pl"


@dataclass
class Campaign:
    intensity: np.ndarray
    grids: list
    seeds: list


class CalibrationRoundtrip:
    """Simulate traces, write them, read each back through `qdmsim calibrate`, fit."""

    name = "calibration_roundtrip"

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        self.seed = seed
        self.work = work
        self.model = qdmsim.config.parse_config(inputs.config_text(B)).model()
        self.config = work / "base.cfg"
        self.config.write_text(inputs.config_text(B))
        self.intensities = INTENSITIES[::2] if tiny else INTENSITIES
        self.points = 200 if tiny else POINTS

    def prepare(self, index: int) -> Campaign:
        rng = np.random.default_rng([self.seed, index])
        base = np.array(self.intensities)
        intensity = base * 10.0 ** rng.uniform(-0.04, 0.04, base.size)
        grids = [np.linspace(0.0, 1.25 * oracle.duration(INIT, i), self.points)
                 for i in intensity]
        return Campaign(intensity, grids, _seeds(self.seed, index, n=base.size))

    def _paths(self, k: int, noiseless: bool) -> tuple[Path, Path]:
        tag = f"{k}_{'exact' if noiseless else 'noisy'}"
        return self.work / f"trace_{tag}.csv", self.work / f"calibrate_{tag}"

    def run(self, camp: Campaign) -> dict:
        mc, cal = qdmsim.montecarlo, qdmsim.calibration
        traces, samples = {}, []
        for k, (i, grid, seed) in enumerate(zip(camp.intensity, camp.grids, camp.seeds)):
            for noiseless in (True, False):
                trace = mc.simulate_calibration(self.model, float(i), grid, SHOTS,
                                                seed, noiseless=noiseless)
                path, out = self._paths(k, noiseless)
                path.write_text(cal.trace_to_csv(trace))
                _cli(["--config", str(self.config), "calibrate", "--trace", str(path),
                      "--intensity", repr(float(i)), "--out", str(out)])
                traces[k, noiseless] = trace
                if noiseless:
                    rep = _kv((out / "calibrate_report.txt").read_bytes())
                    samples.append((float(i), float(rep["t_ro_us"]),
                                    float(rep["t_init_us"])))
        init_fit = cal.fit_log_quadratic([(i, t) for i, _, t in samples])
        ro_fit = cal.fit_log_quadratic([(i, t) for i, t, _ in samples])
        return {"traces": traces, "init_fit": init_fit, "ro_fit": ro_fit}

    def check(self, camp: Campaign, out: dict) -> dict:
        worst_step = 0.0
        for k, (i, grid) in enumerate(zip(camp.intensity, camp.grids)):
            i = float(i)
            t_init = oracle.duration(INIT, i)
            rate = oracle.flux(B["r_max"], B["i_sat"], i)
            sig_rate, ref_rate = oracle.calibration_rates(grid, rate, B["c0"], t_init)
            step = grid[1] - grid[0]
            for noiseless in (True, False):
                label = f"trace {i:.4g} {'noiseless' if noiseless else 'noisy'}"
                path, out_dir = self._paths(k, noiseless)
                trace = out["traces"][k, noiseless]
                table = _table(path.read_bytes(), TRACE_HEADER)
                if not (np.array_equal(table[:, 0], grid)
                        and np.array_equal(table[:, 1], trace.sig_pl)
                        and np.array_equal(table[:, 2], trace.ref_pl)):
                    raise CheckError(f"{label}: CSV does not round-trip the trace")
                files = oracle.check_manifest(out_dir)
                rep = _kv(files["calibrate_report.txt"])
                if int(rep["n_samples"]) != len(grid) or float(
                        rep["intensity_mw_per_um2"]) != i:
                    raise CheckError(f"{label}: report header {rep}")
                t_ro, t_init_got = float(rep["t_ro_us"]), float(rep["t_init_us"])
                if noiseless:
                    _all_close(f"{label} sig_pl", table[:, 1], sig_rate, 1e-12)
                    _all_close(f"{label} ref_pl", table[:, 2], ref_rate, 1e-12)
                    want_init, want_ro = oracle.calibration_targets(t_init)
                    # Linear interpolation of exp(-t/tau) errs by < h^2 / (8 tau).
                    oracle.require_close(f"{label} t_init", t_init_got, want_init,
                                         REL, step * step / (2.0 * t_init / 3.0))
                    oracle.require_close(f"{label} t_ro", t_ro, want_ro, 0.0, step)
                    oracle.require_close(f"{label} peak contrast",
                                         float(rep["peak_contrast"]), B["c0"], 1e-9)
                    worst_step = max(worst_step, step / want_ro)
                else:
                    _check_counts(label, trace, sig_rate, ref_rate)
                    if t_ro not in grid:
                        raise CheckError(f"{label}: t_ro {t_ro} is not a delay sample")
        # Noiseless t_init is extracted to ~1e-6 relative and t_ro to one delay
        # step; the fits must reproduce each curve about as well.
        for fit, scale, rel, name in (
                (out["init_fit"], 1.0, 1e-5, "t_init"),
                (out["ro_fit"], oracle.readout_optimum() / 3.0, 2.0 * worst_step, "t_ro")):
            for i in map(float, camp.intensity):
                oracle.require_close(f"{name} fit at {i:.4g}",
                                     oracle.duration((fit.a, fit.b, fit.c), i),
                                     scale * oracle.duration(INIT, i), rel)
        return {}


def _check_counts(label: str, trace, sig_rate: np.ndarray, ref_rate: np.ndarray) -> None:
    """Noisy rates are Poisson counts over SHOTS 1-us bins, per delay point."""
    window = float(SHOTS)
    sig, ref = trace.sig_pl * window, trace.ref_pl * window
    for name, counts in (("signal", sig), ("reference", ref)):
        if np.max(np.abs(counts - np.round(counts))) > 1e-9 * max(1.0, np.max(counts)):
            raise CheckError(f"{label}: {name} rates are not whole counts per window")
    lam_sig, lam_ref = sig_rate * window, ref_rate * window
    oracle.require_z(f"{label} reference total", float(np.sum(ref)),
                     float(np.sum(lam_ref)), math.sqrt(np.sum(lam_ref)))
    oracle.require_z(f"{label} contrast total", float(np.sum(ref - sig)),
                     float(np.sum(lam_ref - lam_sig)),
                     math.sqrt(np.sum(lam_ref + lam_sig)))


WORKLOADS = {w.name: w for w in (McOracle, DesignStudy, CalibrationRoundtrip)}
