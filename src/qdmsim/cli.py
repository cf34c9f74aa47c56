"""Batch command-line front end.

Commands: eval, sweep, simulate, calibrate, plan.  Every command writes
its outputs plus a manifest (digest of the effective inputs, the seed, and
per-file checksums) into the output directory; reruns with the same config
and seed reproduce every file byte for byte.

The plan report's total_time_us is the requested protocol's scan time
including focus steps (t_z_step); total_<protocol>_us and both speedup
ratios compare the three protocols without them.

Each command is declared once, in _build_parser, bound to its handler;
the handler adds its own inputs beyond config and seed to the digest.
The parser is built at the first main() call of a process, not at import.

Exit codes: 0 success, 1 config/usage error (a config file that is not
UTF-8, a non-finite or non-positive --intensity), 2 domain or numeric
error (a trace file that is not UTF-8) or not enough memory, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from ._csv import column_text, csv_text
from .config import RunConfig, default_config_text, parse_config
from .calibration import extract_times, read_trace_csv
from .errors import ConfigError, DomainError
from .montecarlo import SimConfig, simulate_protocol
from .scanplan import plan_acquisition, speedup_report
from .sensitivity import evaluate_point, sweep, time_reduction_factor
from .sequence import PROTOCOLS

_PROTOCOL_BY_NAME = {p.lower(): p for p in PROTOCOLS}


class _UsageError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1
        raise _UsageError(message)


def _intensity(text: str) -> float:
    """--intensity: a finite, positive number of mW/um^2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {text!r}")
    return value


def _read_text(path: str, error: type[Exception]) -> str:
    """A UTF-8 file's text; other bytes raise error, not UnicodeDecodeError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and then reused: parsing
    leaves it unchanged, and each handler reads the helpers it calls from
    this module when it runs."""
    parser = _Parser(prog="qdmsim", description=__doc__.splitlines()[0])
    parser.add_argument("--config", metavar="PATH",
                        help="config file (omit to use built-in defaults)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default: config output_dir)")
        p.add_argument("--seed", type=int, help="override master_seed")
        return p

    protocols = sorted(_PROTOCOL_BY_NAME)
    add("eval", _cmd_eval, "sensitivities of all three protocols at one point")
    p = add("sweep", _cmd_sweep,
            "comparison grid over (I_conf, t_mw), written as CSV")
    p.add_argument("--pgm", action="store_true",
                   help="also write P2 graymap heatmaps of the ratios")
    p = add("simulate", _cmd_simulate,
            "shot-noise Monte Carlo estimate of one protocol")
    p.add_argument("--protocol", required=True, choices=protocols)
    p.add_argument("--trials", type=int, help="override n_trials")
    p.add_argument("--dump-trials", action="store_true",
                   help="write per-trial eta values as CSV")
    p = add("calibrate", _cmd_calibrate,
            "extract t_ro / t_init from a delay-sweep trace CSV")
    p.add_argument("--trace", required=True, metavar="PATH")
    p.add_argument("--intensity", type=_intensity, metavar="MW_PER_UM2",
                   help="trace intensity (default: config I_conf)")
    p.add_argument("--mode", choices=["averaged", "instantaneous"],
                   default="averaged")
    p = add("plan", _cmd_plan, "full-grid acquisition schedule and AOM RF table")
    p.add_argument("--protocol", required=True, choices=protocols)
    return parser


class _Run:
    """Collects output files, then writes them and, last, the manifest."""

    def __init__(self, command: str, cfg: RunConfig, cfg_text: str,
                 out_dir: Path, seed: int):
        self.command = command
        self.cfg = cfg
        self.seed = seed
        self.out_dir = out_dir
        self._inputs = hashlib.sha256(
            f"{cfg_text}\ncommand={command}\nseed={seed}\n".encode())
        self.files: dict[str, str] = {}

    def add_input(self, text: str) -> None:
        """Fold a command's own input, beyond config and seed, into the digest."""
        self._inputs.update(text.encode())

    def add(self, name: str, text: str) -> None:
        self.files[name] = text

    def flush(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = self.out_dir / "manifest.txt"
        manifest_path.unlink(missing_ok=True)  # never left beside new files
        manifest = [
            f"command = {self.command}",
            f"qdmsim_version = {__version__}",
            f"inputs_sha256 = {self._inputs.hexdigest()}",
            f"master_seed = {self.seed}",
        ]
        for name in sorted(self.files):
            data = self.files[name].encode()
            (self.out_dir / name).write_bytes(data)
            digest = hashlib.sha256(data).hexdigest()
            manifest.append(f"output {name} sha256 {digest}")
        tmp = manifest_path.with_suffix(".tmp")
        tmp.write_text("\n".join(manifest) + "\n")
        tmp.replace(manifest_path)


def _kv_block(pairs: list[tuple[str, object]]) -> str:
    return "\n".join(f"{k} = {v}" for k, v in pairs) + "\n"


def _cmd_eval(run: _Run, args) -> str:
    cfg = run.cfg
    cell = evaluate_point(cfg.model(), cfg.intensity_conf(), cfg.t_mw,
                          cfg.intensity_ls(), cfg.t1, cfg.t_d)
    report = _kv_block([
        ("i_conf_mw_per_um2", repr(cfg.intensity_conf())),
        ("i_ls_mw_per_um2", repr(cfg.intensity_ls())),
        ("t_mw_us", repr(cfg.t_mw)),
        ("eta_lc_sqrt_us", repr(cell.eta_lcqdm)),
        ("eta_leibold_sqrt_us", repr(cell.eta_leibold)),
        ("eta_conv_sqrt_us", repr(cell.eta_conventional)),
        ("ratio_leibold_lc", repr(cell.ratio_leibold_over_lc)),
        ("ratio_conv_lc", repr(cell.ratio_conv_over_lc)),
        ("time_reduction_conv_lc", repr(time_reduction_factor(cell.ratio_conv_over_lc))),
    ])
    run.add("eval_report.txt", report)
    return report


def _cmd_sweep(run: _Run, args) -> str:
    grid = sweep(run.cfg.sweep_spec())
    run.add("sweep.csv", grid.to_csv())
    if args.pgm:
        run.add("sweep_ratio_conv_lc.pgm", grid.to_pgm("conv_lc"))
        run.add("sweep_ratio_leibold_lc.pgm", grid.to_pgm("leibold_lc"))
    return (f"swept {grid.eta_lcqdm.size} cells ({grid.n_valid} valid) -> "
            f"{run.out_dir / 'sweep.csv'}\n")


def _cmd_simulate(run: _Run, args) -> str:
    run.add_input(f"protocol={args.protocol} trials={args.trials}")
    cfg = run.cfg
    protocol = _PROTOCOL_BY_NAME[args.protocol]
    n_trials = args.trials if args.trials is not None else cfg.n_trials
    sim = SimConfig(params=cfg.protocol_params(), model=cfg.model(),
                    i_conf=cfg.intensity_conf(), n_trials=n_trials,
                    master_seed=run.seed)
    trial_etas: Optional[list] = [] if args.dump_trials else None
    outcome = simulate_protocol(sim, protocol, trial_etas_out=trial_etas)
    report = _kv_block([
        ("protocol", outcome.protocol_tag),
        ("n_trials", outcome.n_trials),
        ("eta_empirical_sqrt_us", repr(outcome.eta_empirical)),
        ("eta_stderr_sqrt_us", repr(outcome.eta_stderr)),
        ("readouts_per_cycle", outcome.readouts_per_cycle),
        ("cycle_time_us", repr(outcome.cycle_time)),
        ("signal_mean", repr(outcome.signal_mean)),
        ("signal_stderr", repr(outcome.signal_stderr)),
    ] + [("warning", w) for w in outcome.warnings])
    run.add("simulate_report.txt", report)
    if trial_etas is not None:
        run.add("simulate_trials.csv", csv_text("trial,eta", [
            map(str, range(len(trial_etas))), column_text(trial_etas)]))
    return report


def _cmd_calibrate(run: _Run, args) -> str:
    text = _read_text(args.trace, DomainError)
    run.add_input(text)
    intensity = args.intensity if args.intensity is not None \
        else run.cfg.intensity_conf()
    trace = read_trace_csv(text, intensity)
    times = extract_times(trace, mode=args.mode)
    report = _kv_block([
        ("trace", Path(args.trace).name),
        ("intensity_mw_per_um2", repr(intensity)),
        ("mode", args.mode),
        ("n_samples", len(trace)),
        ("t_ro_us", repr(times.t_ro)),
        ("t_init_us", repr(times.t_init)),
        ("peak_contrast", repr(times.peak_contrast)),
    ] + [("warning", w) for w in times.warnings])
    run.add("calibrate_report.txt", report)
    return report


def _cmd_plan(run: _Run, args) -> str:
    run.add_input(f"protocol={args.protocol}")
    cfg = run.cfg
    protocol = _PROTOCOL_BY_NAME[args.protocol]
    grid = cfg.voxel_grid()
    params = cfg.protocol_params()
    plan = plan_acquisition(grid, params, protocol, cal=cfg.aom_calibration(),
                            t_z_step=cfg.t_z_step)
    ratios = speedup_report(grid, params)
    run.add("plan_cycles.csv", plan.cycles_csv())
    run.add("plan_rf.csv", plan.rf_csv())
    report = _kv_block([
        ("protocol", protocol),
        ("n_voxels", grid.n_voxels),
        ("n_cycles", len(plan.cycles)),
        ("total_time_us", repr(plan.total_time)),
        ("total_lcqdm_us", repr(ratios.total_lcqdm)),
        ("total_leibold_us", repr(ratios.total_leibold)),
        ("total_conventional_us", repr(ratios.total_conventional)),
        ("speedup_conv_over_lc", repr(ratios.conventional_over_lcqdm)),
        ("speedup_leibold_over_lc", repr(ratios.leibold_over_lcqdm)),
    ])
    run.add("plan_report.txt", report)
    return report


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.seed is not None and args.seed < 0:
            raise _UsageError(f"--seed must be >= 0, got {args.seed}")
        if args.config is not None:
            cfg_text = _read_text(args.config, ConfigError)
        else:
            cfg_text = default_config_text()
        cfg = parse_config(cfg_text)
        seed = args.seed if args.seed is not None else cfg.master_seed
        out_dir = Path(args.out if args.out is not None else cfg.output_dir)
        run = _Run(args.command, cfg, cfg_text, out_dir, seed)
        summary = args.handler(run, args)
        run.flush()
        sys.stdout.write(summary)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"memory error: {str(exc) or 'not enough memory'}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
