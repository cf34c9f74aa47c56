"""Benchmark entry point: one workload, one seed, one JSON result line.

From the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mc_oracle, design_study, calibration_roundtrip (see README.md).
The package is imported from the checkout's src/; without it the command
exits with code 2 and prints no result.

Set-up time is measured first, in SETUP_PROBES fresh interpreters after
one discarded warm-up (which may also write the bytecode cache), and reported as
their median.  The workload then runs in its own fresh interpreter
(measure.py).  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end_to_end metrics that BENCHMARK.json lists for --trace 0 and
its per_layer metrics for --trace 1.  The same object plus run details is written to
perfbench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402  (standard library only)

WORKLOADS = ("mc_oracle", "design_study", "calibration_roundtrip")
SETUP_PROBES = 11
DEADLINE_S = 170.0


def _python(script: str, *args: str, timeout: float) -> str:
    # One client and no worker threads: numpy's BLAS would otherwise keep
    # a thread per core.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(HERE / script), *args], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout,
                          check=True)
    return done.stdout.strip().splitlines()[-1]


def _probe_setup(workload: str, seed: int, results: Path) -> list[dict]:
    fd, path = tempfile.mkstemp(prefix="setup-", suffix=".cfg", dir=results)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(inputs.setup_config_text(workload, seed))
        probes = [json.loads(_python("probe.py", path, timeout=60))
                  for _ in range(SETUP_PROBES + 1)][1:]
    finally:
        os.unlink(path)
    for p in probes:
        if (ROOT / "src") not in Path(p["qdmsim"]).resolve().parents:
            raise SystemExit(f"qdmsim imported from {p['qdmsim']}, not {ROOT / 'src'}")
    return probes


def main() -> int:
    ap = argparse.ArgumentParser(description="qdmsim end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "qdmsim" / "__init__.py").is_file():
        print(f"no qdmsim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    results = HERE / "results"
    results.mkdir(exist_ok=True)

    probes = _probe_setup(args.workload, args.seed, results)
    child = json.loads(_python(
        "measure.py", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", str(ROOT), timeout=DEADLINE_S - (time.monotonic() - start)))

    def median(key):
        return statistics.median(p[key] for p in probes)

    if args.trace:
        values = dict(child["metrics"], **{
            "cli.import_s": median("import_s"),
            "cli.parse_config_ms": 1e3 * median("parse_config_s")})
    else:
        values = dict(child["metrics"], setup_s=median("setup_s"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {"correct": child["correct"], "attempted": child["attempted"],
              "failed": child["failed"],
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in listed}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, probes=probes,
                  wall_s=time.monotonic() - start, **child["extra"])
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
