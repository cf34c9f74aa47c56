"""Each demo runs to completion in a fresh interpreter with warnings as
errors, prints nothing on stderr, and prints the same stdout as when its
digest below was recorded.  The demos write their files (sweep.csv, ...)
into the working directory, so each runs in its own temporary one.

A change that alters a demo's output on purpose records the new digest:
sha256 of the demo's stdout bytes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdmsim

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "calibration_extraction.py":
        "ee49b47f24f8204a70b7216f1476e34ea7de06d39fe56042eadfa0520b6477b6",
    "protocol_timelines.py":
        "d846fccca4e8c88bc84459856bb5e51956f03175da0a9d30c68a0347334a69b7",
    "scan_planning.py":
        "23f54f866769b91d2d01e77d4eacc12bf6fbbac78af0d4d0c11f76e55afcff83",
    "sensitivity_sweep.py":
        "b49de90eac5c84bccb2d8ebc3b1997a449b5a5b1396e8929be5883d27bcb1875",
    "shot_noise_check.py":
        "1ca6d1929e9a4ace182c25fed797bdf19c07f6294d763d1dbd594808cd9b9370",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_runs_clean(tmp_path, name):
    env = dict(os.environ,
               PYTHONPATH=str(Path(qdmsim.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", str(DEMOS / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
