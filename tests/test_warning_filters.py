"""The suite's warning filters let a failing property test report normally.

When a @given test fails, hypothesis imports libcst to print an explicit
example, and libcst 1.0 warns that mypy_extensions.TypedDict is
deprecated.  Under the suite's error::DeprecationWarning that warning
would raise inside pytest's report hook, which stops the whole pytest run
with INTERNALERROR.  The check runs only where libcst is installed.
"""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_probe(n):
    assert n < 0
"""


def test_failing_property_test_reports_its_example(tmp_path):
    pytest.importorskip("libcst")
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
