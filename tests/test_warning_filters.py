"""The suite's warning filters, each held by a probe suite run apart.

When a @given test fails, hypothesis imports libcst to print an explicit
example, and libcst 1.0 warns that mypy_extensions.TypedDict is
deprecated.  Under the suite's error::DeprecationWarning that warning
would raise inside pytest's report hook, which stops the whole pytest run
with INTERNALERROR.  That check runs only where libcst is installed.

A file handle dropped without close warns from its finalizer, where no
test sees it.  error::ResourceWarning turns that warning into an
unraisable exception, and error::pytest.PytestUnraisableExceptionWarning
turns pytest's report of it into a failure of the test.
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


LEAK_PROBE = """\
def test_drops_an_open_file(tmp_path):
    handle = open(tmp_path / "leak.txt", "w")
    del handle


def test_after_the_leak():
    pass
"""


def _run_probe(tmp_path, config):
    probe = tmp_path / "test_leak_probe.py"
    probe.write_text(LEAK_PROBE)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)


def test_leaked_file_handle_fails_the_suite(tmp_path):
    proc = _run_probe(tmp_path, PYPROJECT)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "ResourceWarning" in output and "1 failed, 1 passed" in output, output
    # the filters make the difference: without them the probe passes
    bare = tmp_path / "pytest.ini"
    bare.write_text("[pytest]\n")
    proc = _run_probe(tmp_path, bare)
    assert proc.returncode == 0, proc.stdout + proc.stderr
