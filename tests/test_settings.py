"""The repository's pytest settings, exercised on a test run in a subprocess."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_a_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # Hypothesis imports libcst to report the example; a warning filter that
    # turns its import-time DeprecationWarning into an error hides the report
    # behind an INTERNALERROR
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example: test_small(" in output
    assert "INTERNALERROR" not in output
