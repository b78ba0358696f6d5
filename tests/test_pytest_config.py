"""The repository's pytest settings keep test failures readable."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 0
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # filterwarnings = error must not turn hypothesis's report of a falsifying
    # example into a pytest INTERNALERROR
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "1 failed" in out, out
    assert "INTERNALERROR" not in out, out
