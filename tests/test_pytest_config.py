"""The repository's pytest settings keep a failing test a plain failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_TESTS = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # printing the failure's patch imports libcst, which warns; under
    # filterwarnings = error that warning ended the run with INTERNALERROR
    # and the passing test never ran
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
    assert proc.returncode == 1
