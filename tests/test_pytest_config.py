"""The repository's pytest configuration keeps one failing test from hiding the others."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_abort_the_session(tmp_path):
    # With filterwarnings = ["error"], a warning raised while hypothesis reports a failure
    # became an INTERNALERROR that stopped the session before the second test ran.
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    out = subprocess.run(
        [sys.executable, *argv, "test_two.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert out.returncode == 1
    assert "1 failed, 1 passed" in out.stdout.splitlines()[-1]
