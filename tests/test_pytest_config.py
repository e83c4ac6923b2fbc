"""The suite's own pytest settings: a falsified hypothesis property fails
its own test, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FALSIFIED_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, max_examples=20, database=None)
@given(st.integers())
def test_falsified(n):
    assert n < 5


def test_after():
    pass
'''


def test_a_falsified_property_fails_only_its_own_test(tmp_path):
    (tmp_path / "test_falsified.py").write_text(FALSIFIED_THEN_PASSING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "INTERNALERROR" not in out
