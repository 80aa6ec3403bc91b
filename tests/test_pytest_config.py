"""The test configuration of ``pyproject.toml`` reports a failing property
test as a failure and runs the tests after it.

``filterwarnings = ["error"]`` turns every warning into an error.  When a
``@given`` test fails, hypothesis's pytest plugin imports its patch
writer, whose libcst import warns that ``mypy_extensions.TypedDict`` is
deprecated; unfiltered, that warning ends the session in INTERNALERROR and
no later test runs.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_after_it():
    pass
'''


def test_a_failing_given_test_is_reported_and_the_run_goes_on(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
