"""The repository's pytest settings themselves."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1


def test_the_package_imports_without_pythonpath(tmp_path):
    src = PYPROJECT.parent / "src"
    (tmp_path / "test_import.py").write_text(
        "import spellvar\n\n\ndef test_imports_from_src():\n"
        f"    assert spellvar.__file__.startswith({str(src)!r})\n")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(PYPROJECT.parent), str(tmp_path / "test_import.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert "1 passed" in run.stdout, run.stdout + run.stderr
