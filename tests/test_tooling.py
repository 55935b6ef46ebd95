"""The repository's pytest settings themselves."""

from __future__ import annotations

import ast
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


def unmarked_unused_imports(source: str) -> list[str]:
    """Each name ``source`` imports and never uses, unless its import
    statement carries ``# noqa: F401``.  A name listed in ``__all__`` is
    used; ``__future__`` imports are not names."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(item.value for item in node.value.elts)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        unused.extend(f"line {node.lineno}: {name}" for name in
                      (alias.asname or alias.name.split(".")[0] for alias in node.names)
                      if name not in used)
    return unused


def test_unmarked_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\n"
              "from re import (  # noqa: F401\n    compile,\n)\n"
              "from typing import Any, Sequence\n__all__ = ['Sequence']\n")
    assert unmarked_unused_imports(source) == ["line 2: os", "line 3: j", "line 7: Any"]


def test_no_module_imports_a_name_it_never_uses():
    src = PYPROJECT.parent / "src"
    unused = {str(path.relative_to(src)): found for path in sorted(src.rglob("*.py"))
              if (found := unmarked_unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}
