"""The suite's warning filters, run on small test files in a subprocess
pytest under this repository's ``pyproject.toml``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_pytest(tmp_path: Path, source: str) -> str:
    (tmp_path / "test_case.py").write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_case.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    return proc.stdout + proc.stderr


def test_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # on a failure hypothesis imports libcst, whose mypy_extensions.TypedDict
    # use warns; as an error that warning ended the session in INTERNALERROR
    out = run_pytest(
        tmp_path,
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n    assert x < 0\n\n"
        "def test_passes():\n    pass\n",
    )
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out


def test_leaked_file_fails(tmp_path):
    # a file left open is a ResourceWarning when it is collected
    (tmp_path / "data.txt").write_text("1\n")
    out = run_pytest(
        tmp_path,
        "def test_leaks():\n    open('data.txt').read()\n\n"
        "def test_closes():\n    with open('data.txt') as fh:\n        fh.read()\n",
    )
    assert "1 failed, 1 passed" in out, out
