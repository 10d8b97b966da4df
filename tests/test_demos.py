"""The demos run end to end: each script exits 0 in a fresh interpreter.

They use the public API the way a reader would, so a renamed or removed
parameter shows up here even when no unit test calls it that way.  Each runs
in development mode under the suite's warning filters, so a warning a demo
leaks fails it as it would fail a test.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STRICT = ["-X", "dev", "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]
STRICT += ["-W", "error::UserWarning"]


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *STRICT, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
