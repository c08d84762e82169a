"""The experiment scripts run end to end at minimal sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("exhaustive_verify.py", ["-p", "3", "--draws", "1"]),
        ("reconstruction_experiment.py", ["-p", "3", "--trees", "2", "--signals", "4", "--levels", "1"]),
        ("seven_vertex_demo.py", []),
    ],
)
def test_script_exits_zero(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
