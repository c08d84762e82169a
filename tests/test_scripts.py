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
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_exhaustive_verify_refuses_oversized_sweep():
    # 11^9 trees exceed the default size cap: refused before any tree is verified
    proc = run_script("exhaustive_verify.py", ["-p", "11"])
    assert proc.returncode != 0
    assert "exceeds cap" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""
