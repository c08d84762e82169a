"""The experiment scripts run end to end at minimal sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# one minimal run per script in scripts/; test_every_script_has_a_row keeps the two in step
SCRIPT_ARGS = {
    "bench_pairs.py": ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "deep7",
                       "--seconds", "0.1", "--pairs", "1"],
    "reconstruction_experiment.py": ["-p", "3", "--trees", "2", "--signals", "4", "--levels", "1"],
    "seven_vertex_demo.py": [],
}


@pytest.mark.parametrize("script", sorted(SCRIPT_ARGS))
def test_script_exits_zero(script):
    proc = run_script(script, SCRIPT_ARGS[script])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if script == "bench_pairs.py":  # the sweep's verify time from the record line, beside the gated metrics
        assert any(line.startswith("verify_s ") and line.endswith("not gated") for line in proc.stdout.splitlines())
    if script == "seven_vertex_demo.py":  # tree A's spectrum keys, sorted
        assert "spectrum support indices: [0, 3, 5, 22, 23, 39, 279]\n" in proc.stdout.split("== tree B")[0]


def test_every_script_has_a_row():
    assert sorted(path.name for path in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPT_ARGS)


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
