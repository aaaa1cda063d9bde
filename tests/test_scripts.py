"""Smoke tests: the runnable scripts finish cleanly on small inputs."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_reproduce_results():
    proc = _run("reproduce_results.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "done: 3 networks, 0 failures"
    assert lines.count("witnesses verified") == 3
    assert not any("DISAGREES" in line for line in lines)


def test_implication_sweep():
    proc = _run("implication_sweep.py", "--seeds", "20")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "implication violations: 0" in proc.stdout
