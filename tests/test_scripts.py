"""Smoke tests: the runnable scripts finish cleanly on small inputs."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import bcnobs.observability
import bcnobs.pairgraph

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
    assert [line for line in lines if line.startswith("   pair graph:")] == [
        "   pair graph: 7 vertices (3 confusable pairs), 8 weighted edges",
        "   pair graph: 6 vertices (2 confusable pairs), 7 weighted edges",
        "   pair graph: 6 vertices (2 confusable pairs), 9 weighted edges",
    ]
    assert lines.count("witnesses verified") == 3
    assert not any("DISAGREES" in line for line in lines)


def test_implication_sweep():
    proc = _run("implication_sweep.py", "--seeds", "20")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "implication violations: 0" in proc.stdout


@pytest.mark.parametrize(
    "args, option", [(["--n", "9"], "--n"), (["--oracle-budget", "0"], "--oracle-budget")]
)
def test_implication_sweep_rejects_bad_arguments(args, option):
    proc = _run("implication_sweep.py", "--seeds", "1", *args)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and option in proc.stderr
    assert "Traceback" not in proc.stderr


def test_implication_sweep_builds_one_graph_per_network(monkeypatch, capsys):
    builds = []
    original = bcnobs.pairgraph.build

    def counting(network):
        builds.append(network)
        return original(network)

    monkeypatch.setattr(bcnobs.pairgraph, "build", counting)
    monkeypatch.setattr(bcnobs.observability, "build", counting)
    monkeypatch.setattr(sys, "argv", ["implication_sweep.py", "--seeds", "20"])
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(SCRIPTS / "implication_sweep.py"), run_name="__main__")
    assert exited.value.code == 0, capsys.readouterr().out
    assert len(builds) == 20
