"""Smoke tests: the runnable scripts finish cleanly on small inputs."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import bcnobs.observability
import bcnobs.pairgraph
from bcnobs.observability import DECIDERS, ObservabilityType, Verdict

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


def _sweep(monkeypatch, capsys, *args):
    """Run implication_sweep.py in this process: (exit code, stdout, stderr)."""
    monkeypatch.setattr(sys, "argv", ["implication_sweep.py", *args])
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(SCRIPTS / "implication_sweep.py"), run_name="__main__")
    out, err = capsys.readouterr()
    return exited.value.code, out, err


@pytest.mark.parametrize(
    "args, option",
    [
        (["--n", "9"], "--n"),
        (["--oracle-budget", "0"], "--oracle-budget"),  # removed: refused, not ignored
        (["--seeds", "0"], "--seeds"),
        (["--oracle-every", "-3"], "--oracle-every"),
    ],
)
def test_implication_sweep_rejects_bad_arguments(monkeypatch, capsys, args, option):
    code, out, err = _sweep(monkeypatch, capsys, "--seeds", "1", *args)
    assert code == 2 and out == ""
    assert "error:" in err and option in err
    assert "Traceback" not in err


@pytest.mark.parametrize("option", ["--n", "--m", "--q"])
def test_implication_sweep_sizes_out_of_range_are_bad_input(monkeypatch, capsys, option):
    for value in ("0", "9"):
        code, out, err = _sweep(monkeypatch, capsys, "--seeds", "1", option, value)
        assert code == 2 and out == ""
        assert "error:" in err and f"{option[2:]} must be an int in 1..8" in err
        assert "Traceback" not in err


def test_implication_sweep_seed_lines(monkeypatch, capsys):
    code, out, _ = _sweep(monkeypatch, capsys, "--start-seed", "7", "--seeds", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == [
        "seed 7: I=y II=y III=y IV=n",
        "seed 8: I=n II=n III=n IV=n",
        "seed 9: I=y II=y III=y IV=y",
    ]
    assert "implication violations: 0" in lines
    assert lines[-1] == (
        "oracle cross-checks: 1 networks, 4 agrees, 0 DISAGREES, 0 inconclusive,"
        " 0 not conclusive"
    )


def test_implication_sweep_flags_format(monkeypatch, capsys):
    code, out, _ = _sweep(monkeypatch, capsys, "--start-seed", "123", "--seeds", "1")
    assert code == 0
    prefix, flags = out.splitlines()[0].split(": ")
    assert prefix == "seed 123"
    parts = flags.split(" ")
    assert [p.split("=")[0] for p in parts] == ["I", "II", "III", "IV"]
    assert all(p.split("=")[1] in {"y", "n"} for p in parts)


def test_implication_violation_exits_1(monkeypatch, capsys):
    def wrong(network, graph):
        return Verdict(ObservabilityType.TYPE_IV, True)

    monkeypatch.setitem(DECIDERS, ObservabilityType.TYPE_IV, wrong)
    code, out, _ = _sweep(
        monkeypatch, capsys, "--start-seed", "8", "--seeds", "1", "--oracle-every", "0"
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == (
        "seed 8: I=n II=n III=n IV=y  IMPLICATION VIOLATION: IV=>III, IV=>I, IV=>II"
    )
    assert "implication violations: 1" in lines


def test_oracle_refutation_exits_1(monkeypatch, capsys):
    def wrong(network, graph):
        return Verdict(ObservabilityType.TYPE_IV, False)

    monkeypatch.setitem(DECIDERS, ObservabilityType.TYPE_IV, wrong)
    code, out, _ = _sweep(monkeypatch, capsys, "--start-seed", "9", "--seeds", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] == [
        "seed 9: I=y II=y III=y IV=n",
        "  oracle IV: horizon 2, observable, DISAGREES",
    ]
    assert "implication violations: 0" in lines
    assert lines[-1] == (
        "oracle cross-checks: 1 networks, 3 agrees, 1 DISAGREES, 0 inconclusive,"
        " 0 not conclusive"
    )


def test_implication_sweep_counts_budget_cut_results(monkeypatch, capsys):
    # a budget of 2 words allows horizon 1 over M = 2 inputs, short of most
    # conclusive depths: a "not observable" found there that differs from
    # the verdict refutes nothing, so it is inconclusive, not DISAGREES
    monkeypatch.setenv("BCNOBS_ENUM_BUDGET", "2")
    code, out, _ = _sweep(monkeypatch, capsys, "--seeds", "20", "--oracle-every", "1")
    assert code == 0
    lines = out.splitlines()
    assert "  oracle II: horizon 1, not observable, inconclusive (horizon not conclusive)" in lines
    assert lines[-1] == (
        "oracle cross-checks: 20 networks, 68 agrees, 0 DISAGREES, 12 inconclusive,"
        " 58 not conclusive"
    )


@pytest.mark.parametrize("value", ["abc", "1"])
def test_implication_sweep_bad_budget_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("BCNOBS_ENUM_BUDGET", value)
    code, out, err = _sweep(monkeypatch, capsys, "--seeds", "3")
    assert code == 2 and out == ""
    assert "error:" in err and "BCNOBS_ENUM_BUDGET" in err
    assert "Traceback" not in err


def test_implication_sweep_builds_one_graph_per_network(monkeypatch, capsys):
    builds = []
    original = bcnobs.pairgraph.build

    def counting(network):
        builds.append(network)
        return original(network)

    monkeypatch.setattr(bcnobs.pairgraph, "build", counting)
    monkeypatch.setattr(bcnobs.observability, "build", counting)
    code, out, _ = _sweep(monkeypatch, capsys, "--seeds", "20")
    assert code == 0, out
    assert len(builds) == 20
