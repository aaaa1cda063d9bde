import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import bcnobs.automata
import bcnobs.observability
from bcnobs.bcnio import emit_dot, gen_random_bcn
from bcnobs import cli
from bcnobs.cli import run_cli
from bcnobs.observability import DECIDERS, ObservabilityType, Verdict
from bcnobs.pairgraph import build

from conftest import FIXTURE_DIR, fixture_path, golden_text
from pairviews import automaton_dot, non_diagonal_vertices

BCN5 = str(fixture_path("bcn5"))
BCN6 = str(fixture_path("bcn6"))
BCN7 = str(fixture_path("bcn7"))
BCN5_VERDICTS = [
    "type I: not observable (offending state 2)",
    "type II: observable",
    "type III: not observable",
    "type IV: not observable (pair (2,3) rides prefix [1,2] then cycle [1] forever)",
]


class TestDecide:
    def test_all_types_bcn5(self, capsys):
        assert run_cli(["decide", BCN5]) == 0
        assert capsys.readouterr().out.splitlines() == BCN5_VERDICTS

    def test_single_type_with_witness(self, capsys):
        assert run_cli(["decide", BCN5, "--type", "II", "--witness"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "type II: observable",
            "  pair (2,3): [2]",
            "  pair (2,4): [1]",
            "  pair (3,4): [1]",
        ]

    def test_type_i_witnesses(self, capsys):
        assert run_cli(["decide", BCN7, "--type", "I", "--witness"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "type I: observable",
            "  state 1: [2]",
            "  state 2: [2]",
            "  state 3: [1]",
            "  state 4: [1]",
        ]

    def test_type_iii_witness(self, capsys):
        assert run_cli(["decide", BCN6, "--type", "III", "--witness"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["type III: observable", "  witness word [1]"]

    def test_states_without_rivals(self, tmp_path, capsys):
        injective = tmp_path / "plain.json"
        injective.write_text(json.dumps({
            "n": 1, "m": 1, "q": 1, "ordering": "input-first",
            "L": [1, 2, 1, 2], "H": [1, 2],
        }))
        assert run_cli(["decide", str(injective), "--type", "I", "--witness"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "type I: observable",
            "  state 1: any single input",
            "  state 2: any single input",
        ]

    def test_oracle_check(self, capsys):
        assert run_cli(["decide", BCN5, "--oracle-check"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "oracle I: horizon 1, not observable, agrees" in out
        assert "oracle II: horizon 2, observable, agrees" in out
        assert "oracle III: horizon 1, not observable, agrees" in out
        assert "oracle IV: horizon 3, not observable, agrees" in out
        assert out[-1] == "witnesses verified"

    def test_oracle_short_horizon_is_flagged(self, capsys, monkeypatch):
        monkeypatch.setenv("BCNOBS_ENUM_BUDGET", "2")  # one letter over M = 2 inputs
        code = run_cli(["decide", BCN5, "--type", "IV", "--oracle-check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle IV: horizon 1, not observable, agrees (horizon not conclusive)" in out

    def test_budget_env_clamps_horizon(self, capsys, monkeypatch):
        monkeypatch.setenv("BCNOBS_ENUM_BUDGET", "4")
        code = run_cli(["decide", BCN5, "--type", "II", "--oracle-check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle II: horizon 1, observable, agrees (horizon not conclusive)" in out

    def test_short_horizon_not_observable_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        # the least type II word for pair (1,2) is [1,1], so at the horizon 1
        # that a budget of 2 words allows the oracle finds none for it; that
        # proves nothing against the verdict
        monkeypatch.setenv("BCNOBS_ENUM_BUDGET", "2")
        network = gen_random_bcn(7, 2, 1, 1)
        document = tmp_path / "random7.json"
        document.write_text(json.dumps({
            "n": 2, "m": 1, "q": 1, "ordering": "input-first",
            "L": list(network.transition), "H": list(network.output_map),
        }))
        code = run_cli(["decide", str(document), "--type", "II", "--witness", "--oracle-check"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert "  pair (1,2): [1,1]" in out
        assert "oracle II: horizon 1, not observable, inconclusive (horizon not conclusive)" in out
        assert out[-1] == "witnesses verified"

    def test_type_iii_at_64_states_is_fast(self, tmp_path, capsys):
        # the full subset construction explores 2,139,762 subsets (about
        # 45 s) to reach this verdict; its seed holds a dead pair
        network = gen_random_bcn(1, 6, 1, 2)
        document = tmp_path / "random64.json"
        document.write_text(json.dumps({
            "n": 6, "m": 1, "q": 2, "ordering": "input-first",
            "L": list(network.transition), "H": list(network.output_map),
        }))
        target = tmp_path / "report.json"
        started = time.perf_counter()
        code = run_cli(["decide", str(document), "--type", "III", "--witness",
                        "--json", str(target)])
        elapsed = time.perf_counter() - started
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["type III: not observable"]
        verdict = json.loads(target.read_text())["verdicts"]["III"]
        assert verdict["observable"] is False and verdict["witness"] is None
        assert elapsed < 2.0

    def test_short_horizon_words_refute_verdict(self, capsys, monkeypatch):
        def wrong(network, graph):
            return Verdict(ObservabilityType.TYPE_II, False, offending_pair=(2, 3))

        monkeypatch.setitem(DECIDERS, ObservabilityType.TYPE_II, wrong)
        monkeypatch.setenv("BCNOBS_ENUM_BUDGET", "2")
        code = run_cli(["decide", BCN5, "--type", "II", "--oracle-check"])
        assert code == 1
        out = capsys.readouterr().out
        assert "oracle II: horizon 1, observable, DISAGREES (horizon not conclusive)" in out

    @pytest.mark.parametrize("name", ["bcn5", "bcn6", "bcn7"])
    def test_witness_oracle_stdout_and_report_bytes(self, tmp_path, capsys, name):
        target = tmp_path / "report.json"
        argv = ["decide", str(fixture_path(name)), "--witness", "--oracle-check"]
        assert run_cli(argv + ["--json", str(target)]) == 0
        assert capsys.readouterr().out == golden_text(f"{name}_decide", ".txt")
        report = json.loads(target.read_text())
        del report["timings_ms"]  # the one field that varies between runs
        assert json.dumps(report, indent=2) + "\n" == golden_text(f"{name}_decide", ".json")

    @pytest.mark.parametrize("name", ["bcn5", "bcn6", "bcn7"])
    def test_deciders_build_no_machine(self, capsys, monkeypatch, name):
        def refuse(*args):
            raise AssertionError("decide built a subset machine")

        monkeypatch.setattr(bcnobs.automata, "subset_automaton_ids", refuse)
        monkeypatch.setattr(bcnobs.observability, "subset_automaton_ids", refuse)
        argv = ["decide", str(fixture_path(name)), "--type", "all", "--witness", "--oracle-check"]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == golden_text(f"{name}_decide", ".txt")

    def test_json_report(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = run_cli(["decide", BCN5, "--oracle-check", "--json", str(target)])
        assert code == 0
        capsys.readouterr()
        report = json.loads(target.read_text())
        assert report["name"] == "bcn5"
        assert set(report["verdicts"]) == {"I", "II", "III", "IV"}
        assert set(report["timings_ms"]) == {"I", "II", "III", "IV"}
        assert all(block["agrees"] for block in report["oracle"].values())
        assert report["witnesses_verified"] is True


class TestGraph:
    def test_stdout(self, capsys, bcn5):
        assert run_cli(["graph", BCN5]) == 0
        assert capsys.readouterr().out == emit_dot(build(bcn5))

    def test_file_output(self, tmp_path, capsys, bcn6):
        target = tmp_path / "pairs.dot"
        assert run_cli(["graph", BCN6, "--dot", str(target)]) == 0
        capsys.readouterr()
        assert target.read_text() == emit_dot(build(bcn6))


class TestAutomata:
    def test_dot_dir_file_names(self, tmp_path, capsys):
        directory = tmp_path / "dots"
        code = run_cli(["automata", BCN5, "--type", "all", "--dot-dir", str(directory)])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        names = sorted(p.name for p in directory.iterdir())
        assert names == [
            "automaton_III_all_pairs.dot",
            "automaton_II_pair_2_3.dot",
            "automaton_II_pair_2_4.dot",
            "automaton_II_pair_3_4.dot",
            "automaton_IV_pair_2_3.dot",
            "automaton_IV_pair_2_4.dot",
            "automaton_IV_pair_3_4.dot",
            "automaton_I_state_2.dot",
            "automaton_I_state_3.dot",
            "automaton_I_state_4.dot",
        ]
        assert len(printed) == 10

    def test_stdout_headers(self, capsys, bcn6, graph6):
        assert run_cli(["automata", BCN6, "--type", "III"]) == 0
        out = capsys.readouterr().out
        expected = automaton_dot(graph6, sorted(non_diagonal_vertices(graph6)))
        assert out == "// automaton_III_all_pairs\n" + expected

    @pytest.mark.parametrize("name", ["bcn5", "bcn6", "bcn7"])
    def test_all_types_stdout_bytes(self, capsys, name):
        assert run_cli(["automata", str(fixture_path(name)), "--type", "all"]) == 0
        assert capsys.readouterr().out == golden_text(f"{name}_automata_all")

    def test_all_types_builds_per_pair_machines_once(self, capsys, monkeypatch):
        builds = []
        original = bcnobs.observability.subset_automaton_ids

        def counting(graph, seed, *rest):
            builds.append(list(seed))
            return original(graph, seed, *rest)

        monkeypatch.setattr(bcnobs.observability, "subset_automaton_ids", counting)
        assert run_cli(["automata", BCN5, "--type", "all"]) == 0
        capsys.readouterr()
        assert len(builds) == 7  # 3 type I states, 3 pairs shared by II and IV, 1 type III


class TestTwoDigitLabels:
    """Pair (i, j) is labeled 'ij' while j <= 9 and 'i-j' from j = 10 on;
    text and JSON output always write it 'i,j'."""

    @pytest.fixture
    def document(self, tmp_path):
        network = gen_random_bcn(0, 4, 1, 1)  # 16 states, one output bit
        path = tmp_path / "random16.json"
        path.write_text(json.dumps({
            "n": 4, "m": 1, "q": 1, "ordering": "input-first",
            "L": list(network.transition), "H": list(network.output_map),
        }))
        return str(path)

    def test_graph_vertices(self, capsys, document):
        assert run_cli(["graph", document]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert '  "29";' in lines and '  "2-10";' in lines and '  "1-12";' in lines
        assert '  "112";' not in lines

    def test_automaton_state_joins_pair_labels(self, capsys, document):
        assert run_cli(["automata", document, "--type", "I"]) == 0
        out = capsys.readouterr().out
        # state 1's machine starts from its six confusable pairs
        assert '// automaton_I_state_1\n' in out
        assert '  __start -> "13,14,16,1-12,1-15,1-16";\n' in out

    def test_witness_pairs(self, tmp_path, capsys, document):
        target = tmp_path / "report.json"
        argv = ["decide", document, "--type", "II", "--witness", "--json", str(target)]
        assert run_cli(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "type II: observable"
        assert "  pair (1,3): [2]" in lines and "  pair (1,12): [2]" in lines
        witnesses = json.loads(target.read_text())["verdicts"]["II"]["witnesses"]
        assert witnesses["1,3"] == [2] and witnesses["1,12"] == [2]


class TestErrors:
    def test_missing_file(self, capsys, tmp_path):
        code = run_cli(["decide", str(tmp_path / "nope.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot read")

    def test_malformed_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2}')
        assert run_cli(["decide", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decide", "graph"])
    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 200_000, b'{"n": ' + b"1" * 5000 + b"}"],
        ids=["not-utf8", "nested-too-deep", "int-too-long"],
    )
    def test_unparsable_bytes_are_bad_input(self, capsys, tmp_path, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert run_cli([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["decide", "graph"])
    @pytest.mark.parametrize("field", ["n", "m", "q"])
    @pytest.mark.parametrize(
        "body",
        [{"ordering": "state-first", "L": [], "H": []}, {"update": {}, "output": {}}],
        ids=["matrix", "table"],
    )
    def test_huge_variable_count_is_bad_input(self, capsys, tmp_path, command, field, body):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 1, "m": 1, "q": 1, field: 20_000, **body}))
        assert run_cli([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at most 32" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["abc", "-5", "0", "1"])
    def test_bad_budget_env(self, capsys, monkeypatch, value):
        monkeypatch.setenv("BCNOBS_ENUM_BUDGET", value)
        code = run_cli(["decide", BCN5, "--type", "II", "--oracle-check"])
        assert code == 2
        assert "BCNOBS_ENUM_BUDGET" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "1"])
    def test_bad_budget_fails_before_any_work(self, capsys, monkeypatch, tmp_path, value):
        monkeypatch.setenv("BCNOBS_ENUM_BUDGET", value)
        target = tmp_path / "r.json"
        assert run_cli(["decide", BCN5, "--oracle-check", "--json", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "BCNOBS_ENUM_BUDGET" in captured.err
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ["graph", BCN5, "--dot", "{missing}/g.dot"],
        ["automata", BCN5, "--type", "all", "--dot-dir", "{taken}"],
        ["decide", BCN5, "--json", "{missing}/r.json"],
    ], ids=["graph", "automata", "decide"])
    def test_unwritable_path_fails_before_building(self, capsys, monkeypatch, tmp_path, argv):
        def refuse(network):
            raise AssertionError("built the pair graph before checking the output path")

        monkeypatch.setattr(cli, "build", refuse)
        (tmp_path / "taken").write_text("")
        paths = {"missing": tmp_path / "missing", "taken": tmp_path / "taken"}
        assert run_cli([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(network, graph):
            raise ValueError("shape mismatch")

        monkeypatch.setitem(DECIDERS, ObservabilityType.TYPE_II, broken)
        assert run_cli(["decide", BCN5, "--type", "II"]) == 3
        err = capsys.readouterr().err
        assert "ValueError: shape mismatch" in err
        assert "internal fault" in err

    def test_unwritable_json_path_is_bad_input(self, capsys, tmp_path, monkeypatch):
        # no decider may run: with none to call, deciding would be a fault
        monkeypatch.setattr(cli, "DECIDERS", {})
        target = tmp_path / "missing" / "r.json"
        assert run_cli(["decide", BCN5, "--json", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    def test_unwritable_dot_path_is_bad_input(self, capsys, tmp_path):
        target = tmp_path / "missing" / "g.dot"
        assert run_cli(["graph", BCN5, "--dot", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_dot_dir_that_is_a_file_is_bad_input(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli(["automata", BCN5, "--type", "all", "--dot-dir", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["decide"])  # argparse: missing file operand
        assert excinfo.value.code == 2


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(FIXTURE_DIR.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "bcnobs.cli", "decide", BCN5],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == BCN5_VERDICTS


def test_console_script():
    exe = shutil.which("bcnobs")
    assert exe is not None, "console script not installed"
    proc = subprocess.run(
        [exe, "decide", BCN5, "--type", "II"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "type II: observable"
