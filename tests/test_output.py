"""The bulk output path (DOT, verdict lines, JSON report) against the one it
replaced (tests/reference.py), byte for byte."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from bcnobs.bcnio import (
    build_report,
    emit_automaton_dot,
    emit_dot,
    gen_random_bcn,
    report_text,
    parse_bcn,
)
from bcnobs.cli import _verdict_lines, run_cli
from bcnobs.observability import DECIDERS, ObservabilityType, type_automata
from bcnobs.oracle import brute_force
from bcnobs.pairgraph import build

import reference
from conftest import fixture_path

T_I, T_II, T_III, T_IV = ObservabilityType


def _networks(request, count=60, seed=7):
    """The fixtures, then seeded random networks of 2 to 256 states, the
    256-state ones with one output bit so that their pair labels run from
    '12' past '9-10' and '10-11' to '99-100'."""
    for name in ("bcn5", "bcn6", "bcn7"):
        yield name, request.getfixturevalue(name)
    rng = random.Random(seed)
    for index in range(count):
        n, m, q = rng.randint(1, 8), rng.randint(1, 2), rng.randint(1, 3)
        yield f"seed {index} ({n},{m},{q})", gen_random_bcn(index, n, m, q)
    for index in range(3):
        yield f"seed {index} (8,1,1)", gen_random_bcn(index, 8, 1, 1)


def test_pair_graph_dot_matches_reference(request):
    labels = set()
    for label, network in _networks(request):
        graph = build(network)
        text = emit_dot(graph)
        assert text == reference.emit_dot(graph), label
        labels.update(line.strip() for line in text.splitlines())
    # string order and integer order of these labels disagree
    assert {'"9-10";', '"10-11";', '"99-100";'} <= labels


def test_automaton_dot_matches_reference(request):
    machines = 0
    for label, network in _networks(request):
        if network.n_states > 16:  # the type I and III machines stay small
            continue
        graph = build(network)
        for kind in (T_I, T_II, T_III):  # type IV lists the type II machines
            for name, dfa in type_automata(graph, kind):
                assert emit_automaton_dot(graph, dfa) == reference.emit_automaton_dot(
                    graph, dfa
                ), (label, name)
                machines += 1
    assert machines > 100


def test_verdict_lines_match_reference(request):
    for label, network in _networks(request):
        graph = build(network)
        kinds = ObservabilityType if network.n_states <= 32 else (T_II, T_IV)
        for kind in kinds:
            verdict = DECIDERS[kind](network, graph)
            for show in (False, True):
                assert _verdict_lines(verdict, show) == reference.verdict_lines(
                    verdict, show
                ), (label, kind, show)


NO_CONFUSION = parse_bcn(json.dumps(  # every state has its own output
    {"n": 1, "m": 1, "q": 1, "ordering": "state-first", "L": [1, 2, 2, 1], "H": [1, 2]}
))


@pytest.mark.parametrize("name", [
    "bcn5", 'quote " backslash \\ slash /', "naïve ☃ \U0001d11e", "tab\tnul\x00bell\x07\x1f\x7f", None,
])
@pytest.mark.parametrize("network", ["bcn5", "bcn7", "no-confusion"])
def test_report_text_is_json_dumps(request, name, network):
    network = NO_CONFUSION if network == "no-confusion" else request.getfixturevalue(network)
    graph = build(network)
    verdicts = {kind: DECIDERS[kind](network, graph) for kind in ObservabilityType}
    oracle = {kind: brute_force(network, kind, 3, sufficient_horizon=3) for kind in verdicts}
    timings = {kind: value for kind, value in zip(verdicts, (0.5, 1e-4, 12345.678, 0.0))}
    for report in (
        build_report(network, verdicts, name=name),
        build_report(network, verdicts, name, timings, oracle, witnesses_verified=False),
    ):
        assert report_text(report) == json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    {},
    [],
    {"a": [], "b": {}, "c": [[]], "d": [{}]},
    {"words": {"1,2": [1, 2], "1,3": [], "2,3": [1, 2]}, "lists": [[3], [], [3], [4, 5]]},
    {"bools": {"x": [True, 1], "y": [1]}, "mixed": [1, True, None, 2.5, "s"], "b": [[1], [True]]},
    {"floats": [1.0, -0.0, 1e-07, 1e20, float("nan"), float("inf")], "big": [2 ** 70, -3]},
    {"tuple": (1, 2), "nested": {"k": [(3,), [4, [5]]]}, "é\n": " "},
])
def test_report_text_of_any_json_value(value):
    assert report_text(value) == json.dumps(value, indent=2) + "\n"


_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028'), max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 80), 2 ** 80) | st.floats() | _TEXT,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_TEXT, inner),
    max_leaves=12,
)


@given(_JSON_VALUES)
def test_report_text_of_drawn_json_values(value):
    assert report_text(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("name", ["bcn5", "bcn6", "bcn7"])
def test_report_file_is_json_dumps(tmp_path, capsys, name):
    target = tmp_path / "report.json"
    argv = ["decide", str(fixture_path(name)), "--witness", "--oracle-check"]
    assert run_cli(argv + ["--json", str(target)]) == 0
    capsys.readouterr()
    text = target.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
