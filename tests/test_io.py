import json
import random
import re
import time

import pytest
from hypothesis import given, strategies as st

from bcnobs.bcn import Bcn
from bcnobs.bcnio import (
    BcnDocument,
    DocumentError,
    build_report,
    document_to_bcn,
    emit_dot,
    gen_random_bcn,
    load_document,
    parse_bcn,
    parse_document,
)
from bcnobs.cli import run_cli
from bcnobs.observability import DECIDERS, ObservabilityType
from bcnobs.oracle import brute_force
from bcnobs.pairgraph import build

from conftest import fixture_path, golden_text
from dotcheck import dot_structure, validate_dot
from pairviews import PairVertex, automaton_dot, non_diagonal_vertices
from reference import (
    bcn_from_columns,
    compile_document,
    index_to_bool_tuple,
    output,
    serialize_document,
    step,
)


def v(a, b):
    return PairVertex(a, b)


MATRIX_DOCUMENT = {
    "n": 2, "m": 1, "q": 1, "ordering": "state-first",
    "L": [1, 1, 2, 1, 2, 4, 1, 1], "H": [1, 2, 2, 2],
}
DOCUMENT_ERRORS = [
    (lambda d: d.pop("ordering"), "ordering"),
    (lambda d: d.update(ordering="columnwise"), "ordering"),
    (lambda d: d.pop("n"), "positive integer"),
    (lambda d: d.update(n=0), "positive integer"),
    (lambda d: d.update(n=True), "positive integer"),
    (lambda d: d.pop("H"), "both 'L' and 'H'"),
    (lambda d: d.update(L=[1, 1, 2, 1]), "columns"),
    (lambda d: d.update(L=[1, 1, 2, 1, 2, 9, 1, 1]), "not an int in"),
    (lambda d: d.update(H=[1, 2, 2, True]), "not an int in"),
    (lambda d: d.update(extra=1), "unknown fields"),
    (lambda d: d.update(name=7), "name"),
    (lambda d: d.update(update={}), "not both"),
]
TABLE_DOCUMENT = {
    "n": 1, "m": 1, "q": 1,
    "update": {"11": "1", "10": "0", "01": "0", "00": "1"},
    "output": {"1": "1", "0": "0"},
}
TABLE_ERRORS = [
    (lambda d: d["update"].pop("11"), "rows"),
    (lambda d: d["update"].update({"111": d["update"].pop("11")}), "bit"),
    (lambda d: d["update"].update({"11": "11"}), "bit"),
    (lambda d: d["update"].update({"1a": d["update"].pop("11")}), "bit"),
    (lambda d: d.pop("output"), "both 'update' and 'output'"),
    (lambda d: d.update(ordering="state-first"), "matrix form"),
]


def _mutated(document, mutate):
    document = json.loads(json.dumps(document))
    mutate(document)
    return json.dumps(document)


class TestParsing:
    def test_fixture_document(self):
        document = load_document(fixture_path("bcn5"))
        assert document.name == "bcn5"
        network = document.network
        assert (network.n_states, network.n_inputs, network.n_outputs) == (4, 2, 2)
        # the state-first L of the file, held input-first
        assert network.transition == (1, 2, 2, 1, 1, 1, 4, 1)
        assert network.output_map == (1, 2, 2, 2)
        assert document_to_bcn(document) is network
        assert step(network, 3, 2) == 4
        assert output(network, 3) == 2

    def test_orderings_are_honoured(self):
        state_first = parse_bcn(json.dumps({
            "n": 2, "m": 1, "q": 1, "ordering": "state-first",
            "L": [1, 1, 2, 1, 2, 4, 1, 1], "H": [1, 2, 2, 2],
        }))
        input_first = parse_bcn(json.dumps({
            "n": 2, "m": 1, "q": 1, "ordering": "input-first",
            "L": [1, 2, 2, 1, 1, 1, 4, 1], "H": [1, 2, 2, 2],
        }))
        assert state_first == input_first

    @pytest.mark.parametrize("mutate,match", DOCUMENT_ERRORS)
    def test_document_errors(self, mutate, match):
        with pytest.raises(DocumentError, match=match):
            parse_document(_mutated(MATRIX_DOCUMENT, mutate))

    def test_rejects_non_json_and_non_object(self):
        with pytest.raises(DocumentError, match="JSON"):
            parse_document("{nope")
        with pytest.raises(DocumentError, match="object"):
            parse_document("[1, 2]")
        with pytest.raises(DocumentError, match="body"):
            parse_document(json.dumps({"n": 1, "m": 1, "q": 1}))

    @pytest.mark.parametrize("name", ["bcn5", "bcn6", "bcn7"])
    def test_document_unpacks_as_network_and_name(self, name):
        network, document_name = load_document(fixture_path(name))
        assert document_name == name
        assert network == compile_document(json.loads(fixture_path(name).read_text()))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read"):
            load_document(tmp_path / "absent.json")


def _bits(index, width):
    return "".join("1" if b else "0" for b in index_to_bool_tuple(index, width))


def _tables_from(network, n, m, q):
    update = {}
    for control in range(1, network.n_inputs + 1):
        for state in range(1, network.n_states + 1):
            key = _bits(control, m) + _bits(state, n)
            update[key] = _bits(step(network, state, control), n)
    out = {
        _bits(state, n): _bits(output(network, state), q)
        for state in range(1, network.n_states + 1)
    }
    return update, out


class TestTruthTableForm:
    def test_handwritten_xnor(self):
        network = parse_bcn(json.dumps(TABLE_DOCUMENT))
        assert network.transition == (1, 2, 2, 1)
        assert network.output_map == (1, 2)

    def test_matches_matrix_form(self, bcn5):
        update, out = _tables_from(bcn5, 2, 1, 1)
        network = parse_bcn(json.dumps(
            {"n": 2, "m": 1, "q": 1, "update": update, "output": out}
        ))
        assert network == bcn5

    @pytest.mark.parametrize("mutate,match", TABLE_ERRORS)
    def test_table_errors(self, mutate, match):
        with pytest.raises(DocumentError, match=match):
            parse_document(_mutated(TABLE_DOCUMENT, mutate))

    @pytest.mark.parametrize("update,output_table", [
        ({"11": "1", "10": "0", "01": "0", "0": "1"}, {"1": "1", "0": "0"}),
        ({"11": "1", "10": "0", "01": "0", "111": "1"}, {"1": "1", "0": "0"}),
        ({"11": "1", "10": "0", "01": "0", "00": "1"}, {"1": "00", "0": "0"}),
        ({"11": "1", "10": "0", "01": "0", "0_": "1"}, {"1": "1", "0": "0"}),
        ({"11": "1", "10": "0", "01": "0", "00": "1"}, {"1": "1", "0": "+"}),
    ])
    def test_compile_rejects_malformed_rows(self, update, output_table):
        text = json.dumps({"n": 1, "m": 1, "q": 1, "update": update, "output": output_table})
        with pytest.raises(DocumentError, match="must be a [12]-bit 0/1 string"):
            parse_document(text)

    def test_compile_rejects_missing_row(self):
        text = json.dumps({
            "n": 1, "m": 1, "q": 1,
            "update": {"11": "1", "10": "0", "01": "0"}, "output": {"1": "1", "0": "0"},
        })
        with pytest.raises(DocumentError, match="'update' has 3 rows, expected 4"):
            parse_document(text)

    def test_hand_built_document_is_checked_at_compile(self):
        # a document holds a Bcn, which checks its maps when it is built
        with pytest.raises(ValueError, match="transition map column 4 is 0"):
            BcnDocument(Bcn(2, 2, 2, (1, 2, 2, 0), (1, 2)))


class TestRejectionThroughCli:
    """Every rejected document is bad input to the commands that read one."""

    @pytest.mark.parametrize("command", ["decide", "graph"])
    @pytest.mark.parametrize(
        "document,mutate,match",
        [(MATRIX_DOCUMENT, *case) for case in DOCUMENT_ERRORS]
        + [(TABLE_DOCUMENT, *case) for case in TABLE_ERRORS],
    )
    def test_exits_2_naming_the_field(self, capsys, tmp_path, command, document, mutate, match):
        bad = tmp_path / "bad.json"
        bad.write_text(_mutated(document, mutate))
        assert run_cli([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert re.search(match, err)

    @pytest.mark.parametrize("command", ["decide", "graph"])
    def test_row_count_checked_before_columns(self, capsys, tmp_path, command):
        # 2^64 update columns: only a count taken before any list is formed finishes
        bad = tmp_path / "wide.json"
        bad.write_text(json.dumps({**TABLE_DOCUMENT, "n": 32, "m": 32}))
        started = time.perf_counter()
        assert run_cli([command, str(bad)]) == 2
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'update' has 4 rows" in err


class TestRoundTrip:
    def test_matrix_document(self):
        document = load_document(fixture_path("bcn6"))
        assert parse_document(serialize_document(document)) == document

    def test_table_document(self, bcn7):
        update, out = _tables_from(bcn7, 2, 1, 1)
        document = parse_document(json.dumps(
            {"name": "tabled", "n": 2, "m": 1, "q": 1, "update": update, "output": out}
        ))
        recovered = parse_document(serialize_document(document))
        assert recovered == document
        assert recovered.network == bcn7

    @given(st.integers(0, 2 ** 32))
    def test_generated_documents(self, seed):
        network = gen_random_bcn(seed, 2, 1, 1)
        recovered = parse_document(serialize_document(BcnDocument(network)))
        assert recovered == (network, None)


def _three_bodies(network, n, m, q):
    """The network as state-first, input-first and truth-table document texts."""
    state_first = [
        step(network, state, control)
        for state in range(1, network.n_states + 1)
        for control in range(1, network.n_inputs + 1)
    ]
    update, out = _tables_from(network, n, m, q)
    h = list(network.output_map)
    bodies = [
        {"ordering": "state-first", "L": state_first, "H": h},
        {"ordering": "input-first", "L": list(network.transition), "H": h},
        {"update": update, "output": out},
    ]
    return [json.dumps({"n": n, "m": m, "q": q, **body}) for body in bodies]


def _assert_compiles_as_reference(network, n, m, q):
    for text in _three_bodies(network, n, m, q):
        assert parse_document(text).network == compile_document(json.loads(text)) == network


class TestCompileAgainstReference:
    """The networks parse_document builds against the general converters
    it replaced."""

    @pytest.mark.parametrize("name", ["bcn5", "bcn6", "bcn7"])
    def test_fixtures(self, name):
        path = fixture_path(name)
        raw = json.loads(path.read_text())
        network = compile_document(raw)
        assert load_document(path).network == network
        _assert_compiles_as_reference(network, raw["n"], raw["m"], raw["q"])

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_random_networks(self, n, m, q):
        for seed in (100 * n + 10 * m + q, 1000 + 100 * n + 10 * m + q):
            _assert_compiles_as_reference(gen_random_bcn(seed, n, m, q), n, m, q)

    def test_4096_states(self):
        rng = random.Random(4096)
        n_states = 2 ** 12
        network = bcn_from_columns(
            12, 1, 3,
            [rng.randint(1, n_states) for _ in range(2 * n_states)],
            [rng.randint(1, 8) for _ in range(n_states)],
            "input-first",
        )
        _assert_compiles_as_reference(network, 12, 1, 3)


GOLDEN_PAIR_GRAPHS = [("bcn5", "bcn5_pair_graph"), ("bcn6", "bcn6_pair_graph"), ("bcn7", "bcn7_pair_graph")]


class TestDot:
    @pytest.mark.parametrize("fixture,golden", GOLDEN_PAIR_GRAPHS)
    def test_pair_graphs_match_goldens(self, fixture, golden, request):
        text = emit_dot(build(request.getfixturevalue(fixture)))
        validate_dot(text)
        assert text == golden_text(golden)

    def test_subset_machines_match_goldens(self, graph5, graph7):
        cases = [
            (graph5, [v(2, 3), v(2, 4)], "bcn5_subset_state2"),
            (graph5, sorted(non_diagonal_vertices(graph5)), "bcn5_subset_all_pairs"),
            (graph7, sorted(non_diagonal_vertices(graph7)), "bcn7_subset_all_pairs"),
            (graph7, [v(1, 2)], "bcn7_subset_state1"),
            (graph7, [v(3, 4)], "bcn7_subset_state3"),
        ]
        for graph, seed, golden in cases:
            text = automaton_dot(graph, seed)
            validate_dot(text)
            assert dot_structure(text) == dot_structure(golden_text(golden))

    def test_vertex_machines_match_goldens(self, graph5):
        for vertex, golden in [
            (v(2, 3), "bcn5_vertex_pair23"),
            (v(2, 4), "bcn5_vertex_pair24"),
            (v(3, 4), "bcn5_vertex_pair34"),
        ]:
            text = automaton_dot(graph5, [vertex])
            validate_dot(text)
            assert dot_structure(text) == dot_structure(golden_text(golden))

    def test_byte_stable(self, bcn5):
        first = emit_dot(build(bcn5))
        second = emit_dot(build(bcn5))
        assert first == second

    def test_initial_and_finals_read_back(self, graph5):
        nodes, edges, initial, finals = dot_structure(automaton_dot(graph5, [v(2, 4)]))
        assert initial == "24"
        assert finals == nodes == frozenset({"24", "11"})
        assert edges[("24", "11")] == "2"


class TestRandomGeneration:
    def test_deterministic(self):
        assert gen_random_bcn(42, 2, 1, 1) == gen_random_bcn(42, 2, 1, 1)
        assert gen_random_bcn(42, 2, 1, 1) != gen_random_bcn(43, 2, 1, 1)

    def test_dimensions(self):
        network = gen_random_bcn(0, 3, 2, 1)
        assert (network.n_states, network.n_inputs, network.n_outputs) == (8, 4, 2)
        assert len(network.transition) == 32

    @pytest.mark.parametrize("n,m,q", [(0, 1, 1), (9, 1, 1), (8, 8, 1), (1, 0, 1)])
    def test_bounds(self, n, m, q):
        with pytest.raises(ValueError):
            gen_random_bcn(0, n, m, q)


class TestReport:
    def test_shape_and_serialisability(self, bcn5, graph5):
        verdicts = {kind: DECIDERS[kind](bcn5, graph5) for kind in ObservabilityType}
        oracle_results = {
            kind: brute_force(bcn5, kind, 3, sufficient_horizon=3)
            for kind in ObservabilityType
        }
        report = build_report(
            bcn5,
            verdicts,
            name="bcn5",
            timings_ms={kind: 0.5 for kind in ObservabilityType},
            oracle_results=oracle_results,
            witnesses_verified=True,
        )
        text = json.dumps(report)  # must be JSON-ready as built
        assert json.loads(text) == report
        assert report["name"] == "bcn5"
        assert report["dimensions"] == {"states": 4, "inputs": 2, "outputs": 2}
        assert report["confusable_pairs"] == 3
        assert report["verdicts"]["I"]["observable"] is False
        assert report["verdicts"]["I"]["offending_state"] == 2
        assert report["verdicts"]["II"]["witnesses"] == {"2,3": [2], "2,4": [1], "3,4": [1]}
        assert report["verdicts"]["III"]["witness"] is None
        assert report["verdicts"]["IV"]["lasso"] == {"prefix": [1, 2], "cycle": [1]}
        assert all(block["agrees"] for block in report["oracle"].values())
        assert report["witnesses_verified"] is True
