"""Acceptance suite: every criterion in one test with a visible verdict line.

Each test prints exactly one `[acceptance] criterion N (...): PASS/FAIL`
line outside pytest's capture, and enforces the stated runtime bound.
"""

import itertools
import time
from contextlib import contextmanager

import pytest

from bcnobs.bcnio import emit_dot, gen_random_bcn
from bcnobs.observability import (
    DECIDERS,
    ObservabilityType,
    implication_matrix,
    type_automata,
)
from bcnobs.oracle import brute_force, distinguishes, verify_witness
from bcnobs.pairgraph import build

from conftest import golden_text
from dotcheck import dot_structure
from pairviews import PairVertex, automaton_dot, edges, non_diagonal_vertices, subset_automaton, vertex_automaton
from reference import accepts, shortest_undefined_word

T_I = ObservabilityType.TYPE_I
T_II = ObservabilityType.TYPE_II
T_III = ObservabilityType.TYPE_III
T_IV = ObservabilityType.TYPE_IV


def v(a, b):
    return PairVertex(a, b)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def runner(number, label, budget_ms=None):
        started = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance] criterion {number} ({label}): FAIL")
            raise
        elapsed = (time.perf_counter() - started) * 1000.0
        if budget_ms is not None and elapsed >= budget_ms:
            with capsys.disabled():
                print(
                    f"[acceptance] criterion {number} ({label}): FAIL"
                    f" (took {elapsed:.1f} ms, budget {budget_ms} ms)"
                )
            raise AssertionError(f"criterion {number} exceeded {budget_ms} ms: {elapsed:.1f} ms")
        with capsys.disabled():
            print(f"[acceptance] criterion {number} ({label}): PASS ({elapsed:.1f} ms)")

    return runner


def test_criterion_1_pair_graph_fixture(criterion, bcn5):
    with criterion(1, "pair-graph fixture", budget_ms=10.0):
        graph = build(bcn5)
        assert graph.vertices == frozenset(
            {v(1, 1), v(2, 2), v(3, 3), v(4, 4), v(2, 3), v(2, 4), v(3, 4)}
        )
        assert edges(graph) == {
            (v(1, 1), v(1, 1)): (1, 2),
            (v(2, 2), v(2, 2)): (1,),
            (v(2, 2), v(1, 1)): (2,),
            (v(2, 3), v(2, 2)): (1,),
            (v(2, 4), v(1, 1)): (2,),
            (v(3, 3), v(2, 2)): (1,),
            (v(3, 3), v(4, 4)): (2,),
            (v(4, 4), v(1, 1)): (1, 2),
        }
        assert dot_structure(emit_dot(graph)) == dot_structure(golden_text("bcn5_pair_graph"))


def test_criterion_2_automaton_fixtures(criterion, graph5, graph7):
    with criterion(2, "automaton fixtures", budget_ms=50.0):
        state2 = subset_automaton(graph5, [v(2, 3), v(2, 4)])
        assert len(state2.states) == 3 and shortest_undefined_word(state2) is None
        assert dot_structure(automaton_dot(graph5, [v(2, 3), v(2, 4)])) == dot_structure(golden_text("bcn5_subset_state2"))

        expected = {
            v(2, 3): (3, {2}, "bcn5_vertex_pair23"),
            v(2, 4): (2, {1}, "bcn5_vertex_pair24"),
            v(3, 4): (1, {1, 2}, "bcn5_vertex_pair34"),
        }
        for vertex, (n_states, holes, golden) in expected.items():
            dfa = vertex_automaton(graph5, vertex)
            assert len(dfa.states) == n_states
            undefined = set(range(1, dfa.alphabet_size + 1)) - set(dfa.transitions[dfa.initial])
            assert undefined == holes
            assert dot_structure(automaton_dot(graph5, [vertex])) == dot_structure(golden_text(golden))

        nondiag7 = sorted(non_diagonal_vertices(graph7))
        all_pairs7 = subset_automaton(graph7, nondiag7)
        assert len(all_pairs7.states) == 4 and shortest_undefined_word(all_pairs7) is None
        assert dot_structure(automaton_dot(graph7, nondiag7)) == dot_structure(golden_text("bcn7_subset_all_pairs"))

        for seed, golden in [([v(1, 2)], "bcn7_subset_state1"), ([v(3, 4)], "bcn7_subset_state3")]:
            assert dot_structure(automaton_dot(graph7, seed)) == dot_structure(golden_text(golden))


VERDICT_TABLE = {
    "bcn5": (False, True, False, False),
    "bcn6": (True, True, True, False),
    "bcn7": (True, True, False, False),
}


def test_criterion_3_verdict_table(criterion, bcn5, bcn6, bcn7):
    networks = {"bcn5": bcn5, "bcn6": bcn6, "bcn7": bcn7}
    with criterion(3, "verdict table", budget_ms=100.0):
        for name, network in networks.items():
            graph = build(network)
            flags = tuple(
                DECIDERS[kind](network, graph).observable for kind in ObservabilityType
            )
            assert flags == VERDICT_TABLE[name], name


def _emitted_witnesses(network):
    """(kind, payload) for every witness the deciders emit on this network."""
    graph = build(network)
    for kind in ObservabilityType:
        verdict = DECIDERS[kind](network, graph)
        if kind is T_I and verdict.observable:
            for state, word in verdict.determining.items():
                yield kind, (state, word)
        elif kind is T_II and verdict.observable:
            for pair, word in verdict.distinguishing.items():
                yield kind, (tuple(pair), word)
        elif kind is T_III and verdict.observable:
            yield kind, verdict.universal_word
        elif kind is T_IV and not verdict.observable:
            lasso = verdict.lasso
            yield kind, (tuple(lasso.source), lasso.prefix, lasso.cycle)


def test_criterion_4_witness_verification(criterion, bcn5, bcn6, bcn7):
    with criterion(4, "witness verification"):
        checked = 0
        for network in (bcn5, bcn6, bcn7):
            for kind, payload in _emitted_witnesses(network):
                assert verify_witness(network, kind, payload), (kind, payload)
                checked += 1
        assert checked > 0

        verdict = DECIDERS[T_II](bcn5, build(bcn5))
        assert verdict.distinguishing == {v(2, 3): (2,), v(2, 4): (1,), v(3, 4): (1,)}


SUITE_SEEDS = range(500)
SAMPLE_SEEDS = range(10000, 10100)


def test_criterion_5_pair_horizon_agreement(criterion):
    with criterion(5, "bounded-horizon agreement on 500 networks", budget_ms=60_000.0):
        disagreements = 0
        for seed in SUITE_SEEDS:
            network = gen_random_bcn(seed, 2, 1, 1)
            graph = build(network)
            horizon = max(len(non_diagonal_vertices(graph)), 1)
            for kind in (T_II, T_IV):
                verdict = DECIDERS[kind](network, graph)
                result = brute_force(network, kind, horizon, sufficient_horizon=horizon)
                if verdict.observable != result.observable:
                    disagreements += 1
        assert disagreements == 0


def test_criterion_6_implication_lattice(criterion, bcn5, bcn6, bcn7):
    with criterion(6, "implication lattice and strictness"):
        for seed in SUITE_SEEDS:
            report = implication_matrix(gen_random_bcn(seed, 2, 1, 1))
            assert report.consistent, f"seed {seed}: {report.violations}"
        reports = {name: implication_matrix(net) for name, net in
                   [("bcn5", bcn5), ("bcn6", bcn6), ("bcn7", bcn7)]}
        for report in reports.values():
            assert report.consistent
        # one-way arrows: each fixture breaks one converse
        for name, held, failed in (("bcn5", T_II, T_I), ("bcn6", T_III, T_IV), ("bcn7", T_I, T_III)):
            verdicts = reports[name].verdicts
            assert verdicts[held].observable and not verdicts[failed].observable


def _all_words_accepted_up_to(dfa, bound):
    """Whether every word of length <= bound is accepted.

    Evaluated layer by layer: the states reachable by words of length k,
    for k = 0..bound.  Equivalent to enumerating the words themselves but
    stays polynomial when the machine is large and complete.
    """
    layer = {dfa.initial}
    for _ in range(bound):
        following = set()
        for state in layer:
            row = dfa.transitions[state]
            if len(row) < dfa.alphabet_size:
                return False
            following.update(row.values())
        layer = following
    return True


def _bounded_acceptance_matches(dfa):
    bound = len(dfa.states) + 1
    accepted = _all_words_accepted_up_to(dfa, bound)
    if dfa.alphabet_size ** bound <= 8192:
        words = itertools.chain.from_iterable(
            itertools.product(range(1, dfa.alphabet_size + 1), repeat=length)
            for length in range(0, bound + 1)
        )
        assert accepted == all(accepts(dfa, w) for w in words)
    return (shortest_undefined_word(dfa) is None) == accepted


def test_criterion_7_completeness_bound(criterion, graph5, graph7):
    with criterion(7, "completeness versus bounded acceptance", budget_ms=30_000.0):
        fixture_machines = [
            subset_automaton(graph5, [v(2, 3), v(2, 4)]),
            vertex_automaton(graph5, v(2, 3)),
            vertex_automaton(graph5, v(2, 4)),
            vertex_automaton(graph5, v(3, 4)),
            subset_automaton(graph7, sorted(non_diagonal_vertices(graph7))),
            subset_automaton(graph7, [v(1, 2)]),
            subset_automaton(graph7, [v(3, 4)]),
        ]
        for dfa in fixture_machines:
            assert _bounded_acceptance_matches(dfa)
        for seed in SAMPLE_SEEDS:
            network = gen_random_bcn(seed, 2, 1, 1)
            graph = build(network)
            for kind in ObservabilityType:
                for _, dfa in type_automata(network, kind, graph):
                    assert _bounded_acceptance_matches(dfa), f"seed {seed}"


def test_criterion_8_language_semantics(criterion, bcn5, bcn6, bcn7):
    with criterion(8, "pair-machine language semantics"):
        words = [()] + [
            w
            for length in range(1, 5)
            for w in itertools.product((1, 2), repeat=length)
        ]
        for network in (bcn5, bcn6, bcn7):
            graph = build(network)
            for vertex in sorted(non_diagonal_vertices(graph)):
                dfa = vertex_automaton(graph, vertex)
                for word in words:
                    survived = not distinguishes(network, vertex.lo, vertex.hi, word)
                    assert accepts(dfa, word) == survived
