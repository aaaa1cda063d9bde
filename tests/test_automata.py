import itertools
import json

import pytest
from hypothesis import given, strategies as st

from bcnobs.automata import Lasso, find_lasso, least_hole
from bcnobs.bcn import bcn_from_columns
from bcnobs.bcnio import gen_random_bcn
from bcnobs.pairgraph import build

import reference
from conftest import golden_text
from pairviews import PairVertex, ids, non_diagonal_vertices, subset_automaton, vertex_automaton
from reference import accepts, shortest_undefined_word


def v(a, b):
    return PairVertex(a, b)


def s(*pairs):
    return tuple(sorted(v(a, b) for a, b in pairs))


class TestSubsetAutomaton:
    def test_bcn5_state2_machine(self, graph5):
        dfa = subset_automaton(graph5, [v(2, 3), v(2, 4)])
        assert dfa.initial == s((2, 3), (2, 4))
        assert set(dfa.states) == {s((2, 3), (2, 4)), s((2, 2)), s((1, 1))}
        assert dfa.transitions == {
            s((2, 3), (2, 4)): {1: s((2, 2)), 2: s((1, 1))},
            s((2, 2)): {1: s((2, 2)), 2: s((1, 1))},
            s((1, 1)): {1: s((1, 1)), 2: s((1, 1))},
        }
        assert shortest_undefined_word(dfa) is None

    def test_bcn5_all_pairs_machine(self, graph5):
        dfa = subset_automaton(graph5, sorted(non_diagonal_vertices(graph5)))
        assert len(dfa.states) == 3
        assert shortest_undefined_word(dfa) is None

    def test_bcn7_all_pairs_machine(self, graph7):
        dfa = subset_automaton(graph7, sorted(non_diagonal_vertices(graph7)))
        assert dfa.initial == s((1, 2), (3, 4))
        assert set(dfa.states) == {
            s((1, 2), (3, 4)), s((1, 1)), s((2, 2)), s((3, 3)),
        }
        assert dfa.transitions[s((1, 2), (3, 4))] == {1: s((1, 1)), 2: s((2, 2))}
        assert dfa.transitions[s((2, 2))] == {1: s((1, 1)), 2: s((3, 3))}
        assert dfa.transitions[s((3, 3))] == {1: s((1, 1)), 2: s((2, 2))}
        assert shortest_undefined_word(dfa) is None

    def test_bcn7_single_state_machines(self, graph7):
        state1 = subset_automaton(graph7, [v(1, 2)])
        assert len(state1.states) == 2
        assert shortest_undefined_word(state1) == (2,)
        state3 = subset_automaton(graph7, [v(3, 4)])
        assert len(state3.states) == 4
        assert shortest_undefined_word(state3) == (1,)

    def test_all_states_final_and_reachable(self, graph5, graph7):
        for graph in (graph5, graph7):
            for vertex in sorted(non_diagonal_vertices(graph)):
                dfa = subset_automaton(graph, [vertex])
                assert dfa.states[0] == dfa.initial
                reached = {dfa.initial}
                frontier = [dfa.initial]
                while frontier:
                    here = frontier.pop()
                    for target in dfa.transitions[here].values():
                        if target not in reached:
                            reached.add(target)
                            frontier.append(target)
                assert reached == set(dfa.states)


class TestVertexAutomaton:
    def test_bcn5_shapes(self, graph5):
        expected = {
            v(2, 3): (3, (2,)),
            v(2, 4): (2, (1,)),
            v(3, 4): (1, (1,)),
        }
        for vertex, (size, hole) in expected.items():
            dfa = vertex_automaton(graph5, vertex)
            assert len(dfa.states) == size
            assert shortest_undefined_word(dfa) == hole

    def test_undefined_inputs_at_initial(self, graph5):
        undefined = {
            vertex: sorted(
                set((1, 2)) - set(vertex_automaton(graph5, vertex).transitions[vertex])
            )
            for vertex in sorted(non_diagonal_vertices(graph5))
        }
        assert undefined == {v(2, 3): [2], v(2, 4): [1], v(3, 4): [1, 2]}

    def test_transitions_mirror_graph(self, graph5):
        dfa = vertex_automaton(graph5, v(2, 3))
        assert set(dfa.states) == {v(2, 3), v(2, 2), v(1, 1)}
        for state in dfa.states:
            assert dfa.transitions[state] == graph5.successor[state]


class TestAccepts:
    def test_empty_word_accepted(self, graph5):
        dfa = vertex_automaton(graph5, v(3, 4))
        assert accepts(dfa, ())

    def test_runs_off_map(self, graph5):
        dfa = vertex_automaton(graph5, v(2, 4))
        assert not accepts(dfa, (1,))
        assert accepts(dfa, (2,))
        assert accepts(dfa, (2, 1, 2))

    def test_complete_machine_accepts_everything(self, graph5):
        dfa = subset_automaton(graph5, [v(2, 3), v(2, 4)])
        words = [
            word
            for length in (1, 2, 3)
            for word in itertools.product((1, 2), repeat=length)
        ]
        assert len(words) == 14
        assert all(accepts(dfa, word) for word in words)

    def test_letter_out_of_range(self, graph5):
        dfa = vertex_automaton(graph5, v(2, 3))
        with pytest.raises(ValueError, match="letter"):
            accepts(dfa, (3,))

    def test_language_is_prefix_closed(self, graph5, graph6, graph7):
        for graph in (graph5, graph6, graph7):
            for vertex in sorted(non_diagonal_vertices(graph)):
                dfa = vertex_automaton(graph, vertex)
                for length in range(1, 6):
                    for word in itertools.product((1, 2), repeat=length):
                        if accepts(dfa, word):
                            assert accepts(dfa, word[:-1])


@given(st.integers(0, 2 ** 32))
def test_complete_iff_no_undefined_word(seed):
    network = gen_random_bcn(seed, 2, 1, 1)
    graph = build(network)
    for vertex in sorted(non_diagonal_vertices(graph)):
        hole, _ = least_hole(graph, ids(graph, [vertex]))
        for dfa in (
            vertex_automaton(graph, vertex),
            subset_automaton(graph, [vertex]),
        ):
            assert reference.is_complete(dfa) == (hole is None)
            assert reference.shortest_undefined_word(dfa) == hole


class TestLeastHole:
    def test_fixture_holes(self, graph5, graph7):
        assert least_hole(graph5, ids(graph5, [v(2, 3), v(2, 4)])) == (None, 1)
        assert least_hole(graph5, ids(graph5, [v(2, 3)])) == ((2,), 1)
        assert least_hole(graph7, ids(graph7, [v(1, 2)])) == ((2,), 1)
        assert least_hole(graph7, ids(graph7, [v(3, 4)])) == ((1,), 1)

    def test_seed_holding_a_dead_pair_is_complete_at_once(self, graph5):
        # (1, 1) never leaves the graph; the search keeps only the seed
        assert least_hole(graph5, ids(graph5, [v(1, 1), v(2, 4)])) == (None, 1)

    def test_pinned_holes_and_counts(self, request):
        """(hole, subsets kept) for every type I and III seed, as the subset
        construction that skipped dead pairs recorded them before the
        search was split from the machine build.  Every fixture search
        keeps one subset, so the random 32-state networks pin the counts."""
        pins = json.loads(golden_text("least_hole_pins", ".json"))
        assert len(pins) == 13
        for name, pinned in pins.items():
            if name.startswith("bcn"):
                network = request.getfixturevalue(name)
            else:
                network = gen_random_bcn(int(name.rsplit("_", 1)[1]), 5, 2, 3)
            graph = build(network)
            nondiag, lo, hi = graph.nondiagonal.tolist(), graph.lo.tolist(), graph.hi.tolist()
            found = []
            for state in range(1, network.n_states + 1):
                seed = [p for p in nondiag if state in (lo[p], hi[p])]
                if seed:
                    hole, searched = least_hole(graph, seed)
                    found.append([state, hole and list(hole), searched])
            assert found == pinned["I"], name
            hole, searched = least_hole(graph, nondiag)
            assert [hole and list(hole), searched] == pinned["III"], name


def _lasso_is_valid(graph, lasso):
    here = lasso.source
    for letter in lasso.prefix:
        assert letter in graph.successor[here]
        here = graph.successor[here][letter]
    anchor = here
    for letter in lasso.cycle:
        assert letter in graph.successor[here]
        here = graph.successor[here][letter]
    assert here == anchor


def lasso_from(graph, sources):
    return find_lasso(graph, ids(graph, sorted(set(sources))))


class TestFindLasso:
    def test_bcn5(self, graph5):
        lasso = lasso_from(graph5, non_diagonal_vertices(graph5))
        assert lasso == Lasso(v(2, 3), (1, 2), (1,))
        _lasso_is_valid(graph5, lasso)

    def test_bcn6(self, graph6):
        lasso = lasso_from(graph6, non_diagonal_vertices(graph6))
        assert lasso == Lasso(v(3, 4), (2, 1, 1), (1,))
        _lasso_is_valid(graph6, lasso)

    def test_bcn7(self, graph7):
        lasso = lasso_from(graph7, non_diagonal_vertices(graph7))
        assert lasso == Lasso(v(1, 2), (1,), (1,))
        _lasso_is_valid(graph7, lasso)

    def test_no_sources(self, graph5):
        assert lasso_from(graph5, []) is None

    def test_self_loop_counts(self, graph5):
        # 11 sits on a self-loop, so it is a cycle all by itself
        assert lasso_from(graph5, [v(1, 1)]) == Lasso(v(1, 1), (), (1,))

    def test_cycle_free_region(self):
        # confusable pairs whose successors immediately leave the graph
        network = bcn_from_columns(
            2, 1, 1, (1, 1, 3, 3, 1, 1, 3, 3), (1, 1, 2, 2), "state-first"
        )
        graph = build(network)
        nondiag = non_diagonal_vertices(graph)
        assert nondiag == frozenset([v(1, 2), v(3, 4)])
        assert lasso_from(graph, nondiag) is None
