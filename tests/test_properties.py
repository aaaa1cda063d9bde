"""Cross-cutting randomised checks tying the graph machinery to simulation."""

import itertools

from hypothesis import assume, given, settings, strategies as st

from bcnobs.automata import least_hole
from bcnobs.bcnio import emit_dot
from bcnobs.observability import (
    DECIDERS,
    ObservabilityType,
    exact_oracle_horizon,
    implication_matrix,
)
from bcnobs.oracle import brute_force, confusable_pairs, verify_witness
from bcnobs.pairgraph import build

from dotcheck import validate_dot
from pairviews import automaton_dot, ids, non_diagonal_vertices, subset_automaton, vertex_automaton
from reference import accepts, bcn_from_columns, distinguishes, words_up_to


@st.composite
def networks(draw, max_n=3, max_m=2, max_q=2):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    q = draw(st.integers(1, max_q))
    n_states, n_inputs, n_outputs = 2 ** n, 2 ** m, 2 ** q
    width = n_states * n_inputs
    transition = draw(st.lists(st.integers(1, n_states), min_size=width, max_size=width))
    out = draw(st.lists(st.integers(1, n_outputs), min_size=n_states, max_size=n_states))
    return bcn_from_columns(n, m, q, tuple(transition), tuple(out), "input-first")


@given(networks())
def test_implications_always_hold(network):
    assert implication_matrix(network).consistent


@given(networks(max_n=2))
@settings(deadline=None)
def test_deciders_match_oracle_on_pair_types(network):
    graph = build(network)
    for kind in (ObservabilityType.TYPE_II, ObservabilityType.TYPE_IV):
        horizon = exact_oracle_horizon(network, kind, graph)
        verdict = DECIDERS[kind](network, graph)
        result = brute_force(network, kind, horizon, sufficient_horizon=horizon)
        assert result.exact
        assert result.observable == verdict.observable


@given(networks(max_n=2, max_m=1))
@settings(deadline=None)
def test_deciders_match_oracle_on_word_types(network):
    graph = build(network)
    for kind in (ObservabilityType.TYPE_I, ObservabilityType.TYPE_III):
        horizon = exact_oracle_horizon(network, kind, graph)
        assume(horizon <= 12)  # keeps the enumeration tractable
        verdict = DECIDERS[kind](network, graph)
        result = brute_force(network, kind, horizon, sufficient_horizon=horizon)
        assert result.exact
        assert result.observable == verdict.observable


@given(networks(max_n=2), st.data())
@settings(deadline=None)
def test_subset_machine_language_is_joint_survival(network, data):
    """A word is accepted iff it leaves some seeded pair still confusable."""
    graph = build(network)
    nondiag = sorted(non_diagonal_vertices(graph))
    assume(nondiag)
    seeds = sorted(data.draw(st.sets(st.sampled_from(nondiag), min_size=1)))
    dfa = subset_automaton(graph, seeds)
    for word in words_up_to(network.n_inputs, 4):
        survived = any(not distinguishes(network, v.lo, v.hi, word) for v in seeds)
        assert accepts(dfa, word) == survived


@given(networks(max_n=2))
@settings(deadline=None)
def test_vertex_machine_language_is_pair_survival(network):
    graph = build(network)
    for vertex in sorted(non_diagonal_vertices(graph)):
        dfa = vertex_automaton(graph, vertex)
        for word in words_up_to(network.n_inputs, 4):
            survived = not distinguishes(network, vertex.lo, vertex.hi, word)
            assert accepts(dfa, word) == survived


@given(networks(max_n=2, max_m=1))
@settings(deadline=None)
def test_completeness_matches_bounded_acceptance(network):
    """A hole, when one exists, is reachable within one letter per state."""
    graph = build(network)
    nondiag = sorted(non_diagonal_vertices(graph))
    assume(nondiag)
    dfa = subset_automaton(graph, nondiag)
    bound = len(dfa.states) + 1
    assume(network.n_inputs ** bound <= 4096)
    all_accepted = all(accepts(dfa, w) for w in words_up_to(network.n_inputs, bound))
    hole, _, _ = least_hole(graph, ids(graph, nondiag))
    assert (hole is None) == all_accepted


@given(networks(max_n=2))
@settings(deadline=None)
def test_shortest_hole_is_least(network):
    graph = build(network)
    nondiag = sorted(non_diagonal_vertices(graph))
    assume(nondiag)
    dfa = subset_automaton(graph, nondiag)
    word, _, _ = least_hole(graph, ids(graph, nondiag))
    assume(word is not None)
    assume(network.n_inputs ** len(word) <= 4096)
    assert not accepts(dfa, word)
    for shorter in words_up_to(network.n_inputs, len(word) - 1):
        assert accepts(dfa, shorter)
    for rival in itertools.product(range(1, network.n_inputs + 1), repeat=len(word)):
        if rival == word:
            break
        assert accepts(dfa, rival)


@given(networks(max_n=2))
@settings(deadline=None)
def test_pair_witnesses_are_least_shortest(network):
    graph = build(network)
    verdict = DECIDERS[ObservabilityType.TYPE_II](network, graph)
    assume(verdict.observable and verdict.distinguishing)
    for (lo, hi), word in verdict.distinguishing.items():
        assume(network.n_inputs ** len(word) <= 4096)
        expected = next(
            w
            for w in words_up_to(network.n_inputs, len(word))
            if distinguishes(network, lo, hi, w)
        )
        assert word == expected


@given(networks(max_n=2, max_m=1))
@settings(deadline=None)
def test_witnesses_replay_under_simulation(network):
    graph = build(network)
    for kind in ObservabilityType:
        verdict = DECIDERS[kind](network, graph)
        if kind is ObservabilityType.TYPE_I and verdict.observable:
            for state, word in verdict.determining.items():
                assert verify_witness(network, kind, (state, word))
        elif kind is ObservabilityType.TYPE_II and verdict.observable:
            for vertex, word in verdict.distinguishing.items():
                assert verify_witness(network, kind, (tuple(vertex), word))
        elif kind is ObservabilityType.TYPE_III and verdict.observable:
            assert verify_witness(network, kind, verdict.universal_word)
        elif kind is ObservabilityType.TYPE_IV and not verdict.observable:
            lasso = verdict.lasso
            assert verify_witness(
                network, kind, (tuple(lasso.source), lasso.prefix, lasso.cycle)
            )


@given(networks())
def test_pair_count_matches_output_classes(network):
    graph = build(network)
    classes = {}
    for state in range(1, network.n_states + 1):
        classes.setdefault(network.output_map[state - 1], []).append(state)
    expected = sum(len(c) * (len(c) - 1) // 2 for c in classes.values())
    assert len(confusable_pairs(network)) == expected
    assert len(non_diagonal_vertices(graph)) == expected


@given(networks(max_n=2))
def test_dot_renders_are_well_formed(network):
    graph = build(network)
    validate_dot(emit_dot(graph))
    nondiag = sorted(non_diagonal_vertices(graph))
    if nondiag:
        validate_dot(automaton_dot(graph, nondiag))
        validate_dot(automaton_dot(graph, nondiag[:1]))
