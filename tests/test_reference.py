"""The integer-indexed pair graph and its searches against the code they
replaced (tests/reference.py), and the reference's own behaviour."""

import random

import pytest

from bcnobs.automata import least_hole, subset_automaton_ids
from bcnobs.bcnio import build_report, gen_random_bcn
from bcnobs.observability import ObservabilityType, decide_type_ii, decide_type_iv, type_automata
from bcnobs.oracle import confusable_pairs, verify_witness
from bcnobs.pairgraph import build

import reference
from pairviews import PairVertex, as_vertices, pair_vertices
from reference import make_pair, pair_successor, reachable_subgraph


T_I, T_II, T_III, T_IV = ObservabilityType


def v(a, b):
    return PairVertex(a, b)


def _random_networks(count, seed=2024):
    rng = random.Random(seed)
    for index in range(count):
        n, m, q = rng.randint(1, 6), rng.randint(1, 2), rng.randint(1, 3)
        yield f"seed {index} ({n},{m},{q})", gen_random_bcn(index, n, m, q)


def _fixture_networks(request):
    for name in ("bcn5", "bcn6", "bcn7"):
        yield name, request.getfixturevalue(name)


def test_matches_reference(request):
    cases = list(_fixture_networks(request)) + list(_random_networks(200))
    observable = {ObservabilityType.TYPE_II: 0, ObservabilityType.TYPE_IV: 0}
    for label, network in cases:
        graph, old = build(network), reference.build(network)
        assert graph.vertices == old.vertices, label
        assert dict(graph.successor) == old.successor, label
        if network.n_states <= 16:  # the type I and III machines stay small
            nondiag = sorted(pair for pair in old.vertices if not pair.diagonal)
            states = range(1, network.n_states + 1)
            state_seeds = [(x, [p for p in nondiag if x in p]) for x in states]
            per_pair = [(f"pair_{p.lo}_{p.hi}", reference.vertex_automaton(old, p)) for p in nondiag]
            expected = {
                T_I: [(f"state_{x}", reference.subset_automaton(old, seed)) for x, seed in state_seeds if seed],
                T_II: per_pair,
                T_III: [("all_pairs", reference.subset_automaton(old, nondiag))] if nondiag else [],
                T_IV: per_pair,
            }
            for kind, machines in expected.items():
                found = [
                    (name, as_vertices(graph, dfa, single=kind in (T_II, T_IV)))
                    for name, dfa in type_automata(network, kind, graph)
                ]
                assert found == machines, (label, kind)

        new_ii, old_ii = decide_type_ii(network, graph), reference.decide_type_ii(old)
        assert new_ii.observable == old_ii.observable, label
        assert new_ii.offending_pair == old_ii.offending_pair, label
        assert dict(new_ii.distinguishing) == dict(old_ii.distinguishing), label

        new_iv, old_iv = decide_type_iv(network, graph), reference.decide_type_iv(old)
        assert new_iv.observable == old_iv.observable, label
        assert new_iv.offending_pair == old_iv.offending_pair, label
        assert new_iv.lasso == old_iv.lasso, label
        for payload in new_iv.witness_payloads():
            assert verify_witness(network, ObservabilityType.TYPE_IV, payload), label

        report = build_report(network, {})
        assert report["confusable_pairs"] == len(confusable_pairs(network)), label
        for verdict in (new_ii, new_iv):
            observable[verdict.kind] += verdict.observable
    # the sample exercises both outcomes of both deciders
    assert 0 < observable[ObservabilityType.TYPE_II] < len(cases)
    assert 0 < observable[ObservabilityType.TYPE_IV] < len(cases)


def _check_holes(graph, machines, label):
    """least_hole from each machine's seed against the walks over the full
    machine; returns how many machines were complete."""
    complete = 0
    for name, dfa in machines:
        hole, searched = least_hole(graph, dfa.initial)
        assert hole == reference.shortest_undefined_word(dfa), (label, name)
        assert (hole is None) == reference.is_complete(dfa), (label, name)
        assert 1 <= searched <= len(dfa.states), (label, name)
        complete += hole is None
    return complete


def test_holes_match_walks(request):
    """Every seed type_automata lists, per-pair ones included."""
    cases = list(_fixture_networks(request)) + list(_random_networks(200))
    machines = complete = 0
    for label, network in cases:
        if network.n_states > 16:  # the type I and III machines stay small
            continue
        graph = build(network)
        for kind in ObservabilityType:
            found = list(type_automata(network, kind, graph))
            complete += _check_holes(graph, found, label)
            machines += len(found)
    assert 0 < complete < machines


def test_holes_match_walks_subset_search_size():
    """Type I and III seeds of 32-state networks with 4 inputs."""
    machines = complete = 0
    for seed in range(10):
        network = gen_random_bcn(seed, 5, 2, 3)
        graph = build(network)
        for kind in (ObservabilityType.TYPE_I, ObservabilityType.TYPE_III):
            found = list(type_automata(network, kind, graph))
            complete += _check_holes(graph, found, f"seed {seed}")
            machines += len(found)
    assert 0 < complete < machines


def test_pruned_search_matches_full_construction(request):
    """The subset search that skips subsets holding a dead pair finds the
    same hole as the full construction, on the type I and III seeds, and
    keeps fewer subsets overall."""
    cases = [
        case
        for case in list(_fixture_networks(request)) + list(_random_networks(200))
        if case[1].n_states <= 16
    ]
    cases += [(f"seed {s} (5,2,3)", gen_random_bcn(s, 5, 2, 3)) for s in range(10)]
    outcomes, kept, full_size = set(), 0, 0
    for label, network in cases:
        graph = build(network)
        nondiag = graph.nondiagonal.tolist()
        lo, hi = graph.lo.tolist(), graph.hi.tolist()
        states = range(1, network.n_states + 1)
        seeds = [nondiag] + [[p for p in nondiag if x in (lo[p], hi[p])] for x in states]
        for seed in filter(None, seeds):
            full = subset_automaton_ids(graph, seed)
            hole, searched = least_hole(graph, seed)
            assert hole == reference.shortest_undefined_word(full), label
            assert searched <= len(full.states), label
            outcomes.add(hole is None)
            kept += searched
            full_size += len(full.states)
    assert outcomes == {True, False}  # complete and incomplete machines
    assert kept < full_size


def test_make_pair_canonicalises():
    assert make_pair(4, 2) == v(2, 4)
    assert make_pair(2, 4) == v(2, 4)
    assert make_pair(3, 3) == v(3, 3)
    assert v(3, 3).diagonal and not v(2, 4).diagonal


def test_pair_successor_examples(graph5, bcn5):
    assert pair_successor(graph5, bcn5, v(2, 4), 1) is None
    assert pair_successor(graph5, bcn5, v(2, 4), 2) == v(1, 1)
    assert pair_successor(graph5, bcn5, v(3, 3), 2) == v(4, 4)


def test_pair_successor_agrees_with_edges(graph5, bcn5):
    for vertex in pair_vertices(graph5):
        for control in (1, 2):
            got = pair_successor(graph5, bcn5, vertex, control)
            assert got == graph5.successor[vertex].get(control)


def test_pair_successor_rejects_strays(graph5, bcn5):
    with pytest.raises(ValueError, match="not a vertex"):
        pair_successor(graph5, bcn5, v(1, 2), 1)
    with pytest.raises(ValueError, match="input"):
        pair_successor(graph5, bcn5, v(2, 3), 3)


def test_reachable_subgraph(graph5):
    sub = reachable_subgraph(graph5, v(2, 4))
    assert sub.vertices == frozenset([v(2, 4), v(1, 1)])
    assert sub.successor[v(2, 4)] == graph5.successor[v(2, 4)]

    isolated = reachable_subgraph(graph5, v(3, 4))
    assert isolated.vertices == frozenset([v(3, 4)])

    with pytest.raises(ValueError, match="not a vertex"):
        reachable_subgraph(graph5, v(1, 2))
