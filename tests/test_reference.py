"""The integer-indexed pair graph and its searches, and the oracle's word-tree
walk and replay, against the code they replaced (tests/reference.py), and the
reference's own behaviour."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bcnobs.automata import least_hole, subset_automaton_ids
from bcnobs.bcnio import build_report, gen_random_bcn
from bcnobs.observability import (
    DECIDERS,
    ObservabilityType,
    decide_type_ii,
    decide_type_iv,
    exact_oracle_horizon,
    type_automata,
)
from bcnobs.oracle import brute_force, confusable_pairs, verify_witness
from bcnobs.pairgraph import UNREACHED, build

import reference
from pairviews import PairVertex, as_vertices, pair_vertices
from reference import (
    bcn_from_columns,
    distinguishes,
    make_pair,
    pair_successor,
    reachable_subgraph,
)


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
                    for name, dfa in type_automata(graph, kind)
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
        hole, searched, _ = least_hole(graph, dfa.initial)
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
            found = list(type_automata(graph, kind))
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
            found = list(type_automata(graph, kind))
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
            hole, searched, _ = least_hole(graph, seed)
            assert hole == reference.shortest_undefined_word(full), label
            assert searched <= len(full.states), label
            outcomes.add(hole is None)
            kept += searched
            full_size += len(full.states)
    assert outcomes == {True, False}  # complete and incomplete machines
    assert kept < full_size


def _random_network(seed, n, m, q):
    """gen_random_bcn's draw, without its size cap."""
    rng = random.Random(seed)
    columns = [rng.randint(1, 2 ** n) for _ in range(2 ** (n + m))]
    return bcn_from_columns(n, m, q, columns, [rng.randint(1, 2 ** q) for _ in range(2 ** n)], "input-first")


def _shift_register(seed, n, q):
    """An n-bit feedback shift register under one input bit, its top q bits
    observed, the register values given to the states in a seeded order."""
    size = 2 ** n
    state = list(range(1, size + 1))
    random.Random(seed).shuffle(state)  # register value -> state
    value = {x: v for v, x in enumerate(state)}
    values = [value[x] for x in range(1, size + 1)]
    columns = [state[((v << 1) % size) | ((v >> (n - 1)) ^ u)] for u in (0, 1) for v in values]
    return bcn_from_columns(n, 1, q, columns, [(v >> (n - q)) + 1 for v in values], "input-first")


def _ladder():
    """Seeded random networks and shift registers, up to 4,096 states."""
    cases = [(f"random seed {s} {shape}", _random_network(s, *shape))
             for s in range(3) for shape in ((1, 1, 1), (3, 2, 2), (6, 1, 3), (10, 2, 4), (11, 1, 5))]
    cases.append(("random seed 0 (12,1,7)", _random_network(0, 12, 1, 7)))
    cases += [(f"shift seed {s} ({n},1,{q})", _shift_register(s, n, q))
              for s in range(2) for n, q in ((4, 2), (8, 3), (12, 7))]
    return cases


def test_build_by_index_matches_binary_search():
    """Successor ids by index arithmetic against the binary search they
    replaced, up to 4,096 states."""
    for label, network in _ladder():
        graph, old = build(network), reference.search_build(network)
        for name in ("lo", "hi", "succ"):
            assert (getattr(graph, name) == getattr(old, name)).all(), (label, name)
    assert network.n_states == 4096 and (graph.succ >= 0).any() and (graph.succ < 0).any()


def test_peeled_searches_match_full_graph():
    """Type IV peeled before Tarjan against Tarjan over the whole graph, and
    the type II view against one word tuple per pair, up to 4,096 states."""
    outcomes = set()
    for label, network in _ladder():
        graph = build(network)
        old = reference.find_lasso(graph, graph.nondiagonal.tolist())
        new = decide_type_iv(network, graph)
        assert new.observable == (old is None), label
        assert new.offending_pair == (old.source if old else None), label
        assert new.lasso == old, label
        ii = decide_type_ii(network, graph)
        if ii.observable:
            assert dict(ii.distinguishing) == reference.exit_words(graph), label
            assert list(ii.distinguishing) == sorted(ii.distinguishing), label
        outcomes.add((network.n_states, ii.observable, new.observable))
    # both outcomes of both deciders, and a lasso and words at 4,096 states
    assert {(4096, True, True), (4096, True, False), (2, False, False)} <= outcomes


def test_longest_walk_sweep_matches_recursion():
    """distances with every, levels included, against each pair's longest
    separation time by plain recursion, an infinite one read as UNREACHED,
    on small random networks and the ladder up to 4,096 states."""
    levels = set()
    for label, network in list(_random_networks(600)) + _ladder():
        graph = build(network)
        no_successor = np.flatnonzero((graph.succ < 0).all(axis=0))
        swept = graph.distances(no_successor, 1, every=True).tolist()
        times = reference.separation_times(graph)
        assert swept == [UNREACHED if t == math.inf else t for t in times], label
        levels.update(swept)
    assert {1, 2, 3, UNREACHED} <= levels


def test_horizon_from_pruned_search_against_full_machines():
    """exact_oracle_horizon against the horizon read off the full machines,
    on the oracle-check shapes: never larger; the oracle gives the same
    answer at both; and at the new one it matches the deciders and is
    conclusive on every negative of types I to III."""
    budget = 16384  # bench/'s oracle budget and scripts/implication_sweep.py's default
    shrunk = tight = negatives = 0
    for seed in range(8):
        for shape in ((2, 1, 1), (3, 2, 2), (3, 1, 1), (4, 2, 3)):
            network = gen_random_bcn(seed, *shape)
            graph = build(network)
            label = f"seed {seed} {shape}"
            for kind in (T_I, T_II, T_III):
                new = exact_oracle_horizon(network, kind, graph)
                old = reference.machine_horizon(kind, graph)
                assert 1 <= new <= old, (label, kind)
                at_new = brute_force(network, kind, new, budget, sufficient_horizon=new)
                at_old = brute_force(network, kind, old, budget, sufficient_horizon=old)
                assert at_new.observable == at_old.observable, (label, kind)
                verdict = DECIDERS[kind](network, graph)
                assert at_new.observable == verdict.observable, (label, kind)
                if not verdict.observable:
                    assert at_new.exact, (label, kind)
                    negatives += 1
                shrunk += new < old
                tight += verdict.observable and kind is not T_II and new >= 2
    # the sample has negatives, smaller horizons, and positives whose word
    # needs the whole bound (the "+ 1" in least_hole's bound is exercised)
    assert negatives and shrunk and tight


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


def _oracle_networks(request):
    yield from _fixture_networks(request)
    rng = random.Random(23)
    for index in range(120):
        n, m, q = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)
        yield f"seed {index} ({n},{m},{q})", gen_random_bcn(index, n, m, q)


def test_brute_force_matches_word_loops(request):
    """The word-tree walk against one loop per kind over every word, at
    horizons around the conclusive one, under a small budget and under the
    single-letter one."""
    outcomes = set()
    for label, network in _oracle_networks(request):
        graph = build(network)
        for kind in ObservabilityType:
            h = exact_oracle_horizon(network, kind, graph)
            for horizon in sorted({1, max(h - 1, 1), h, h + 2}):
                for budget in (network.n_inputs, 300):
                    args = (network, kind, horizon, budget, h)
                    new, old = brute_force(*args), reference.brute_force(*args)
                    assert new == old, (label, kind, horizon, budget)
                    outcomes.add((kind, new.observable, new.exact))
    # every kind answers both ways, conclusively
    conclusive = {(kind, answer, True) for kind in ObservabilityType for answer in (True, False)}
    assert conclusive <= outcomes


def _mutations(network, kind, payload):
    """The payload, and well-formed payloads one edit away: another letter,
    one letter fewer or more, another confusable pair or state."""
    letters = range(1, network.n_inputs + 1)

    def words(word, empty_ok=False):
        yield word
        for i, letter in enumerate(word):
            yield from (word[:i] + (u,) + word[i + 1:] for u in letters if u != letter)
        if len(word) > 1 or empty_ok and word:
            yield word[:-1]
        yield from (word + (u,) for u in letters)

    pairs = confusable_pairs(network)
    if kind is T_I:
        state, word = payload
        yield from ((state, w) for w in words(word))
        yield from ((other, word) for other in range(1, network.n_states + 1) if other != state)
    elif kind is T_II:
        pair, word = payload
        yield from ((pair, w) for w in words(word))
        yield from ((other, word) for other in pairs[:6])
    elif kind is T_III:
        yield from words(payload)
    else:
        pair, prefix, cycle = payload
        yield from ((pair, p, cycle) for p in words(prefix, empty_ok=True))
        yield from ((pair, prefix, c) for c in words(cycle))
        yield from ((other, prefix, cycle) for other in pairs[:6])


def test_replay_matches_scalar_steps(request):
    """verify_witness against the scalar replay on every decider witness
    and on well-formed payloads one edit away from it."""
    answers = {kind: set() for kind in ObservabilityType}
    for label, network in _oracle_networks(request):
        graph = build(network)
        for kind in ObservabilityType:
            for payload in DECIDERS[kind](network, graph).witness_payloads():
                assert verify_witness(network, kind, payload), (label, kind, payload)
                for mutant in _mutations(network, kind, payload):
                    expected = reference.verify_witness(network, kind, mutant)
                    assert verify_witness(network, kind, mutant) == expected, (label, mutant)
                    answers[kind].add(expected)
    assert all(found == {True, False} for found in answers.values())


class TestDistinguishes:
    def test_frozen_examples(self, bcn5):
        assert distinguishes(bcn5, 2, 3, (2,))
        assert not distinguishes(bcn5, 2, 4, (2, 1, 1))
        assert not distinguishes(bcn5, 2, 3, ())
        assert distinguishes(bcn5, 1, 2, ())  # immediate outputs differ

    def test_rejects_equal_states(self, bcn5):
        with pytest.raises(ValueError, match="differ"):
            distinguishes(bcn5, 2, 2, (1,))

    @given(st.integers(0, 2 ** 32), st.data())
    def test_monotone_under_extension(self, seed, data):
        network = gen_random_bcn(seed, 2, 1, 1)
        first = data.draw(st.integers(1, 4))
        second = data.draw(st.integers(1, 4).filter(lambda x: x != first))
        word = tuple(data.draw(st.lists(st.integers(1, 2), max_size=4)))
        extra = tuple(data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
        if distinguishes(network, first, second, word):
            assert distinguishes(network, first, second, word + extra)
