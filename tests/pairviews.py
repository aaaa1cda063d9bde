"""Pair-notation views of the library's pair graph and machines.

The library keeps pairs and machine states as integer pair ids.  The
paper's examples, the golden files and many tests speak of pairs (i, j),
so these helpers translate: every machine is still built by
bcnobs.automata.subset_automaton_ids and only relabelled here.
"""

from __future__ import annotations

from typing import Iterable

from bcnobs.automata import Dfa, subset_automaton_ids
from bcnobs.bcnio import emit_automaton_dot
from bcnobs.pairgraph import PairGraph, PairVertex


def ids(graph: PairGraph, vertices: Iterable[PairVertex]) -> list[int]:
    """Ids of the given vertices, in the given order."""
    index = {v: p for p, v in enumerate(graph.pairs)}
    return [index[v] for v in vertices]


def non_diagonal_vertices(graph: PairGraph) -> frozenset[PairVertex]:
    """The confusable pairs of distinct states."""
    return frozenset(graph.pairs[p] for p in graph.nondiagonal.tolist())


def edges(graph: PairGraph) -> dict[tuple[PairVertex, PairVertex], tuple[int, ...]]:
    """Weighted edge view: (source, target) -> ascending input tuple."""
    grouped: dict[tuple[PairVertex, PairVertex], list[int]] = {}
    for v in sorted(graph.vertices):
        for u, target in graph.successor[v].items():
            grouped.setdefault((v, target), []).append(u)
    return {edge: tuple(inputs) for edge, inputs in grouped.items()}


def as_vertices(graph: PairGraph, dfa: Dfa, single: bool = False) -> Dfa:
    """An id machine with each state as its ascending PairVertex tuple, or,
    when single, as its one PairVertex."""
    pairs = graph.pairs

    def name(state):
        return pairs[state[0]] if single else tuple(pairs[p] for p in state)

    transitions = {
        name(state): {letter: name(t) for letter, t in row.items()}
        for state, row in dfa.transitions.items()
    }
    states = tuple(map(name, dfa.states))
    return Dfa(dfa.alphabet_size, states, name(dfa.initial), transitions, dfa.hole)


def subset_automaton(graph: PairGraph, seed: Iterable[PairVertex]) -> Dfa:
    """The subset machine seeded with the given vertices, over vertex tuples."""
    return as_vertices(graph, subset_automaton_ids(graph, ids(graph, seed)))


def vertex_automaton(graph: PairGraph, start: PairVertex) -> Dfa:
    """The machine seeded with one vertex, over bare vertices: the part of
    the pair graph reachable from it, read as a DFA."""
    return as_vertices(graph, subset_automaton_ids(graph, ids(graph, [start])), single=True)


def automaton_dot(graph: PairGraph, seed: Iterable[PairVertex]) -> str:
    """DOT of the subset machine seeded with the given vertices."""
    return emit_automaton_dot(graph, subset_automaton_ids(graph, ids(graph, seed)))
