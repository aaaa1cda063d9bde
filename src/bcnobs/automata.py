"""Finite automata and graph searches over the pair graph.

All machines here are partial DFAs over the input alphabet 1..n_inputs in
which every state is accepting: a word is rejected only by running off the
defined transitions.  Completeness of such a machine is therefore the same
as accepting every word.

The searches for types II and IV run on the pair graph's id arrays:
distances computed backwards from a goal, then the least input lowering the
distance at each step, which spells the least shortest word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .pairgraph import UNREACHED, Pair, PairGraph

Word = tuple[int, ...]
Subset = tuple[int, ...]  # ascending pair ids


@dataclass(frozen=True)
class Dfa:
    """Partial deterministic automaton with every state accepting.

    Each state is a set of pair-graph pairs, as the ascending tuple of
    their ids.  states is in breadth-first discovery order from the
    initial state, so every listed state is reachable.
    """

    alphabet_size: int
    states: tuple[Subset, ...]
    initial: Subset
    transitions: dict[Subset, dict[int, Subset]]


def subset_automaton_ids(graph: PairGraph, seed: Iterable[int]) -> Dfa:
    """Determinised reachability machine of the pair graph, over pair ids.

    States are the nonempty id subsets reachable from the seed set, as
    ascending tuples; input j sends a subset to the set of j-successors of
    its members, and the transition is left undefined when that set is
    empty.  States are found breadth first, letters in ascending order.
    """
    initial = tuple(sorted(set(seed)))
    states = [initial]  # also the queue: iteration reaches each appended state
    seen = {initial}
    transitions: dict[Subset, dict[int, Subset]] = {}
    for subset in states:
        row = transitions[subset] = {}
        for letter, step in enumerate(graph.rows, 1):
            targets = {step[p] for p in subset}
            targets.discard(-1)
            if targets:
                row[letter] = successor = tuple(sorted(targets))
                if successor not in seen:
                    seen.add(successor)
                    states.append(successor)
    return Dfa(graph.n_inputs, tuple(states), initial, transitions)


def least_hole(graph: PairGraph, seed: Iterable[int]) -> tuple[Optional[Word], int, int]:
    """The lexicographically least shortest word running off the subset
    machine of the seed (subset_automaton_ids), None when it is complete;
    the number of subsets kept; and the depth of the deepest kept subset
    plus one (0 when none is kept), a bound on the hole's length.  No
    machine is built.

    Breadth first with each subset's word, letters ascending, as a walk of
    the finished machine would go, so the first empty set met is the hole.
    Subsets holding a dead pair (PairGraph.dead) are skipped, and a seed
    holding one is complete at once.  The hole is the same: a dead pair
    steps only onto dead pairs, so no hole lies beyond a skipped subset,
    and every subset on the word finding a kept one is kept, as a dead
    pair there would be carried forward.  So a hole of length L passes
    through kept subsets at depths 0 to L - 1, which gives the bound.
    """
    rows, dead = graph.rows, graph.dead
    initial = tuple(sorted(set(seed)))
    seen = {initial}
    queue = [(initial, ())] if dead.isdisjoint(initial) else []
    hole: Optional[Word] = None
    for subset, word in queue:
        for letter, step in enumerate(rows, 1):
            targets = {step[p] for p in subset}
            targets.discard(-1)
            if not targets:
                if hole is None:
                    hole = word + (letter,)
            elif dead.isdisjoint(targets):
                successor = tuple(sorted(targets))
                if successor not in seen:
                    seen.add(successor)
                    queue.append((successor, word + (letter,)))
    return hole, len(seen), len(queue[-1][1]) + 1 if queue else 0


def _shortest_words(graph: PairGraph, dist: np.ndarray, exit_dist: int) -> list:
    """Per pair, the lexicographically least word that lowers dist to 0
    one step per letter (leaving the graph counts as reaching exit_dist);
    None for unreached pairs.  A pair's word is its least input lowering
    dist by one, then the word of the pair that input leads to."""
    after = np.where(graph.succ >= 0, dist[graph.succ], exit_dist)
    letter = np.argmax(after == dist - 1, axis=0) + 1
    target = graph.succ[letter - 1, np.arange(graph.n_pairs)]
    reached = np.flatnonzero(dist < UNREACHED)
    order = reached[np.argsort(dist[reached], kind="stable")]
    words: list[Optional[Word]] = [None] * graph.n_pairs
    steps = zip(order.tolist(), dist[order].tolist(), letter[order].tolist(), target[order].tolist())
    for p, d, u, q in steps:
        words[p] = () if d == 0 else (u,) + (words[q] if q >= 0 else ())
    return words


def shortest_exit_words(graph: PairGraph) -> list[Optional[Word]]:
    """Per pair id, the lexicographically least shortest word that drives
    the pair out of the graph; None when no word does."""
    return _shortest_words(graph, graph.exit_distances, 0)


def _on_cycle(graph: PairGraph, roots: list[int]) -> list[int]:
    """The pairs reachable from the roots that lie on a cycle: in a strongly
    connected component of two or more pairs, or stepping to themselves.
    Iterative Tarjan; a finished pair's index is raised past every visit
    number, so it no longer lowers anyone's low link."""
    adjacency = graph.succ.T.tolist()
    done = graph.n_pairs + 1
    index = [0] * graph.n_pairs  # visit number from 1; 0 = not visited
    low = [0] * graph.n_pairs
    stack: list[int] = []
    cyclic: list[int] = []
    visits = 0
    for root in roots:
        calls = [] if index[root] else [(root, iter(adjacency[root]))]
        while calls:
            v, pending = calls[-1]
            if not index[v]:
                visits += 1
                index[v] = low[v] = visits
                stack.append(v)
            for w in pending:
                if w >= 0 and not index[w]:
                    calls.append((w, iter(adjacency[w])))
                    break
                if w == v:
                    cyclic.append(v)
                elif w >= 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                calls.pop()
                if calls and low[v] < low[calls[-1][0]]:
                    low[calls[-1][0]] = low[v]
                if low[v] == index[v]:
                    start = len(stack) - 1
                    while stack[start] != v:
                        start -= 1
                    if start < len(stack) - 1:
                        cyclic.extend(stack[start:])
                    for w in stack[start:]:
                        index[w] = done
                    del stack[start:]
    return cyclic


class Lasso(NamedTuple):
    """Labeled pair-graph walk: drive prefix from source, then loop cycle."""

    source: Pair
    prefix: Word
    cycle: Word


def find_lasso(graph: PairGraph, sources: list[int]) -> Optional[Lasso]:
    """Lasso from the least of the ascending source ids that reaches the
    least on-cycle pair reachable from any of them; None when no cycle is
    reachable.  prefix and cycle are lexicographically least shortest."""
    on_cycle = _on_cycle(graph, sources)
    if not on_cycle:
        return None
    anchor = min(on_cycle)
    dist = graph.distances(np.array([anchor]), 0)
    words = _shortest_words(graph, dist, UNREACHED)
    source = next(p for p in sources if words[p] is not None)
    exits = graph.succ[:, anchor]
    first = int(np.argmin(np.where(exits >= 0, dist[exits], UNREACHED)))
    cycle = (first + 1,) + words[exits[first]]
    return Lasso(graph.pairs[source], words[source], cycle)
