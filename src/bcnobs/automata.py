"""Finite automata and graph searches over the pair graph.

All machines here are partial DFAs over the input alphabet 1..n_inputs in
which every state is accepting: a word is rejected only by running off the
defined transitions.  Completeness of such a machine is therefore the same
as accepting every word.

Types II and IV each read one reverse sweep of the pair graph
(PairGraph.distances): whether some word (II), or every input sequence
(IV), drives a pair off it.  Words follow the least input lowering a
distance at each step, which spells the least shortest word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

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
    The result is kept in graph.holes, so a second search of a seed is free.
    """
    initial = tuple(sorted(set(seed)))
    if initial in graph.holes:
        return graph.holes[initial]
    rows, dead = graph.rows, graph.dead
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
    found = graph.holes[initial] = hole, len(seen), len(queue[-1][1]) + 1 if queue else 0
    return found


def _least_steps(graph: PairGraph, dist: np.ndarray, exit_dist: int) -> tuple:
    """Per pair, the least input lowering dist by one (leaving the graph
    counts as reaching exit_dist) and the id it leads to, -1 off the graph:
    the first letter of the least word taking dist to 0, one step a letter."""
    after = np.where(graph.succ >= 0, dist[graph.succ], exit_dist)
    letter = np.argmax(after == dist - 1, axis=0) + 1
    return letter, graph.succ[letter - 1, np.arange(graph.n_pairs)]


class ExitWords(Mapping[Pair, Word]):
    """Read-only map from each confusable pair (lo, hi) of a graph in which
    every one leaves, to the least shortest word driving it out, keys in id
    order.  Kept as the distinct words (words[0] is empty) and each key's
    index into them: by ascending distance, a word is a _least_steps letter
    plus the word of the pair it leads to, and each is spelled once."""

    def __init__(self, graph: PairGraph):
        dist, base = graph.exit_distances, graph.n_inputs + 1
        letter, target = _least_steps(graph, dist, 0)
        self._graph, self._ids = graph, graph.nondiagonal
        order = self._ids[np.argsort(dist[self._ids])]
        word = np.zeros(graph.n_pairs + 1, dtype=np.int64)  # word[-1]: off the graph
        self.words: list[Word] = [()]
        below = 0  # the first word one level nearer the exit
        for level in np.split(order, np.flatnonzero(np.diff(dist[order])) + 1):
            keys = (word[target[level]] - below) * base + letter[level]
            seen, first = np.bincount(keys) > 0, len(self.words)
            word[level] = first - 1 + seen.cumsum()[keys]
            for k in np.flatnonzero(seen).tolist():
                self.words.append((k % base,) + self.words[below + k // base])
            below = first
        self._word = word[self._ids]

    def spell(self, form: Callable[[Word], object]) -> list:
        """Per key, form(its word), formed once per distinct word and shared."""
        return list(map([form(w) for w in self.words].__getitem__, self._word.tolist()))

    @cached_property
    def labels(self) -> list[str]:
        """Per key, 'lo,hi'."""
        names = np.array(list(map(str, range(self._graph.n_states + 1))), dtype=object)
        return (names[self._graph.lo[self._ids]] + "," + names[self._graph.hi[self._ids]]).tolist()

    @cached_property
    def _index(self) -> dict[Pair, int]:
        return dict(zip(self, self._word.tolist()))

    def __getitem__(self, pair: Pair) -> Word:
        return self.words[self._index[pair]]

    def __iter__(self) -> Iterator[Pair]:
        return zip(self._graph.lo[self._ids].tolist(), self._graph.hi[self._ids].tolist())

    def __len__(self) -> int:
        return len(self._ids)


def _on_cycle(adjacency: list[list[int]], roots: list[int]) -> list[int]:
    """The vertices reachable from the roots that lie on a cycle: in a
    strongly connected component of two or more, or stepping to themselves.
    adjacency[v] lists v's successors, -1 for none.  Iterative Tarjan; a
    finished vertex's index is raised past every visit number, so it no
    longer lowers anyone's low link."""
    size = len(adjacency)
    done = size + 1
    index = [0] * size  # visit number from 1; 0 = not visited
    low = [0] * size
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
    reachable.  prefix and cycle are lexicographically least shortest.
    Tarjan runs only on the pairs with an infinite walk (unreached by distances
    with every), which hold every walk from a source to a cycle; only the two words are spelled.
    """
    no_successor = np.flatnonzero((graph.succ < 0).all(axis=0))
    endless = graph.distances(no_successor, 1, every=True) == UNREACHED
    sources = np.asarray(sources, dtype=np.int64)
    roots = sources[endless[sources]]
    if not roots.size:
        return None
    kept = np.flatnonzero(endless)
    renumber = np.full(graph.n_pairs + 1, -1)  # renumber[-1] stays -1
    renumber[kept] = np.arange(kept.size)
    adjacency = renumber[graph.succ[:, kept]].T.tolist()
    anchor = int(kept[min(_on_cycle(adjacency, renumber[roots].tolist()))])
    dist = graph.distances(np.array([anchor]), 0)
    letter, target = _least_steps(graph, dist, UNREACHED)

    def walk(p: int) -> Word:
        word = []
        while dist[p]:
            word.append(int(letter[p]))
            p = target[p]
        return tuple(word)

    source = int(sources[dist[sources] < UNREACHED][0])
    exits = graph.succ[:, anchor]
    first = int(np.argmin(np.where(exits >= 0, dist[exits], UNREACHED)))
    pair = (int(graph.lo[source]), int(graph.hi[source]))
    return Lasso(pair, walk(source), (first + 1,) + walk(exits[first]))
