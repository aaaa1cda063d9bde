"""Weighted pair graph of a network.

Vertices are the unordered state pairs sharing an output, diagonal pairs
(x, x) included.  For each input the two member states step in parallel;
the move is kept as an edge exactly when the two successors again share an
output.  Edge weights are the input subsets, recovered by grouping inputs
with a common target.

The graph is stored as integer arrays indexed by pair id, ids following
the (lo, hi) order; PairVertex values appear only in views built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .bcn import Bcn

UNREACHED = 1 << 62  # distance of a pair that cannot reach the goal


class PairVertex(NamedTuple):
    lo: int
    hi: int

    @property
    def diagonal(self) -> bool:
        return self.lo == self.hi

    def label(self) -> str:
        sep = "" if self.hi <= 9 else "-"
        return f"{self.lo}{sep}{self.hi}"


@dataclass(frozen=True, eq=False)
class PairGraph:
    """Per-input successor table over the confusable pairs.

    Pair p is (lo[p], hi[p]), states 1-based with lo <= hi, and the pairs
    ascend by (lo, hi).  succ[u - 1, p] is the id of p's unique successor
    under input u, or -1 when that step leaves the graph.  Diagonal pairs
    never leave it.
    """

    n_states: int
    lo: np.ndarray
    hi: np.ndarray
    succ: np.ndarray

    @property
    def n_inputs(self) -> int:
        return self.succ.shape[0]

    @property
    def n_pairs(self) -> int:
        return len(self.lo)

    @cached_property
    def rows(self) -> list[list[int]]:
        """succ as Python lists, for searches that step one pair at a time."""
        return self.succ.tolist()

    @cached_property
    def reverse(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges grouped by target: the ids stepping into pair p are
        sources[offsets[p]:offsets[p + 1]], once per input doing so."""
        targets = self.succ.ravel()
        kept = np.flatnonzero(targets >= 0)
        order = kept[np.argsort(targets[kept], kind="stable")]
        offsets = np.zeros(self.n_pairs + 1, dtype=np.int64)
        np.cumsum(np.bincount(targets[kept], minlength=self.n_pairs), out=offsets[1:])
        return offsets, order % self.n_pairs

    def distances(self, goals: np.ndarray, first: int) -> np.ndarray:
        """Per pair, first plus the length of a shortest walk into the goals;
        UNREACHED when there is none.  Breadth-first over reversed edges, one
        level at a time."""
        offsets, sources = self.reverse
        dist = np.full(self.n_pairs, UNREACHED, dtype=np.int64)
        dist[goals] = first
        slot = np.empty(self.n_pairs, dtype=np.int64)
        frontier, level = goals, first
        while frontier.size:
            level += 1
            begin = offsets[frontier]
            count = offsets[frontier + 1] - begin
            spans = np.repeat(begin - (np.cumsum(count) - count), count)
            found = sources[spans + np.arange(spans.size)]
            found = found[dist[found] == UNREACHED]
            # keep each pair once: of its copies, only the one whose position
            # the scatter left in its slot survives
            slot[found] = np.arange(found.size)
            frontier = found[slot[found] == np.arange(found.size)]
            dist[frontier] = level
        return dist

    @cached_property
    def exit_distances(self) -> np.ndarray:
        """Per pair, the length of a shortest word driving it out of the
        graph: distances from the hole pairs, which some input sends out."""
        return self.distances(np.flatnonzero((self.succ < 0).any(axis=0)), 1)

    @cached_property
    def dead(self) -> frozenset[int]:
        """Ids of the pairs no word drives out of the graph, every diagonal
        pair among them; a dead pair steps only onto dead pairs."""
        return frozenset(np.flatnonzero(self.exit_distances == UNREACHED).tolist())

    @cached_property
    def pairs(self) -> tuple[PairVertex, ...]:
        """PairVertex of every id."""
        return tuple(map(PairVertex._make, zip(self.lo.tolist(), self.hi.tolist())))

    @cached_property
    def nondiagonal(self) -> np.ndarray:
        """Ids of the confusable pairs of distinct states, ascending."""
        return np.flatnonzero(self.lo != self.hi)

    @cached_property
    def vertices(self) -> frozenset[PairVertex]:
        return frozenset(self.pairs)

    @cached_property
    def successor(self) -> Mapping[PairVertex, Mapping[int, PairVertex]]:
        """successor[v][u] is v's successor under input u; the key is absent
        when that step leaves the graph.  A read-only view."""
        pairs = self.pairs
        rows: list[dict[int, PairVertex]] = [{} for _ in pairs]
        for letter, targets in enumerate(self.rows, 1):
            for row, target in zip(rows, targets):
                if target >= 0:
                    row[letter] = pairs[target]
        return MappingProxyType({v: MappingProxyType(r) for v, r in zip(pairs, rows)})

    def vertex(self, p: int) -> PairVertex:
        return PairVertex(int(self.lo[p]), int(self.hi[p]))


def build(network: Bcn) -> PairGraph:
    """Pair graph of a network.

    Pairs are enumerated one output class at a time: a state pairs with
    itself and the later members of its class, so the pairs come out in
    (lo, hi) order without ever forming all N^2 state pairs.  Successor ids
    are looked up by binary search on the key lo * (N + 1) + hi.
    """
    n = network.n_states
    out = np.asarray(network.output_map.col_index, dtype=np.int64)
    step = np.asarray(network.transition.col_index, dtype=np.int64).reshape(-1, n)
    by_class = np.argsort(out, kind="stable")
    position = np.empty(n, dtype=np.int64)
    position[by_class] = np.arange(n)
    class_end = np.cumsum(np.bincount(out))[out]
    partners = class_end - position
    first = np.cumsum(partners) - partners
    lo = np.repeat(np.arange(1, n + 1), partners)
    within = np.arange(len(lo)) - np.repeat(first, partners)
    hi = by_class[np.repeat(position, partners) + within] + 1
    keys = lo * (n + 1) + hi

    a, b = step[:, lo - 1], step[:, hi - 1]
    t_lo, t_hi = np.minimum(a, b), np.maximum(a, b)
    target = np.searchsorted(keys, t_lo * (n + 1) + t_hi)
    succ = np.where(out[t_lo - 1] == out[t_hi - 1], target, -1)
    return PairGraph(n, lo, hi, succ)
