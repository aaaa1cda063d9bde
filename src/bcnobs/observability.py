"""Deciders for four notions of observability.

The notions differ only in how initial states and input words are
quantified:

  TYPE_I    every initial state has its own input word that pins it down
            against all equal-output alternatives
  TYPE_II   every confusable pair of distinct states has an input word
            telling its two members apart
  TYPE_III  one input word pins down every initial state at once
  TYPE_IV   every infinite input sequence eventually tells every confusable
            pair apart

Types I to III reduce to incompleteness of determinised pair-graph machines
(a hole in the transition map is a word after which no confusion is left;
type II searches every pair's machine at once, on the pair graph itself);
type IV reduces to the absence of a cycle reachable from a confusable pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional

from .automata import (
    Dfa,
    Lasso,
    Word,
    find_lasso,
    shortest_exit_words,
    subset_automaton_ids,
)
from .bcn import Bcn
from .pairgraph import PairGraph, PairVertex, build


class ObservabilityType(enum.Enum):
    TYPE_I = "I"
    TYPE_II = "II"
    TYPE_III = "III"
    TYPE_IV = "IV"


class AutomatonStat(NamedTuple):
    label: str
    n_states: int
    complete: bool


@dataclass(frozen=True)
class Verdict:
    """Outcome of one decider, with enough evidence to re-check it.

    Which fields are filled depends on kind and on the observable flag:

      TYPE_I    observable: determining maps each state that has confusable
                partners to a shortest word settling it; any_word_states are
                the states with no partner, settled by any single input.
                Not observable: offending_state, the least state whose
                subset machine is complete.
      TYPE_II   observable: distinguishing maps each confusable pair to a
                shortest word telling it apart.  Not observable:
                offending_pair, the least pair no word tells apart.
      TYPE_III  observable: universal_word settles every state at once.
      TYPE_IV   not observable: lasso is an input walk along which the
                offending_pair never separates, loopable forever.

    automaton_stats records every machine the decider built, in build order;
    for types I and III its size counts the subsets the search explored,
    which drops those holding a dead pair.  Type II records its one search
    over the whole pair graph.
    """

    kind: ObservabilityType
    observable: bool
    determining: Mapping[int, Word] = field(default_factory=dict)
    any_word_states: frozenset[int] = frozenset()
    offending_state: Optional[int] = None
    distinguishing: Mapping[PairVertex, Word] = field(default_factory=dict)
    offending_pair: Optional[PairVertex] = None
    universal_word: Optional[Word] = None
    lasso: Optional[Lasso] = None
    automaton_stats: tuple[AutomatonStat, ...] = ()

    def witness_payloads(self) -> list:
        """The evidence to replay, in the payload shapes
        oracle.verify_witness takes for this verdict's kind."""
        if self.kind is ObservabilityType.TYPE_IV:
            lasso = self.lasso
            return [] if lasso is None else [(tuple(lasso.source), lasso.prefix, lasso.cycle)]
        if not self.observable:
            return []
        if self.kind is ObservabilityType.TYPE_I:
            return sorted(self.determining.items())
        if self.kind is ObservabilityType.TYPE_II:
            return [(tuple(pair), word) for pair, word in sorted(self.distinguishing.items())]
        return [self.universal_word]


def _graph_or_build(network: Bcn, graph: Optional[PairGraph]) -> PairGraph:
    return build(network) if graph is None else graph


def _state_seeds(graph: PairGraph) -> dict[int, list[int]]:
    """Each state occurring in a confusable pair, ascending, with the
    ascending ids of its confusable pairs."""
    seeds: dict[int, list[int]] = {}
    lo, hi = graph.lo.tolist(), graph.hi.tolist()
    for p in graph.nondiagonal.tolist():
        for state in (lo[p], hi[p]):
            seeds.setdefault(state, []).append(p)
    return dict(sorted(seeds.items()))


def decide_type_i(network: Bcn, graph: Optional[PairGraph] = None) -> Verdict:
    """Per-state decision.

    Only states occurring in some confusable pair need a machine; for each,
    the seed is the set of its confusable pairs, and a hole in the
    determinised machine is a word that empties every candidate set.  The
    searches skip subsets holding a dead pair, which never empty.
    """
    graph = _graph_or_build(network, graph)
    seeds = _state_seeds(graph)
    trivial = frozenset(range(1, network.n_states + 1)) - frozenset(seeds)
    stats: list[AutomatonStat] = []
    words: dict[int, Word] = {}
    for state, seed in seeds.items():
        dfa = subset_automaton_ids(graph, seed, graph.dead)
        stats.append(AutomatonStat(f"state {state}", len(dfa.states), dfa.hole is None))
        if dfa.hole is None:
            return Verdict(
                kind=ObservabilityType.TYPE_I,
                observable=False,
                offending_state=state,
                automaton_stats=tuple(stats),
            )
        words[state] = dfa.hole
    return Verdict(
        kind=ObservabilityType.TYPE_I,
        observable=True,
        determining=words,
        any_word_states=trivial,
        automaton_stats=tuple(stats),
    )


def decide_type_ii(network: Bcn, graph: Optional[PairGraph] = None) -> Verdict:
    """One search over the whole pair graph: a confusable pair is told
    apart exactly when some word drives it out of the graph."""
    graph = _graph_or_build(network, graph)
    nondiag = graph.nondiagonal.tolist()
    if not nondiag:
        return Verdict(kind=ObservabilityType.TYPE_II, observable=True)
    words = shortest_exit_words(graph)
    stuck = next((p for p in nondiag if words[p] is None), None)
    stats = (AutomatonStat("pair graph", graph.n_pairs, stuck is not None),)
    if stuck is not None:
        return Verdict(
            kind=ObservabilityType.TYPE_II,
            observable=False,
            offending_pair=graph.vertex(stuck),
            automaton_stats=stats,
        )
    pairs = graph.pairs
    return Verdict(
        kind=ObservabilityType.TYPE_II,
        observable=True,
        distinguishing={pairs[p]: words[p] for p in nondiag},
        automaton_stats=stats,
    )


def decide_type_iii(network: Bcn, graph: Optional[PairGraph] = None) -> Verdict:
    """One machine seeded with every confusable pair; a hole is a word that
    settles all of them at once.  The search skips subsets holding a dead
    pair, so a seed holding one is complete at once.  No confusable pairs
    means any single input works."""
    graph = _graph_or_build(network, graph)
    nondiag = graph.nondiagonal.tolist()
    if not nondiag:
        return Verdict(
            kind=ObservabilityType.TYPE_III, observable=True, universal_word=(1,)
        )
    dfa = subset_automaton_ids(graph, nondiag, graph.dead)
    stats = (AutomatonStat("all confusable pairs", len(dfa.states), dfa.hole is None),)
    return Verdict(
        kind=ObservabilityType.TYPE_III,
        observable=dfa.hole is not None,
        universal_word=dfa.hole,
        automaton_stats=stats,
    )


def decide_type_iv(network: Bcn, graph: Optional[PairGraph] = None) -> Verdict:
    """Cycle reachability from the confusable pairs, self-loops included.

    A reachable cycle yields an infinite input sequence along which some
    confusable pair never separates; no machine construction is needed.
    """
    graph = _graph_or_build(network, graph)
    lasso = find_lasso(graph, graph.nondiagonal.tolist())
    if lasso is not None:
        return Verdict(
            kind=ObservabilityType.TYPE_IV,
            observable=False,
            offending_pair=lasso.source,
            lasso=lasso,
        )
    return Verdict(kind=ObservabilityType.TYPE_IV, observable=True)


DECIDERS = {
    ObservabilityType.TYPE_I: decide_type_i,
    ObservabilityType.TYPE_II: decide_type_ii,
    ObservabilityType.TYPE_III: decide_type_iii,
    ObservabilityType.TYPE_IV: decide_type_iv,
}

# One-way implications that must hold on every network.
REQUIRED_IMPLICATIONS = (
    (ObservabilityType.TYPE_IV, ObservabilityType.TYPE_III),
    (ObservabilityType.TYPE_III, ObservabilityType.TYPE_I),
    (ObservabilityType.TYPE_I, ObservabilityType.TYPE_II),
    (ObservabilityType.TYPE_IV, ObservabilityType.TYPE_I),
    (ObservabilityType.TYPE_IV, ObservabilityType.TYPE_II),
)


@dataclass(frozen=True)
class ImplicationReport:
    """All four verdicts plus the instance-level implication table.

    matrix[(a, b)] says whether "a observable implies b observable" holds on
    this network.  violations lists the REQUIRED_IMPLICATIONS entries that
    failed; any entry at all means a decider bug.
    """

    verdicts: dict[ObservabilityType, Verdict]
    matrix: dict[tuple[ObservabilityType, ObservabilityType], bool]
    violations: tuple[tuple[ObservabilityType, ObservabilityType], ...]

    @property
    def consistent(self) -> bool:
        return not self.violations


def implication_matrix(network: Bcn, graph: Optional[PairGraph] = None) -> ImplicationReport:
    """Run all four deciders on a shared pair graph and cross-check them."""
    graph = _graph_or_build(network, graph)
    verdicts = {kind: DECIDERS[kind](network, graph) for kind in ObservabilityType}
    flags = {kind: verdict.observable for kind, verdict in verdicts.items()}
    matrix = {
        (a, b): (not flags[a]) or flags[b]
        for a in ObservabilityType
        for b in ObservabilityType
    }
    violations = tuple(
        pair for pair in REQUIRED_IMPLICATIONS if not matrix[pair]
    )
    return ImplicationReport(verdicts, matrix, violations)


def type_automata(
    network: Bcn, kind: ObservabilityType, graph: Optional[PairGraph] = None
) -> list[tuple[str, Dfa]]:
    """The labeled machines a decider inspects, for rendering and tests.

    TYPE_I: one subset machine per state with confusable partners.
    TYPE_II and TYPE_IV: the same list, one machine per confusable pair,
    seeded with that pair alone (the deciders search the same structures
    on the whole graph at once).
    TYPE_III: the single machine seeded with every confusable pair, when
    any exists.
    """
    graph = _graph_or_build(network, graph)
    nondiag = graph.nondiagonal.tolist()
    if kind is ObservabilityType.TYPE_I:
        return [
            (f"state_{state}", subset_automaton_ids(graph, seed))
            for state, seed in _state_seeds(graph).items()
        ]
    if kind in (ObservabilityType.TYPE_II, ObservabilityType.TYPE_IV):
        return [
            (f"pair_{graph.lo[p]}_{graph.hi[p]}", subset_automaton_ids(graph, [p]))
            for p in nondiag
        ]
    if kind is ObservabilityType.TYPE_III:
        if not nondiag:
            return []
        return [("all_pairs", subset_automaton_ids(graph, nondiag))]
    raise ValueError(f"unknown observability type {kind!r}")


def exact_oracle_horizon(
    network: Bcn, kind: ObservabilityType, graph: Optional[PairGraph] = None
) -> int:
    """Word length at which exhaustive search is conclusive for a network.

    Types II and IV: the confusable-pair count (a shortest separating word,
    when one exists, never revisits a pair).  Types I and III: the largest
    state count among the subset machines the decider would build, since a
    hole is reached within that many letters when one exists.  At least 1.
    """
    graph = _graph_or_build(network, graph)
    nondiag = graph.nondiagonal.tolist()
    if kind in (ObservabilityType.TYPE_II, ObservabilityType.TYPE_IV):
        return max(len(nondiag), 1)
    if kind is ObservabilityType.TYPE_III:
        if not nondiag:
            return 1
        return max(len(subset_automaton_ids(graph, nondiag).states), 1)
    if kind is ObservabilityType.TYPE_I:
        sizes = [
            len(subset_automaton_ids(graph, seed).states)
            for seed in _state_seeds(graph).values()
        ]
        return max(sizes, default=1)
    raise ValueError(f"unknown observability type {kind!r}")
