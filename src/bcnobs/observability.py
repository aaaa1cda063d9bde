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

from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Optional

from .automata import (
    Dfa,
    ExitWords,
    Lasso,
    Word,
    find_lasso,
    least_hole,
    subset_automaton_ids,
)
from .bcn import Bcn, ObservabilityType
from .oracle import conclusive_horizon
from .pairgraph import UNREACHED, Pair, PairGraph, build


class AutomatonStat(NamedTuple):
    label: str
    n_states: int
    complete: bool


@dataclass(frozen=True)
class Verdict:
    """Outcome of one decider, with enough evidence to re-check it.

    Which fields are filled depends on kind and on the observable flag
    (a pair is its plain (lo, hi) tuple, as PairGraph.pairs holds it):

      TYPE_I    observable: determining maps each state that has confusable
                partners to a shortest word settling it; any_word_states are
                the states with no partner, settled by any single input.
                Not observable: offending_state, the least state whose
                subset machine is complete.
      TYPE_II   observable: distinguishing maps each confusable pair to a
                shortest word telling it apart, a read-only view
                (automata.ExitWords) that iterates in (lo, hi) order and
                spells words only when read.  Not observable:
                offending_pair, the least pair no word tells apart.
      TYPE_III  observable: universal_word settles every state at once.
      TYPE_IV   not observable: lasso is an input walk along which the
                offending_pair never separates, loopable forever.

    automaton_stats records every machine the decider searched, in order;
    for types I and III (least_hole, which builds no machine) its size
    counts the subsets kept, leaving out those holding a dead pair.  Type
    II records its one search over the whole pair graph.
    """

    kind: ObservabilityType
    observable: bool
    determining: Mapping[int, Word] = field(default_factory=dict)
    any_word_states: frozenset[int] = frozenset()
    offending_state: Optional[int] = None
    distinguishing: Mapping[Pair, Word] = field(default_factory=dict)
    offending_pair: Optional[Pair] = None
    universal_word: Optional[Word] = None
    lasso: Optional[Lasso] = None
    automaton_stats: tuple[AutomatonStat, ...] = ()

    def witness_payloads(self) -> list:
        """The evidence to replay, in the payload shapes
        oracle.verify_witness takes for this verdict's kind."""
        if self.kind is ObservabilityType.TYPE_IV:
            lasso = self.lasso
            return [] if lasso is None else [(lasso.source, lasso.prefix, lasso.cycle)]
        if not self.observable:
            return []
        if self.kind is ObservabilityType.TYPE_I:
            return sorted(self.determining.items())
        if self.kind is ObservabilityType.TYPE_II:
            return list(self.distinguishing.items())
        return [self.universal_word]


def _state_seeds(graph: PairGraph) -> dict[int, list[int]]:
    """Each state occurring in a confusable pair, ascending, with the
    ascending ids of its confusable pairs."""
    seeds: dict[int, list[int]] = {}
    lo, hi = graph.lo.tolist(), graph.hi.tolist()
    for p in graph.nondiagonal.tolist():
        for state in (lo[p], hi[p]):
            seeds.setdefault(state, []).append(p)
    return dict(sorted(seeds.items()))


def decide_type_i(network: Bcn, graph: PairGraph) -> Verdict:
    """Per-state decision.

    Only states occurring in some confusable pair need a search; for each,
    the seed is the set of its confusable pairs, and a hole in the
    determinised machine is a word that empties every candidate set.
    least_hole skips subsets holding a dead pair, which never empty.
    """
    seeds = _state_seeds(graph)
    trivial = frozenset(range(1, network.n_states + 1)) - frozenset(seeds)
    stats: list[AutomatonStat] = []
    words: dict[int, Word] = {}
    for state, seed in seeds.items():
        hole, searched, _ = least_hole(graph, seed)
        stats.append(AutomatonStat(f"state {state}", searched, hole is None))
        if hole is None:
            return Verdict(
                kind=ObservabilityType.TYPE_I,
                observable=False,
                offending_state=state,
                automaton_stats=tuple(stats),
            )
        words[state] = hole
    return Verdict(
        kind=ObservabilityType.TYPE_I,
        observable=True,
        determining=words,
        any_word_states=trivial,
        automaton_stats=tuple(stats),
    )


def decide_type_ii(network: Bcn, graph: PairGraph) -> Verdict:
    """One search over the whole pair graph: a confusable pair is told
    apart exactly when some word drives it out of the graph."""
    nondiag = graph.nondiagonal
    stuck = nondiag[graph.exit_distances[nondiag] == UNREACHED]
    stats = (AutomatonStat("pair graph", graph.n_pairs, stuck.size > 0),) if nondiag.size else ()
    if stuck.size:
        return Verdict(
            kind=ObservabilityType.TYPE_II,
            observable=False,
            offending_pair=(int(graph.lo[stuck[0]]), int(graph.hi[stuck[0]])),
            automaton_stats=stats,
        )
    return Verdict(
        kind=ObservabilityType.TYPE_II,
        observable=True,
        distinguishing=ExitWords(graph),
        automaton_stats=stats,
    )


def decide_type_iii(network: Bcn, graph: PairGraph) -> Verdict:
    """One search (least_hole) seeded with every confusable pair; a hole is
    a word that settles all of them at once.  A seed holding a dead pair is
    complete at once.  No confusable pairs means any single input works."""
    nondiag = graph.nondiagonal.tolist()
    if not nondiag:
        return Verdict(
            kind=ObservabilityType.TYPE_III, observable=True, universal_word=(1,)
        )
    hole, searched, _ = least_hole(graph, nondiag)
    stats = (AutomatonStat("all confusable pairs", searched, hole is None),)
    return Verdict(
        kind=ObservabilityType.TYPE_III,
        observable=hole is not None,
        universal_word=hole,
        automaton_stats=stats,
    )


def decide_type_iv(network: Bcn, graph: PairGraph) -> Verdict:
    """Cycle reachability from the confusable pairs, self-loops included.

    A reachable cycle yields an infinite input sequence along which some
    confusable pair never separates; no machine construction is needed.
    """
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
    """All four verdicts plus the implication cross-check.

    violations lists the REQUIRED_IMPLICATIONS entries (a, b) that fail on
    this network, a observable and b not; any entry at all means a decider
    bug.
    """

    verdicts: dict[ObservabilityType, Verdict]
    violations: tuple[tuple[ObservabilityType, ObservabilityType], ...]

    @property
    def consistent(self) -> bool:
        return not self.violations


def implication_matrix(network: Bcn, graph: Optional[PairGraph] = None) -> ImplicationReport:
    """Run all four deciders on a shared pair graph, built when not given,
    and cross-check them."""
    graph = build(network) if graph is None else graph
    verdicts = {kind: DECIDERS[kind](network, graph) for kind in ObservabilityType}
    violations = tuple(
        (a, b)
        for a, b in REQUIRED_IMPLICATIONS
        if verdicts[a].observable and not verdicts[b].observable
    )
    return ImplicationReport(verdicts, violations)


def _labeled_seeds(graph: PairGraph, kind: ObservabilityType) -> list[tuple[str, list[int]]]:
    """The labeled seed of every machine a decider's search walks: per
    state with confusable partners its confusable pairs (TYPE_I); each
    confusable pair alone (TYPE_II and TYPE_IV, whose deciders search the
    whole graph at once); all of them, if any (TYPE_III)."""
    nondiag = graph.nondiagonal.tolist()
    if kind is ObservabilityType.TYPE_I:
        return [(f"state_{state}", seed) for state, seed in _state_seeds(graph).items()]
    if kind in (ObservabilityType.TYPE_II, ObservabilityType.TYPE_IV):
        return [(f"pair_{graph.lo[p]}_{graph.hi[p]}", [p]) for p in nondiag]
    if kind is ObservabilityType.TYPE_III:
        return [("all_pairs", nondiag)] if nondiag else []
    raise ValueError(f"unknown observability type {kind!r}")


def type_automata(graph: PairGraph, kind: ObservabilityType) -> Iterator[tuple[str, Dfa]]:
    """The full machines of _labeled_seeds, dead pairs kept, built one at
    a time as the iterator is read; an unknown kind raises ValueError at
    the call."""
    seeds = _labeled_seeds(graph, kind)
    return ((label, subset_automaton_ids(graph, seed)) for label, seed in seeds)


def exact_oracle_horizon(network: Bcn, kind: ObservabilityType, graph: PairGraph) -> int:
    """Word length at which exhaustive search is conclusive for a network.

    Types II and IV: oracle.conclusive_horizon, read off the output classes.
    Types I and III: the largest hole bound least_hole gives over
    _labeled_seeds, every type I state included; no machine is built, and
    a seed a decider has searched on this graph is not searched again.
    At least 1.
    """
    return conclusive_horizon(network, kind) or max(
        [least_hole(graph, seed)[2] for _, seed in _labeled_seeds(graph, kind)] + [1]
    )
