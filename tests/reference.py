"""Reference code kept for the tests, outside the library.

- The pair-graph code the library replaced: the dict-of-dicts pair graph
  built by an O(N^2) loop, the subset construction over vertex tuples, the
  per-pair type II decider that builds one reachable machine per
  confusable pair, and the type IV cycle search that tries a
  shortest-return search from each reachable vertex in turn.  They are
  slow but direct, and tests compare the library's integer-indexed graph
  and linear-time searches against them.
- The dense semi-tensor product and its index-arithmetic form on logical
  matrices, the independent check that the algebraic form is right, with
  the identity and delta constructors, the dense round trip and the
  inverse of bool_tuple_index that the checks are written in.
- Word runs on networks (trajectory) and on automata (accepts).
- The walks over a finished machine (is_complete, shortest_undefined_word),
  which the library's hole search, automata.least_hole, replaced and is
  checked against, and the oracle's old count-down rule for fitting a
  horizon to a budget.
- The canonical document writer, which only the round-trip tests use.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from bcnobs.automata import Dfa, Lasso, Word
from bcnobs.bcn import Bcn, output, step
from bcnobs.bcnio import BcnDocument
from bcnobs.observability import AutomatonStat, ObservabilityType, Verdict
from bcnobs.oracle import _enumeration_cost
from bcnobs.stp import LogicalMatrix

from pairviews import PairVertex


def make_pair(a: int, b: int) -> PairVertex:
    """Canonical unordered pair: the smaller index first."""
    return PairVertex(a, b) if a <= b else PairVertex(b, a)


@dataclass(frozen=True)
class DictPairGraph:
    """successor[v][u] is v's unique successor under input u; the key is
    absent when stepping v under u leaves the graph."""

    n_inputs: int
    vertices: frozenset[PairVertex]
    successor: dict[PairVertex, dict[int, PairVertex]]


def build(network: Bcn) -> DictPairGraph:
    vertices = {
        PairVertex(x, x2)
        for x in range(1, network.n_states + 1)
        for x2 in range(x, network.n_states + 1)
        if output(network, x) == output(network, x2)
    }
    successor: dict[PairVertex, dict[int, PairVertex]] = {}
    for v in sorted(vertices):
        row: dict[int, PairVertex] = {}
        for u in range(1, network.n_inputs + 1):
            target = make_pair(step(network, v.lo, u), step(network, v.hi, u))
            if target in vertices:
                row[u] = target
        successor[v] = row
    return DictPairGraph(network.n_inputs, frozenset(vertices), successor)


def pair_successor(graph, network: Bcn, vertex: PairVertex, control: int) -> Optional[PairVertex]:
    """Successor of a vertex under one input, None when the step leaves the
    graph.  Computed from the network directly; agrees with graph.successor."""
    if vertex not in graph.vertices:
        raise ValueError(f"{vertex} is not a vertex of this pair graph")
    if not 1 <= control <= graph.n_inputs:
        raise ValueError(f"input {control} outside 1..{graph.n_inputs}")
    target = make_pair(step(network, vertex.lo, control), step(network, vertex.hi, control))
    return target if target in graph.vertices else None


def _reachable(graph, sources: Iterable[PairVertex]) -> set[PairVertex]:
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for target in graph.successor[v].values():
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def reachable_subgraph(graph, start: PairVertex) -> DictPairGraph:
    """Restriction of the graph to everything reachable from one vertex."""
    if start not in graph.vertices:
        raise ValueError(f"{start} is not a vertex of this pair graph")
    keep = _reachable(graph, [start])
    successor = {v: dict(graph.successor[v]) for v in keep}
    return DictPairGraph(graph.n_inputs, frozenset(keep), successor)


def is_complete(dfa: Dfa) -> bool:
    """True when every state defines every letter."""
    return all(
        len(dfa.transitions[state]) == dfa.alphabet_size for state in dfa.states
    )


def shortest_undefined_word(dfa: Dfa) -> Optional[Word]:
    """Lexicographically least shortest word that runs off the transitions.

    None exactly when the machine is complete.  Breadth-first with letters
    tried in ascending order, so the first hole reached is the answer.
    """
    queue = deque([(dfa.initial, ())])
    seen = {dfa.initial}
    while queue:
        state, word = queue.popleft()
        row = dfa.transitions[state]
        for letter in range(1, dfa.alphabet_size + 1):
            if letter not in row:
                return word + (letter,)
            target = row[letter]
            if target not in seen:
                seen.add(target)
                queue.append((target, word + (letter,)))
    return None


def subset_automaton(graph, initial_vertices: Iterable[PairVertex]) -> Dfa:
    """Determinised reachability machine over PairVertex subsets."""
    initial = tuple(sorted(set(initial_vertices)))
    states = [initial]
    seen = {initial}
    transitions: dict[Hashable, dict[int, Hashable]] = {}
    queue = deque([initial])
    while queue:
        subset = queue.popleft()
        row: dict[int, Hashable] = {}
        for letter in range(1, graph.n_inputs + 1):
            targets = {
                graph.successor[v][letter]
                for v in subset
                if letter in graph.successor[v]
            }
            if not targets:
                continue
            successor = tuple(sorted(targets))
            row[letter] = successor
            if successor not in seen:
                seen.add(successor)
                states.append(successor)
                queue.append(successor)
        transitions[subset] = row
    return Dfa(graph.n_inputs, tuple(states), initial, transitions)


def vertex_automaton(graph, start: PairVertex) -> Dfa:
    states = [start]
    seen = {start}
    transitions: dict[Hashable, dict[int, Hashable]] = {}
    queue = deque([start])
    while queue:
        vertex = queue.popleft()
        row = dict(graph.successor[vertex])
        transitions[vertex] = row
        for letter in sorted(row):
            target = row[letter]
            if target not in seen:
                seen.add(target)
                states.append(target)
                queue.append(target)
    return Dfa(graph.n_inputs, tuple(states), start, transitions)


def _non_diagonal(graph) -> list[PairVertex]:
    return sorted(v for v in graph.vertices if not v.diagonal)


def decide_type_ii(graph) -> Verdict:
    """Per-pair decision over the reachable pair-graph machines."""
    stats: list[AutomatonStat] = []
    words: dict[PairVertex, Word] = {}
    for vertex in _non_diagonal(graph):
        dfa = vertex_automaton(graph, vertex)
        complete = is_complete(dfa)
        stats.append(
            AutomatonStat(f"pair {vertex.lo},{vertex.hi}", len(dfa.states), complete)
        )
        if complete:
            return Verdict(
                kind=ObservabilityType.TYPE_II,
                observable=False,
                offending_pair=vertex,
                automaton_stats=tuple(stats),
            )
        words[vertex] = shortest_undefined_word(dfa)
    return Verdict(
        kind=ObservabilityType.TYPE_II,
        observable=True,
        distinguishing=words,
        automaton_stats=tuple(stats),
    )


def _shortest_labeled_path(graph, start: PairVertex, goal: PairVertex) -> Optional[Word]:
    if start == goal:
        return ()
    queue = deque([(start, ())])
    seen = {start}
    while queue:
        vertex, word = queue.popleft()
        for letter in sorted(graph.successor[vertex]):
            target = graph.successor[vertex][letter]
            if target == goal:
                return word + (letter,)
            if target not in seen:
                seen.add(target)
                queue.append((target, word + (letter,)))
    return None


def _shortest_return(graph, vertex: PairVertex) -> Optional[Word]:
    """Shortest nonempty labeled walk from a vertex back to itself."""
    queue = deque([(vertex, ())])
    seen: set[PairVertex] = set()
    while queue:
        current, word = queue.popleft()
        for letter in sorted(graph.successor[current]):
            target = graph.successor[current][letter]
            if target == vertex:
                return word + (letter,)
            if target not in seen:
                seen.add(target)
                queue.append((target, word + (letter,)))
    return None


def decide_type_iv(graph) -> Verdict:
    """Cycle reachability from the confusable pairs, one shortest-return
    search per reachable vertex in ascending order."""
    ordered = _non_diagonal(graph)
    anchor = cycle = None
    for vertex in sorted(_reachable(graph, ordered)):
        cycle = _shortest_return(graph, vertex)
        if cycle is not None:
            anchor = vertex
            break
    if anchor is None:
        return Verdict(kind=ObservabilityType.TYPE_IV, observable=True)
    for source in ordered:
        prefix = _shortest_labeled_path(graph, source, anchor)
        if prefix is not None:
            return Verdict(
                kind=ObservabilityType.TYPE_IV,
                observable=False,
                offending_pair=source,
                lasso=Lasso(source, prefix, cycle),
            )
    raise AssertionError("cycle anchor was reachable but no source reaches it")


def identity(n: int) -> LogicalMatrix:
    return LogicalMatrix(n, tuple(range(1, n + 1)))


def delta(n: int, i: int) -> LogicalMatrix:
    """The i-th column of the n x n identity, as an n x 1 matrix."""
    return LogicalMatrix(n, (i,))


def to_dense(matrix: LogicalMatrix) -> np.ndarray:
    out = np.zeros((matrix.rows, matrix.cols), dtype=np.int64)
    for j, r in enumerate(matrix.col_index):
        out[r - 1, j] = 1
    return out


def from_dense(array) -> LogicalMatrix:
    a = np.asarray(array)
    if a.ndim != 2:
        raise ValueError("need a 2-D array")
    if not np.isin(a, (0, 1)).all():
        raise ValueError("entries must be 0 or 1")
    if not (a.sum(axis=0) == 1).all():
        raise ValueError("every column must contain exactly one 1")
    return LogicalMatrix(a.shape[0], tuple(int(r) + 1 for r in a.argmax(axis=0)))


def index_to_bool_tuple(index: int, width: int) -> tuple[bool, ...]:
    """Inverse of stp.bool_tuple_index for a fixed tuple width."""
    if not 1 <= index <= 2 ** width:
        raise ValueError(f"index {index} outside 1..{2 ** width}")
    rem = index - 1
    return tuple(not (rem >> pos) & 1 for pos in range(width - 1, -1, -1))


def stp(a, b) -> np.ndarray:
    """Semi-tensor product of two dense matrices.

    For A of shape (m, n) and B of shape (p, q), with t = lcm(n, p), this is
    (A kron I_{t/n}) @ (B kron I_{t/p}), of shape (m*t/n, q*t/p).  When
    n == p it reduces to the ordinary matrix product.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("stp operands must be 2-D")
    n, p = a.shape[1], b.shape[0]
    t = math.lcm(n, p)
    dtype = np.result_type(a, b)
    left = np.kron(a, np.eye(t // n, dtype=dtype))
    right = np.kron(b, np.eye(t // p, dtype=dtype))
    return left @ right


def logical_stp(a: LogicalMatrix, b: LogicalMatrix) -> LogicalMatrix:
    """Semi-tensor product of logical matrices, by index arithmetic alone.

    One inner dimension must divide the other; that covers every product the
    network pipeline forms (transition matrix times delta column, output map
    times state, stacking an input onto a state).  Agrees with stp() on the
    dense representations.
    """
    m, n = a.rows, a.cols
    p = b.rows
    if n % p == 0:
        # A (B kron I_k): result column (j-1)k + r reads column (b_j - 1)k + r of A
        k = n // p
        idx: list[int] = []
        for bj in b.col_index:
            base = (bj - 1) * k
            idx.extend(a.col_index[base:base + k])
        return LogicalMatrix(m, tuple(idx))
    if p % n == 0:
        # (A kron I_k) B: with b_j = (s-1)k + r, result column j is (a_s - 1)k + r
        k = p // n
        idx = []
        for bj in b.col_index:
            s, r = divmod(bj - 1, k)
            idx.append((a.col_index[s] - 1) * k + r + 1)
        return LogicalMatrix(m * k, tuple(idx))
    raise ValueError(
        f"inner dimensions {n} and {p} divide neither way; such a product"
        " of logical matrices need not be logical"
    )


def swap_matrix(m: int, n: int) -> LogicalMatrix:
    """The permutation W with W (u stp v) = v stp u for u in D_m, v in D_n.

    Column (i-1)n + j carries index (j-1)m + i.  swap_matrix(1, n) and
    swap_matrix(n, 1) are the n x n identity.
    """
    if m < 1 or n < 1:
        raise ValueError("swap matrix factors must be positive")
    idx = [0] * (m * n)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            idx[(i - 1) * n + (j - 1)] = (j - 1) * m + i
    return LogicalMatrix(m * n, tuple(idx))


def trajectory(
    network: Bcn, start: int, word: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """States x(1..p) and outputs y(1..p) produced by driving a word.

    The word must be nonempty; the start state's own output y(0) is not
    part of the result and is compared separately where it matters.
    """
    if len(word) == 0:
        raise ValueError("trajectory needs at least one input symbol")
    states = []
    current = start
    for control in word:
        current = step(network, current, control)
        states.append(current)
    return tuple(states), tuple(output(network, x) for x in states)


def accepts(dfa: Dfa, word: Iterable[int]) -> bool:
    """Run a word from the initial state.

    True when every step is defined: every state accepts, so a word is
    rejected only by running off the map.
    """
    state = dfa.initial
    for letter in word:
        if not 1 <= letter <= dfa.alphabet_size:
            raise ValueError(f"letter {letter} outside 1..{dfa.alphabet_size}")
        row = dfa.transitions[state]
        if letter not in row:
            return False
        state = row[letter]
    return True


def fit_horizon(n_inputs: int, kind: ObservabilityType, horizon: int, budget: int) -> int:
    """Largest length <= horizon whose enumeration stays within budget,
    found by counting down from the horizon."""
    fitted = horizon
    while fitted > 1 and _enumeration_cost(n_inputs, kind, fitted) > budget:
        fitted -= 1
    if _enumeration_cost(n_inputs, kind, fitted) > budget:
        raise ValueError(
            f"budget {budget} cannot cover even a single-letter search"
            f" over {n_inputs} inputs"
        )
    return fitted


def serialize_document(document: BcnDocument) -> str:
    """Canonical JSON text; parse_document(serialize_document(d)) == d."""
    body: dict = {}
    if document.name is not None:
        body["name"] = document.name
    body.update(n=document.n, m=document.m, q=document.q)
    if document.transition_columns is not None:
        body["ordering"] = document.ordering
        body["L"] = list(document.transition_columns)
        body["H"] = list(document.output_columns)
    else:
        body["update"] = {k: document.update_table[k] for k in sorted(document.update_table)}
        body["output"] = {k: document.output_table[k] for k in sorted(document.output_table)}
    return json.dumps(body, indent=2) + "\n"
