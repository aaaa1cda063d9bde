"""Reference code kept for the tests, outside the library.

- The pair-graph code the library replaced: the dict-of-dicts pair graph
  built by an O(N^2) loop, the array build that looked successor ids up by
  binary search, the subset construction over vertex tuples, the
  per-pair type II decider that builds one reachable machine per
  confusable pair, and the type IV cycle search that tries a
  shortest-return search from each reachable vertex in turn.  They are
  slow but direct, and tests compare the library's integer-indexed graph
  and linear-time searches against them.
- The id-array searches the library's types II and IV replaced: one word
  tuple per pair (shortest_words, exit_words) and Tarjan over the whole
  pair graph (on_cycle, find_lasso), before the lasso search peeled the
  pairs with no infinite walk; and each pair's longest separation time by
  plain recursion (separation_times), which the peel's sweep, read with its
  levels, must give.
- The logical matrix (LogicalMatrix, a column-index list with its row
  count), the dense semi-tensor product and its index-arithmetic form on
  logical matrices, the independent check that the algebraic form is
  right, with the identity and delta constructors, the dense round trip
  and the inverse of bool_tuple_index that the checks are written in.
- The oracle's old code: the range-checked one-state step and output,
  distinguishes, the word lists (words, words_up_to), confusable_pairs by
  comparing every two states, brute_force as one loop per kind that
  simulates every word from its first letter for every pair, and the
  scalar replay of well-formed witnesses (verify_witness).  The tests
  compare the word-tree walk and the checked replay against them.
- Word runs on networks (trajectory) and on automata (accepts).
- The walks over a finished machine (is_complete, shortest_undefined_word),
  which the library's hole search, automata.least_hole, replaced and is
  checked against, the oracle's old count-down rule for fitting a
  horizon to a budget with the word count it sums afresh for each length
  (enumeration_cost), and the old conclusive horizon taken from the full
  subset machines.
- The canonical document writer, which only the round-trip tests use.
- The general compile the library replaced with direct column arithmetic:
  the truth-table compiler over Boolean tuples (from_truth_table,
  bool_tuple_index), the column reorder in both directions
  (reorder_columns), and the compile of a document body written in them
  (compile_document).  The tests check the networks parse_document builds
  against it.
- bcn_from_columns, which builds a network from L columns in either
  layout; only tests build networks that way.
- The output path the CLI replaced: the DOT renderers that group edges in
  a dict and sort the (source label, target label) strings, and the
  verdict lines spelled one line and one word at a time.  The tests
  compare the bulk renderers against them byte for byte.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, product
from typing import Hashable, Iterable, Mapping, Optional, Sequence

import numpy as np

from bcnobs.automata import Dfa, Lasso, Word
from bcnobs.bcn import Bcn
from bcnobs.bcnio import COLUMN_ORDERS, BcnDocument, _label
from bcnobs.observability import AutomatonStat, ObservabilityType, Verdict, type_automata
from bcnobs.oracle import DEFAULT_BUDGET, OracleVerdict, _fit_horizon
from bcnobs.pairgraph import UNREACHED, PairGraph

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


def search_build(network: Bcn) -> PairGraph:
    """The integer-indexed pair graph, successor ids found by binary search
    on the key lo * (N + 1) + hi."""
    n = network.n_states
    out = np.asarray(network.output_map, dtype=np.int64)
    step = np.asarray(network.transition, dtype=np.int64).reshape(-1, n)
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


def machine_horizon(kind: ObservabilityType, graph: PairGraph) -> int:
    """The conclusive horizon read off the full machines: the confusable-pair
    count for types II and IV, the largest state count among the subset
    machines type_automata lists for types I and III.  At least 1."""
    if kind in (ObservabilityType.TYPE_II, ObservabilityType.TYPE_IV):
        return max(len(graph.nondiagonal), 1)
    return max((len(dfa.states) for _, dfa in type_automata(graph, kind)), default=1)


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


def shortest_words(graph: PairGraph, dist: np.ndarray, exit_dist: int) -> list[Optional[Word]]:
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


def exit_words(graph: PairGraph) -> dict:
    """The type II witnesses as one tuple per confusable pair, keyed by
    (lo, hi): the map the library's ExitWords view replaced."""
    words = shortest_words(graph, graph.exit_distances, 0)
    return {graph.pairs[p]: words[p] for p in graph.nondiagonal.tolist()}


def on_cycle(graph: PairGraph, roots: list[int]) -> list[int]:
    """The pairs reachable from the roots that lie on a cycle, by iterative
    Tarjan over the whole pair graph."""
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


def find_lasso(graph: PairGraph, sources: list[int]) -> Optional[Lasso]:
    """The lasso search the library's peeled one replaced: Tarjan over the
    whole graph from every source, then a word for every pair reaching the
    anchor."""
    cyclic = on_cycle(graph, sources)
    if not cyclic:
        return None
    anchor = min(cyclic)
    dist = graph.distances(np.array([anchor]), 0)
    words = shortest_words(graph, dist, UNREACHED)
    source = next(p for p in sources if words[p] is not None)
    exits = graph.succ[:, anchor]
    first = int(np.argmin(np.where(exits >= 0, dist[exits], UNREACHED)))
    cycle = (first + 1,) + words[exits[first]]
    return Lasso(graph.pairs[source], words[source], cycle)


def separation_times(graph: PairGraph) -> list[float]:
    """Per pair id, its longest separation time: 1 plus the largest time of
    its successors on the graph, 1 when it has none, math.inf when it can
    reach a cycle.  The recursion runs depth first on an explicit stack; a
    successor still on the stack closes a cycle, so it counts as infinite."""
    rows = [sorted({q for q in column if q >= 0}) for column in graph.succ.T.tolist()]
    time: list[float] = [0] * graph.n_pairs  # 0 = not visited, -1 = on the stack
    for root in range(graph.n_pairs):
        calls = [] if time[root] else [(root, iter(rows[root]))]
        while calls:
            p, pending = calls[-1]
            time[p] = -1
            for q in pending:
                if not time[q]:
                    calls.append((q, iter(rows[q])))
                    break
            else:
                calls.pop()
                after = (math.inf if time[q] < 0 else time[q] for q in rows[p])
                time[p] = 1 + max(after, default=0)
    return time


@dataclass(frozen=True)
class LogicalMatrix:
    """A 0/1 matrix with exactly one 1 per column, stored by column index.

    col_index[j] is the 1-based row of the single nonzero entry of column
    j + 1.  The representation makes products and column lookups cheap and
    keeps the decision pipeline in exact integer arithmetic.
    """

    rows: int
    col_index: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError(f"rows must be positive, got {self.rows}")
        object.__setattr__(self, "col_index", tuple(self.col_index))
        for j, r in enumerate(self.col_index):
            if not isinstance(r, int) or isinstance(r, bool):
                raise ValueError(f"column {j + 1} index must be an int, got {r!r}")
            if not 1 <= r <= self.rows:
                raise ValueError(
                    f"column {j + 1} points at row {r}, outside 1..{self.rows}"
                )

    @property
    def cols(self) -> int:
        return len(self.col_index)


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
    """Inverse of bool_tuple_index for a fixed tuple width."""
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


def _check_state(network: Bcn, state: int) -> None:
    if not 1 <= state <= network.n_states:
        raise ValueError(f"state {state} outside 1..{network.n_states}")


def step(network: Bcn, state: int, control: int) -> int:
    """Successor state index after driving one input symbol."""
    _check_state(network, state)
    if not 1 <= control <= network.n_inputs:
        raise ValueError(f"input {control} outside 1..{network.n_inputs}")
    return network.transition[(control - 1) * network.n_states + state - 1]


def output(network: Bcn, state: int) -> int:
    """Output index emitted at a state."""
    _check_state(network, state)
    return network.output_map[state - 1]


def distinguishes(network: Bcn, first: int, second: int, word: Sequence[int]) -> bool:
    """True when the input word tells the two start states apart.

    The immediate outputs are compared first, so an empty word checks just
    those; otherwise the two states are stepped in parallel and compared
    after every letter.
    """
    if first == second:
        raise ValueError("states must differ")
    if output(network, first) != output(network, second):
        return True
    a, b = first, second
    for control in word:
        a = step(network, a, control)
        b = step(network, b, control)
        if output(network, a) != output(network, b):
            return True
    return False


def confusable_pairs(network: Bcn) -> tuple[tuple[int, int], ...]:
    """Ordered pairs (a, b), a < b, of distinct states with equal output,
    by comparing the outputs of every two states."""
    return tuple(
        (a, b)
        for a in range(1, network.n_states + 1)
        for b in range(a + 1, network.n_states + 1)
        if output(network, a) == output(network, b)
    )


def words(n_inputs: int, length: int):
    return product(range(1, n_inputs + 1), repeat=length)


def words_up_to(n_inputs: int, horizon: int):
    for length in range(1, horizon + 1):
        yield from words(n_inputs, length)


def _rivals(network: Bcn, state: int) -> list[int]:
    """The states other than the given one sharing its output."""
    return [
        x
        for x in range(1, network.n_states + 1)
        if x != state and output(network, x) == output(network, state)
    ]


def _state_determinable(network: Bcn, state: int, horizon: int) -> bool:
    rivals = _rivals(network, state)  # none: the first word settles the state
    return any(
        all(distinguishes(network, state, rival, word) for rival in rivals)
        for word in words_up_to(network.n_inputs, horizon)
    )


def brute_force(
    network: Bcn,
    kind: ObservabilityType,
    horizon: int,
    budget: int = DEFAULT_BUDGET,
    sufficient_horizon: Optional[int] = None,
) -> OracleVerdict:
    """The oracle's search by one loop per kind, each word simulated from
    its first letter for every pair."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    searched = _fit_horizon(network.n_inputs, kind, horizon, budget)
    pairs = confusable_pairs(network)

    if kind is ObservabilityType.TYPE_I:
        observable = all(
            _state_determinable(network, state, searched)
            for state in range(1, network.n_states + 1)
        )
    elif kind is ObservabilityType.TYPE_II:
        observable = all(
            any(
                distinguishes(network, a, b, word)
                for word in words_up_to(network.n_inputs, searched)
            )
            for a, b in pairs
        )
    elif kind is ObservabilityType.TYPE_III:
        observable = any(
            all(distinguishes(network, a, b, word) for a, b in pairs)
            for word in words_up_to(network.n_inputs, searched)
        )
    elif kind is ObservabilityType.TYPE_IV:
        observable = all(
            distinguishes(network, a, b, word)
            for word in words(network.n_inputs, searched)
            for a, b in pairs
        )
    else:
        raise ValueError(f"unknown observability type {kind!r}")

    if kind is ObservabilityType.TYPE_II:
        classes = {output(network, x) for x in range(1, network.n_states + 1)}
        exact = searched >= network.n_states - len(classes)
    elif kind is ObservabilityType.TYPE_IV:
        exact = searched >= len(pairs)
    else:
        exact = sufficient_horizon is not None and searched >= sufficient_horizon
    return OracleVerdict(
        kind=kind,
        horizon=searched,
        observable=observable,
        exact=exact,
        budget_limited=searched < horizon,
    )


def _run(network: Bcn, state: int, word: Sequence[int]) -> int:
    for control in word:
        state = step(network, state, control)
    return state


def verify_witness(network: Bcn, kind: ObservabilityType, witness) -> bool:
    """The scalar replay, one range-checked step at a time, of a well-formed
    payload in the shapes oracle.verify_witness takes."""
    if kind is ObservabilityType.TYPE_I:
        state, word = witness
        return all(distinguishes(network, state, rival, word) for rival in _rivals(network, state))
    if kind is ObservabilityType.TYPE_II:
        (a, b), word = witness
        return distinguishes(network, a, b, word)
    if kind is ObservabilityType.TYPE_III:
        return all(distinguishes(network, a, b, witness) for a, b in confusable_pairs(network))
    (a, b), prefix, cycle = witness
    if distinguishes(network, a, b, tuple(prefix) + tuple(cycle)):
        return False
    start = {_run(network, a, prefix), _run(network, b, prefix)}
    return start == {_run(network, x, cycle) for x in start}


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


def enumeration_cost(n_inputs: int, kind: ObservabilityType, horizon: int) -> int:
    """Words a search of this length walks: M^h for TYPE_IV, M + ... + M^h
    for the other kinds."""
    if kind is ObservabilityType.TYPE_IV:
        return n_inputs ** horizon
    return sum(n_inputs ** p for p in range(1, horizon + 1))


def fit_horizon(n_inputs: int, kind: ObservabilityType, horizon: int, budget: int) -> int:
    """Largest length <= horizon whose enumeration stays within budget,
    found by counting down from the horizon."""
    fitted = horizon
    while fitted > 1 and enumeration_cost(n_inputs, kind, fitted) > budget:
        fitted -= 1
    if enumeration_cost(n_inputs, kind, fitted) > budget:
        raise ValueError(
            f"budget {budget} cannot cover even a single-letter search"
            f" over {n_inputs} inputs"
        )
    return fitted


def serialize_document(document: BcnDocument) -> str:
    """Canonical JSON text, the input-first matrix body;
    parse_document(serialize_document(d)) == d; n, m and q are read off the
    network's sizes."""
    network, name = document
    body: dict = {} if name is None else {"name": name}
    sizes = network.n_states, network.n_inputs, network.n_outputs
    n, m, q = (size.bit_length() - 1 for size in sizes)
    body.update(n=n, m=m, q=q, ordering="input-first")
    body.update(L=list(network.transition), H=list(network.output_map))
    return json.dumps(body, indent=2) + "\n"


def bool_tuple_index(values: Iterable[bool]) -> int:
    """1-based delta index of a Boolean tuple, first variable most significant."""
    idx = 1
    for v in values:
        idx = 2 * idx - 1 if v else 2 * idx
    return idx


def from_truth_table(
    n_inputs: int,
    n_outputs: int,
    table: Mapping[Sequence[bool], Sequence[bool]],
) -> LogicalMatrix:
    """Compile a total Boolean map into its structure matrix F.

    F satisfies F stp enc(v_1) stp ... stp enc(v_k) = enc(f(v_1, ..., v_k))
    under the delta encoding.  The table must assign every valuation exactly
    once; keys and values are tuples of Booleans (0/1 accepted).
    """
    if n_inputs < 0 or n_outputs < 1:
        raise ValueError("need n_inputs >= 0 and n_outputs >= 1")
    cols = [0] * (2 ** n_inputs)
    for key, value in table.items():
        if len(key) != n_inputs:
            raise ValueError(f"valuation {key!r} does not have {n_inputs} entries")
        if len(value) != n_outputs:
            raise ValueError(f"result {value!r} does not have {n_outputs} entries")
        for v in (*key, *value):
            if v not in (0, 1):
                raise ValueError(f"non-Boolean entry {v!r} in truth table")
        j = bool_tuple_index(bool(v) for v in key)
        if cols[j - 1] != 0:
            raise ValueError(f"valuation {tuple(key)!r} assigned twice")
        cols[j - 1] = bool_tuple_index(bool(v) for v in value)
    missing = [k + 1 for k, c in enumerate(cols) if c == 0]
    if missing:
        raise ValueError(
            f"truth table is not total: {len(missing)} of {len(cols)} valuations missing"
        )
    return LogicalMatrix(2 ** n_outputs, tuple(cols))


def reorder_columns(
    matrix: LogicalMatrix,
    n_states: int,
    n_inputs: int,
    from_order: str,
    to_order: str,
) -> LogicalMatrix:
    """Re-index transition-matrix columns between the two (state, input) layouts.

    state-first puts the column for state i under input j at position
    (i-1)*n_inputs + j; input-first puts it at (j-1)*n_states + i.  The two
    conventions carry the same data and mixing them up silently corrupts a
    network, so callers must always name both layouts.
    """
    for order in (from_order, to_order):
        if order not in COLUMN_ORDERS:
            raise ValueError(f"unknown column ordering {order!r}, expected one of {COLUMN_ORDERS}")
    if matrix.cols != n_states * n_inputs:
        raise ValueError(
            f"matrix has {matrix.cols} columns, expected {n_states} * {n_inputs}"
        )
    if from_order == to_order:
        return matrix
    idx = [0] * matrix.cols
    for i in range(1, n_states + 1):
        for j in range(1, n_inputs + 1):
            state_first = (i - 1) * n_inputs + j
            input_first = (j - 1) * n_states + i
            src, dst = (
                (state_first, input_first)
                if from_order == "state-first"
                else (input_first, state_first)
            )
            idx[dst - 1] = matrix.col_index[src - 1]
    return LogicalMatrix(matrix.rows, tuple(idx))


def _bits_to_bools(text: str) -> tuple[bool, ...]:
    return tuple(ch == "1" for ch in text)


def compile_document(body: Mapping) -> Bcn:
    """The network of a document body as written (its loaded JSON object),
    through the general converters: the matrix body reordered to
    input-first, the tables compiled over Boolean tuples with the input
    bits ahead of the state bits."""
    n_states, n_inputs, n_outputs = 2 ** body["n"], 2 ** body["m"], 2 ** body["q"]
    if "L" in body:
        transition = reorder_columns(
            LogicalMatrix(n_states, tuple(body["L"])),
            n_states, n_inputs, body["ordering"], "input-first",
        )
        return Bcn(n_states, n_inputs, n_outputs, transition.col_index, body["H"])
    update, out_table = (
        {_bits_to_bools(key): _bits_to_bools(value) for key, value in body[field].items()}
        for field in ("update", "output")
    )
    transition = from_truth_table(body["m"] + body["n"], body["n"], update)
    output_map = from_truth_table(body["n"], body["q"], out_table)
    return Bcn(n_states, n_inputs, n_outputs, transition.col_index, output_map.col_index)


def bcn_from_columns(
    n: int,
    m: int,
    q: int,
    transition_columns: Sequence[int],
    output_columns: Sequence[int],
    ordering: str,
) -> Bcn:
    """Build a network over n state, m input, q output variables.

    transition_columns lists the 1-based successor indices in the named
    column ordering.  They are stored input-first: a state-first list is
    transposed by taking every 2^m-th entry for each input in turn.
    """
    if ordering not in COLUMN_ORDERS:
        raise ValueError(f"unknown column ordering {ordering!r}, expected one of {COLUMN_ORDERS}")
    n_states, n_inputs, n_outputs = 2 ** n, 2 ** m, 2 ** q
    columns = tuple(transition_columns)
    if ordering == "state-first":
        columns = tuple(chain.from_iterable(columns[u::n_inputs] for u in range(n_inputs)))
    return Bcn(n_states, n_inputs, n_outputs, columns, output_columns)


def _grouped_edge_lines(rows: list[tuple[str, int, str]]) -> list[str]:
    """Collapse (source, letter, target) triples into labeled edge lines."""
    grouped: dict[tuple[str, str], list[int]] = {}
    for source, letter, target in rows:
        grouped.setdefault((source, target), []).append(letter)
    lines = []
    for (source, target), letters in sorted(grouped.items()):
        label = ",".join(str(u) for u in sorted(letters))
        lines.append(f'  "{source}" -> "{target}" [label="{label}"];')
    return lines


def emit_dot(graph) -> str:
    """Graphviz source for a pair graph, edges grouped one at a time."""
    lines = ["digraph pair_graph {", "  rankdir=LR;", "  node [shape=circle];"]
    labels = list(map(_label, graph.pairs))
    lines.extend(f'  "{label}";' for label in labels)
    rows = [
        (labels[p], letter, labels[target])
        for letter, step in enumerate(graph.rows, 1)
        for p, target in enumerate(step)
        if target >= 0
    ]
    lines.extend(_grouped_edge_lines(rows))
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_automaton_dot(graph, dfa: Dfa) -> str:
    """Graphviz source for a machine over the graph's pair ids, edges
    grouped one at a time."""
    pairs = graph.pairs
    name = {state: ",".join(_label(pairs[p]) for p in state) for state in dfa.states}
    lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=none, label=""];']
    for state in sorted(dfa.states):
        lines.append(f'  "{name[state]}" [shape=doublecircle];')
    lines.append(f'  __start -> "{name[dfa.initial]}";')
    rows = [
        (name[state], letter, name[target])
        for state in sorted(dfa.states)
        for letter, target in sorted(dfa.transitions[state].items())
    ]
    lines.extend(_grouped_edge_lines(rows))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _word_text(word) -> str:
    return "[" + ",".join(str(u) for u in word) + "]"


def verdict_lines(verdict: Verdict, show_witness: bool) -> list[str]:
    """The lines bcnobs decide prints for one verdict, one at a time."""
    flag = "observable" if verdict.observable else "not observable"
    detail = ""
    if not verdict.observable:
        if verdict.kind is ObservabilityType.TYPE_I:
            detail = f" (offending state {verdict.offending_state})"
        elif verdict.kind is ObservabilityType.TYPE_II:
            a, b = verdict.offending_pair
            detail = f" (offending pair ({a},{b}))"
        elif verdict.kind is ObservabilityType.TYPE_IV:
            a, b = verdict.offending_pair
            lasso = verdict.lasso
            detail = (
                f" (pair ({a},{b}) rides prefix {_word_text(lasso.prefix)}"
                f" then cycle {_word_text(lasso.cycle)} forever)"
            )
    lines = [f"type {verdict.kind.value}: {flag}{detail}"]
    if show_witness and verdict.observable:
        if verdict.kind is ObservabilityType.TYPE_I:
            for state, word in sorted(verdict.determining.items()):
                lines.append(f"  state {state}: {_word_text(word)}")
            for state in sorted(verdict.any_word_states):
                lines.append(f"  state {state}: any single input")
        elif verdict.kind is ObservabilityType.TYPE_II:
            for (a, b), word in sorted(verdict.distinguishing.items()):
                lines.append(f"  pair ({a},{b}): {_word_text(word)}")
        elif verdict.kind is ObservabilityType.TYPE_III:
            lines.append(f"  witness word {_word_text(verdict.universal_word)}")
    return lines
