"""Brute-force cross-check for the observability deciders.

Everything here works by direct simulation and word enumeration; none of
the pair-graph or automaton machinery is used, so agreement between the two
sides is meaningful evidence.  One pair step, _unseparated, serves both
brute force, which walks the tree of input words with it, and witness replay.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .bcn import Bcn, ObservabilityType

Word = tuple[int, ...]
Entry = tuple[int, int, int]  # (id, a, b): a pair's id and its two current states

DEFAULT_BUDGET = 2 ** 20


def confusable_pairs(network: Bcn) -> tuple[tuple[int, int], ...]:
    """Ordered pairs (a, b), a < b, of distinct states with equal output."""
    return tuple(sorted(
        pair for members in network.classes.values() for pair in itertools.combinations(members, 2)
    ))


def confusable_count(network: Bcn) -> int:
    """The number of confusable pairs, counted from the output classes."""
    return sum(k * (k - 1) // 2 for k in map(len, network.classes.values()))


def conclusive_horizon(network: Bcn, kind: ObservabilityType) -> Optional[int]:
    """Word length, at least 1, at which exhaustive search is conclusive: N - k
    for TYPE_II on N states in k output classes (Moore 1956: refining the
    classes by successors settles within N - k rounds), the confusable-pair
    count for TYPE_IV; None for types I and III."""
    if kind is ObservabilityType.TYPE_II:
        return max(network.n_states - len(network.classes), 1)
    if kind is ObservabilityType.TYPE_IV:
        return max(confusable_count(network), 1)
    return None


def _unseparated(network: Bcn, entries: list[Entry], word: Sequence[int]) -> list[Entry]:
    """The entries whose two states, sharing an output at the start, share
    one after every letter of the word, each holding the states the word
    leads to.  The states and letters index the maps directly, so they
    must lie in 1..n_states and 1..n_inputs: replay checks its payload.
    """
    n, trans, out = network.n_states, network.transition, network.output_map
    for control in word:
        base = (control - 1) * n - 1
        kept = []
        for i, a, b in entries:
            x, y = trans[base + a], trans[base + b]
            if out[x - 1] == out[y - 1]:
                kept.append((i, x, y))
        entries = kept
    return entries


def _leaves(network: Bcn, pairs: list[Entry], length: int) -> Iterator[list[Entry]]:
    """The survivors of each word of the given length, depth-first in
    lexicographic order.  A prefix that leaves no survivor is one leaf
    standing for all its extensions: a separated pair stays separated.
    Each child is stepped from its parent when it is reached, on a stack
    rather than the call stack: the caller's length may pass Python's
    recursion limit."""
    stack = [(pairs, None, length)]
    while stack:
        parent, control, depth = stack.pop()
        entries = parent if control is None else _unseparated(network, parent, (control,))
        if depth == 0 or not entries:
            yield entries
        else:
            stack.extend((entries, u, depth - 1) for u in range(network.n_inputs, 0, -1))


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one exhaustive search.

    horizon is the length actually searched; exact says whether that length
    is known conclusive, so an exact verdict must match the corresponding
    decider.  budget_limited marks a horizon that was cut down to keep the
    enumeration within budget (the verdict is then a bounded-length answer,
    never a wrong one, and exact is judged against the cut horizon).
    """

    kind: ObservabilityType
    horizon: int
    observable: bool
    exact: bool
    budget_limited: bool = False

    def refutes(self, observable: bool) -> bool:
        """True when this result proves a decider's verdict wrong.

        An "observable" answer rests on words actually found, so it is
        conclusive at any horizon; a "not observable" one only says no word
        up to the horizon works, so it is conclusive only when exact.
        """
        return self.observable != observable and (self.exact or self.observable)


def _fit_horizon(n_inputs: int, kind: ObservabilityType, horizon: int, budget: int) -> int:
    """Largest length <= horizon whose enumeration stays within budget."""
    if n_inputs > budget:
        raise ValueError(
            f"budget {budget} cannot cover even a single-letter search"
            f" over {n_inputs} inputs"
        )
    # count up, adding the M^h words of each length h (TYPE_IV: only the last)
    fitted, words, cost = 1, n_inputs, n_inputs
    while fitted < horizon:
        words *= n_inputs
        cost = words if kind is ObservabilityType.TYPE_IV else cost + words
        if cost > budget:
            break
        fitted += 1
    return fitted


def brute_force(
    network: Bcn,
    kind: ObservabilityType,
    horizon: int,
    budget: int = DEFAULT_BUDGET,
    sufficient_horizon: Optional[int] = None,
) -> OracleVerdict:
    """Decide one observability notion by enumerating input words.

    Searches words of length up to the horizon (exactly the horizon for
    TYPE_IV, where longer words only separate more).  The exact flag is
    true when the searched length is known conclusive: at least
    conclusive_horizon for types II and IV, and sufficient_horizon (from the
    caller, typically exact_oracle_horizon) for types I and III.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    searched = _fit_horizon(network.n_inputs, kind, horizon, budget)
    pairs = confusable_pairs(network)
    entries = [(i, a, b) for i, (a, b) in enumerate(pairs)]
    lengths = [searched] if kind is ObservabilityType.TYPE_IV else range(1, searched + 1)
    leaves = (leaf for length in lengths for leaf in _leaves(network, entries, length))

    if kind is ObservabilityType.TYPE_III:
        observable = not all(leaves)
    elif kind is ObservabilityType.TYPE_IV:
        observable = not any(leaves)
    elif kind in (ObservabilityType.TYPE_I, ObservabilityType.TYPE_II):
        left = None  # the pair ids (TYPE_I: their states) no leaf so far separates
        for leaf in leaves:
            held = {i for i, _, _ in leaf}
            if kind is ObservabilityType.TYPE_I:
                held = {state for i in held for state in pairs[i]}
            left = held if left is None else left & held
            if not left:
                break
        observable = not left
    else:
        raise ValueError(f"unknown observability type {kind!r}")

    sufficient = conclusive_horizon(network, kind) or sufficient_horizon
    return OracleVerdict(
        kind=kind,
        horizon=searched,
        observable=observable,
        exact=sufficient is not None and searched >= sufficient,
        budget_limited=searched < horizon,
    )


def verify_witness(network: Bcn, kind: ObservabilityType, witness) -> bool:
    """Check a decider-produced witness by direct simulation.

    Payload shapes: TYPE_I (state, word); TYPE_II ((a, b), word); TYPE_III
    word; TYPE_IV ((a, b), prefix, cycle).  The lasso for TYPE_IV passes
    when the pair stays output-identical along prefix plus cycle and the
    cycle brings it back to the unordered pair it reached after the prefix:
    the dynamics being deterministic, the pair then repeats the cycle
    forever without separating.  Malformed payloads raise ValueError: a
    state outside 1..n_states, a letter outside 1..n_inputs, a pair that is
    not two distinct states sharing an output, an empty word or cycle.
    """
    if kind is ObservabilityType.TYPE_I:
        state, word = _as_pairload(witness, "TYPE_I witness is (state, word)")
        _check_index("state", state, network.n_states)
        mates = network.classes[network.output_map[state - 1]]
        rivals = [(0, state, x) for x in mates if x != state]
        return not _unseparated(network, rivals, _as_word(network, word))
    if kind is ObservabilityType.TYPE_II:
        pair, word = _as_pairload(witness, "TYPE_II witness is ((a, b), word)")
        return not _unseparated(network, [_as_entry(network, pair)], _as_word(network, word))
    if kind is ObservabilityType.TYPE_III:
        pairs = [(0, a, b) for a, b in confusable_pairs(network)]
        return not _unseparated(network, pairs, _as_word(network, witness))
    if kind is ObservabilityType.TYPE_IV:
        try:
            pair, prefix, cycle = witness
        except (TypeError, ValueError):
            raise ValueError("TYPE_IV witness is ((a, b), prefix, cycle)") from None
        cycle = _as_word(network, cycle)
        word = _as_word(network, itertools.chain(prefix, cycle))  # checks the prefix too
        start = _unseparated(network, [_as_entry(network, pair)], word[: -len(cycle)])
        end = _unseparated(network, start, cycle)
        return bool(end) and set(end[0][1:]) == set(start[0][1:])
    raise ValueError(f"unknown observability type {kind!r}")


def _as_pairload(witness, message: str) -> tuple:
    try:
        first, second = witness
    except (TypeError, ValueError):
        raise ValueError(message) from None
    return first, second


def _as_word(network: Bcn, word) -> Word:
    """The word as a nonempty tuple of ints in 1..n_inputs; a bool is not one."""
    try:
        letters = tuple(word)
    except TypeError:
        raise ValueError("witness word must be a sequence of input indices") from None
    if not letters:
        raise ValueError("witness word must be nonempty")
    for control in letters:
        _check_index("input", control, network.n_inputs)
    return letters


def _check_index(what: str, value, limit: int) -> None:
    if type(value) is not int or not 1 <= value <= limit:
        raise ValueError(f"witness {what} {value!r} is not an int in 1..{limit}")


def _as_entry(network: Bcn, pair) -> Entry:
    """The witness pair as an entry: two distinct states sharing an output."""
    try:
        a, b = pair
    except (TypeError, ValueError):
        raise ValueError("witness pair must hold two states") from None
    _check_index("state", a, network.n_states)
    _check_index("state", b, network.n_states)
    if a == b:
        raise ValueError("witness pair must hold two distinct states")
    if network.output_map[a - 1] != network.output_map[b - 1]:
        raise ValueError(f"witness pair {pair!r} does not share an output")
    return 0, a, b
