"""Brute-force cross-check for the observability deciders.

Everything here works by direct simulation and word enumeration; none of
the pair-graph or automaton machinery is used, so agreement between the two
sides is meaningful evidence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .bcn import Bcn, output, step
from .observability import ObservabilityType

Word = tuple[int, ...]

DEFAULT_BUDGET = 2 ** 20


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
    """Ordered pairs (a, b), a < b, of distinct states with equal output."""
    return tuple(
        (a, b)
        for a in range(1, network.n_states + 1)
        for b in range(a + 1, network.n_states + 1)
        if output(network, a) == output(network, b)
    )


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


def _enumeration_cost(n_inputs: int, kind: ObservabilityType, horizon: int) -> int:
    if kind is ObservabilityType.TYPE_IV:
        return n_inputs ** horizon
    return sum(n_inputs ** p for p in range(1, horizon + 1))


def _fit_horizon(n_inputs: int, kind: ObservabilityType, horizon: int, budget: int) -> int:
    """Largest length <= horizon whose enumeration stays within budget."""
    # the cost grows with the length: counting up takes ~log_M(budget) steps
    if _enumeration_cost(n_inputs, kind, 1) > budget:
        raise ValueError(
            f"budget {budget} cannot cover even a single-letter search"
            f" over {n_inputs} inputs"
        )
    fitted = 1
    while fitted < horizon and _enumeration_cost(n_inputs, kind, fitted + 1) <= budget:
        fitted += 1
    return fitted


def _words(n_inputs: int, length: int):
    return itertools.product(range(1, n_inputs + 1), repeat=length)


def _words_up_to(n_inputs: int, horizon: int):
    for length in range(1, horizon + 1):
        yield from _words(n_inputs, length)


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
    true when the searched length is known conclusive: at least N - k for
    N states in k output classes (Moore's bound) for TYPE_II, the
    confusable-pair count for TYPE_IV, and sufficient_horizon (from the
    caller, typically exact_oracle_horizon) for types I and III.
    """
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
                for word in _words_up_to(network.n_inputs, searched)
            )
            for a, b in pairs
        )
    elif kind is ObservabilityType.TYPE_III:
        observable = any(
            all(distinguishes(network, a, b, word) for a, b in pairs)
            for word in _words_up_to(network.n_inputs, searched)
        )
    elif kind is ObservabilityType.TYPE_IV:
        observable = all(
            distinguishes(network, a, b, word)
            for word in _words(network.n_inputs, searched)
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
        for word in _words_up_to(network.n_inputs, horizon)
    )


def verify_witness(network: Bcn, kind: ObservabilityType, witness) -> bool:
    """Check a decider-produced witness by direct simulation.

    Payload shapes: TYPE_I (state, word); TYPE_II ((a, b), word); TYPE_III
    word; TYPE_IV ((a, b), prefix, cycle).  The lasso for TYPE_IV passes
    when the pair stays output-identical along prefix plus cycle and the
    cycle brings it back to the unordered pair it reached after the prefix:
    the dynamics being deterministic, the pair then repeats the cycle
    forever without separating.  Malformed payloads raise ValueError.
    """
    if kind is ObservabilityType.TYPE_I:
        state, word = _as_pairload(witness, "TYPE_I witness is (state, word)")
        word = _as_word(word)
        if not isinstance(state, int) or isinstance(state, bool):
            raise ValueError("TYPE_I witness state must be an int")
        return all(distinguishes(network, state, rival, word) for rival in _rivals(network, state))
    if kind is ObservabilityType.TYPE_II:
        pair, word = _as_pairload(witness, "TYPE_II witness is ((a, b), word)")
        a, b = _as_state_pair(pair)
        return distinguishes(network, a, b, _as_word(word))
    if kind is ObservabilityType.TYPE_III:
        word = _as_word(witness)
        return all(
            distinguishes(network, a, b, word) for a, b in confusable_pairs(network)
        )
    if kind is ObservabilityType.TYPE_IV:
        try:
            pair, prefix, cycle = witness
        except (TypeError, ValueError):
            raise ValueError("TYPE_IV witness is ((a, b), prefix, cycle)") from None
        a, b = _as_state_pair(pair)
        prefix = tuple(prefix)
        cycle = tuple(cycle)
        if not cycle:
            raise ValueError("TYPE_IV witness cycle must be nonempty")
        if distinguishes(network, a, b, prefix + cycle):
            return False
        start = {_run(network, a, prefix), _run(network, b, prefix)}
        return start == {_run(network, x, cycle) for x in start}
    raise ValueError(f"unknown observability type {kind!r}")


def _run(network: Bcn, state: int, word: Sequence[int]) -> int:
    for control in word:
        state = step(network, state, control)
    return state


def _as_pairload(witness, message: str) -> tuple:
    try:
        first, second = witness
    except (TypeError, ValueError):
        raise ValueError(message) from None
    return first, second


def _as_word(word) -> Word:
    try:
        out = tuple(word)
    except TypeError:
        raise ValueError("witness word must be a sequence of input indices") from None
    if not out:
        raise ValueError("witness word must be nonempty")
    return out


def _as_state_pair(pair) -> tuple[int, int]:
    try:
        a, b = pair
    except (TypeError, ValueError):
        raise ValueError("witness pair must hold two states") from None
    if a == b:
        raise ValueError("witness pair must hold two distinct states")
    return a, b
