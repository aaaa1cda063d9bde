"""Boolean control network in algebraic form, with pure simulation steps."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

COLUMN_ORDERS = ("state-first", "input-first")


def _check_map(label: str, entries: tuple, count: int, limit: int) -> None:
    if len(entries) != count:
        raise ValueError(f"{label} has {len(entries)} columns, expected {count}")
    # the bulk check runs in C; only a map it fails is walked, to name the column
    if set(map(type, entries)) != {int} or not 1 <= min(entries) <= max(entries) <= limit:
        for j, r in enumerate(entries):
            if not isinstance(r, int) or isinstance(r, bool) or not 1 <= r <= limit:
                raise ValueError(f"{label} column {j + 1} is {r!r}, not an int in 1..{limit}")


@dataclass(frozen=True)
class Bcn:
    """x(t+1) = L u(t) x(t) and y(t) = H x(t), everything in delta columns.

    True is column 1 of the 2x2 identity, false column 2; a tuple of values
    packs first variable most significant, so the all-true tuple is index 1.
    States range over 1..n_states, inputs over 1..n_inputs, outputs over
    1..n_outputs; the three sizes are powers of two.  Each map lists the
    1-based row of each column's single 1.  transition is input-first: the
    successor of state x under input u is transition[(u-1)*n_states + x-1];
    output_map[x-1] is the output of state x.
    """

    n_states: int
    n_inputs: int
    n_outputs: int
    transition: tuple[int, ...]
    output_map: tuple[int, ...]

    def __post_init__(self) -> None:
        for label in ("n_states", "n_inputs", "n_outputs"):
            value = getattr(self, label)
            if value < 1 or value & (value - 1):
                raise ValueError(f"{label} must be a power of two, got {value}")
        object.__setattr__(self, "transition", tuple(self.transition))
        object.__setattr__(self, "output_map", tuple(self.output_map))
        _check_map("transition map", self.transition, self.n_states * self.n_inputs, self.n_states)
        _check_map("output map", self.output_map, self.n_states, self.n_outputs)


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
