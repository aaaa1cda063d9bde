"""Boolean control network in algebraic form, with pure simulation steps."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .stp import COLUMN_ORDERS, LogicalMatrix


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and value & (value - 1) == 0


@dataclass(frozen=True)
class Bcn:
    """x(t+1) = L u(t) x(t) and y(t) = H x(t), everything in delta columns.

    States range over 1..n_states, inputs over 1..n_inputs, outputs over
    1..n_outputs; the three sizes are powers of two.  Transition columns are
    stored input-first: the successor of state x under input u sits in
    column (u-1)*n_states + x.
    """

    n_states: int
    n_inputs: int
    n_outputs: int
    transition: LogicalMatrix
    output_map: LogicalMatrix

    def __post_init__(self) -> None:
        for label, value in (
            ("n_states", self.n_states),
            ("n_inputs", self.n_inputs),
            ("n_outputs", self.n_outputs),
        ):
            if not _is_power_of_two(value):
                raise ValueError(f"{label} must be a power of two, got {value}")
        if self.transition.rows != self.n_states:
            raise ValueError(
                f"transition matrix has {self.transition.rows} rows, expected {self.n_states}"
            )
        if self.transition.cols != self.n_states * self.n_inputs:
            raise ValueError(
                f"transition matrix has {self.transition.cols} columns,"
                f" expected {self.n_states * self.n_inputs}"
            )
        if self.output_map.rows != self.n_outputs:
            raise ValueError(
                f"output map has {self.output_map.rows} rows, expected {self.n_outputs}"
            )
        if self.output_map.cols != self.n_states:
            raise ValueError(
                f"output map has {self.output_map.cols} columns, expected {self.n_states}"
            )


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
    transition = LogicalMatrix(n_states, columns)
    output_map = LogicalMatrix(n_outputs, tuple(output_columns))
    return Bcn(n_states, n_inputs, n_outputs, transition, output_map)


def _check_state(network: Bcn, state: int) -> None:
    if not 1 <= state <= network.n_states:
        raise ValueError(f"state {state} outside 1..{network.n_states}")


def _check_input(network: Bcn, control: int) -> None:
    if not 1 <= control <= network.n_inputs:
        raise ValueError(f"input {control} outside 1..{network.n_inputs}")


def step(network: Bcn, state: int, control: int) -> int:
    """Successor state index after driving one input symbol."""
    _check_state(network, state)
    _check_input(network, control)
    return network.transition.col_index[(control - 1) * network.n_states + state - 1]


def output(network: Bcn, state: int) -> int:
    """Output index emitted at a state."""
    _check_state(network, state)
    return network.output_map.col_index[state - 1]
