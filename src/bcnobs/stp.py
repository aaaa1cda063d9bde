"""Logical matrices, the algebraic form of Boolean maps.

Boolean values are encoded as columns of the 2x2 identity: true is column 1,
false is column 2.  A k-tuple of Booleans packs into one column of the 2^k
identity, first variable most significant, so the all-true tuple gets index 1
and the all-false tuple index 2^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

COLUMN_ORDERS = ("state-first", "input-first")


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
