"""Logical matrices, the algebraic form of Boolean maps.

Boolean values are encoded as columns of the 2x2 identity: true is column 1,
false is column 2.  A k-tuple of Booleans packs into one column of the 2^k
identity, first variable most significant, so the all-true tuple gets index 1
and the all-false tuple index 2^k.
"""

from __future__ import annotations

from dataclasses import dataclass

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
