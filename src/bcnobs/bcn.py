"""Boolean control network in algebraic form: the two maps as int tuples in
one column layout (the document layouts and their conversion to it belong
to bcnobs.bcnio), its states grouped by output, Bcn.classes, and the names
of the four notions, which the deciders and the oracle share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType


class ObservabilityType(enum.Enum):
    TYPE_I = "I"
    TYPE_II = "II"
    TYPE_III = "III"
    TYPE_IV = "IV"


def check_map(label: str, entries, count: int, limit: int) -> None:
    """Raise ValueError unless entries holds count ints in 1..limit."""
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
    1-based row of each column's single 1.  transition runs input by input:
    the successor of state x under input u is transition[(u-1)*n_states + x-1];
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
            if type(value) is not int or value < 1 or value & (value - 1):  # a bool is no int
                raise ValueError(f"{label} must be a power of two, got {value!r}")
        object.__setattr__(self, "transition", tuple(self.transition))
        object.__setattr__(self, "output_map", tuple(self.output_map))
        check_map("transition map", self.transition, self.n_states * self.n_inputs, self.n_states)
        check_map("output map", self.output_map, self.n_states, self.n_outputs)

    def __reduce__(self):  # the cached classes view cannot be pickled: send the five fields
        return Bcn, (self.n_states, self.n_inputs, self.n_outputs, self.transition, self.output_map)

    @cached_property
    def classes(self) -> MappingProxyType:
        """Each output value some state has, ascending, to the ascending tuple of its states."""
        members: dict[int, list[int]] = {}
        for state, value in enumerate(self.output_map, 1):
            members.setdefault(value, []).append(state)
        return MappingProxyType({value: tuple(members[value]) for value in sorted(members)})
