"""Seeded network documents for the benchmark.

The generator writes documents in the program's own JSON format, so the
program only ever receives generated inputs through its parser.  It does not
call `bcnobs.bcnio.gen_random_bcn`, whose limits (at most 8 variables and
4,096 transition columns) would stop the large workloads.

Two families:

- ``random``: every successor column and every output column uniform, from a
  generator keyed by (family, n, m, q, seed).
- ``shift``: a shift register over n bits with one input bit.  The state
  shifts left, the old top bit XOR the input becomes the new low bit, and the
  output is the top q bits.  Every state bit reaches the output before it
  can leave the register, so every infinite input sequence separates every
  confusable pair: the network is observable in all four senses by
  construction.  The seed permutes the state labels.

A network is held as its input-first successor list (the successor of
1-based state x under 1-based input u sits at index (u-1)*N + x-1) and its
output list; `render` writes it in one of the three document bodies.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

BODIES = ("state-first", "input-first", "truth-table")


class Network(NamedTuple):
    family: str
    n: int
    m: int
    q: int
    seed: int
    successors: tuple[int, ...]
    outputs: tuple[int, ...]

    @property
    def key(self) -> str:
        return f"{self.family}-{self.n}-{self.m}-{self.q}-{self.seed}"


def _rng(family: str, n: int, m: int, q: int, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{family}:{n}:{m}:{q}:{seed}")


def random_network(n: int, m: int, q: int, seed: int) -> Network:
    rng = _rng("random", n, m, q, seed)
    n_states, n_inputs, n_outputs = 2 ** n, 2 ** m, 2 ** q
    successors = tuple(rng.randint(1, n_states) for _ in range(n_states * n_inputs))
    outputs = tuple(rng.randint(1, n_outputs) for _ in range(n_states))
    return Network("random", n, m, q, seed, successors, outputs)


def shift_network(n: int, q: int, seed: int) -> Network:
    if not 1 <= q <= n:
        raise ValueError("shift register needs 1 <= q <= n")
    rng = _rng("shift", n, 1, q, seed)
    n_states = 2 ** n
    label = list(range(n_states))
    rng.shuffle(label)  # register value -> 0-based state label
    value = [0] * n_states
    for v, x in enumerate(label):
        value[x] = v
    mask = n_states - 1
    successors = []
    for u in (0, 1):
        for x in range(n_states):
            v = value[x]
            nxt = ((v << 1) & mask) | ((v >> (n - 1)) ^ u)
            successors.append(label[nxt] + 1)
    outputs = tuple((value[x] >> (n - q)) + 1 for x in range(n_states))
    return Network("shift", n, 1, q, seed, tuple(successors), outputs)


def make_network(family: str, n: int, m: int, q: int, seed: int) -> Network:
    if family == "random":
        return random_network(n, m, q, seed)
    if family == "shift":
        if m != 1:
            raise ValueError("shift registers have one input variable")
        return shift_network(n, q, seed)
    raise ValueError(f"unknown family {family!r}")


def _bits(index0: int, width: int) -> str:
    # The delta encoding puts the all-true tuple first: index 1 is '11..1'.
    return "".join("0" if (index0 >> pos) & 1 else "1" for pos in range(width - 1, -1, -1))


def render(net: Network, body: str) -> str:
    """The network as document text in one of BODIES."""
    n_states, n_inputs = 2 ** net.n, 2 ** net.m
    doc: dict = {"name": net.key, "n": net.n, "m": net.m, "q": net.q}
    if body == "input-first":
        doc.update(ordering=body, L=list(net.successors), H=list(net.outputs))
    elif body == "state-first":
        columns = [
            net.successors[u * n_states + x] for x in range(n_states) for u in range(n_inputs)
        ]
        doc.update(ordering=body, L=columns, H=list(net.outputs))
    elif body == "truth-table":
        width = net.m + net.n
        doc["update"] = {
            _bits(j, width): _bits(succ - 1, net.n) for j, succ in enumerate(net.successors)
        }
        doc["output"] = {_bits(x, net.n): _bits(y - 1, net.q) for x, y in enumerate(net.outputs)}
    else:
        raise ValueError(f"unknown document body {body!r}")
    return json.dumps(doc, separators=(",", ":")) + "\n"
