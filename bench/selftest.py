#!/usr/bin/env python3
"""Self-test of the benchmark's document generator.

Checks that the same seed gives byte-identical documents, that the three
document bodies compile to the same network, and that small shift registers
decide observable for all four types.  run.py runs it before measuring;
run it alone with `python3 bench/selftest.py` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import gen

SHIFT_SIZES = ((3, 1), (4, 2), (5, 2), (6, 3))


def problems() -> list[str]:
    from bcnobs.bcnio import parse_bcn
    from bcnobs.observability import implication_matrix

    found = []
    for family, (n, m, q) in (("random", (3, 2, 1)), ("shift", (4, 1, 2))):
        for body in gen.BODIES:
            first = gen.render(gen.make_network(family, n, m, q, 11), body)
            again = gen.render(gen.make_network(family, n, m, q, 11), body)
            other = gen.render(gen.make_network(family, n, m, q, 12), body)
            if first != again:
                found.append(f"{family} {body}: same seed, different documents")
            if first == other:
                found.append(f"{family} {body}: seeds 11 and 12 give the same document")
        net = gen.make_network(family, n, m, q, 5)
        compiled = {parse_bcn(gen.render(net, body)) for body in gen.BODIES}
        if len(compiled) != 1:
            found.append(f"{family}: the document bodies compile to different networks")
    for n, q in SHIFT_SIZES:
        report = implication_matrix(parse_bcn(gen.render(gen.shift_network(n, q, 3), "input-first")))
        failing = [k.value for k, v in report.verdicts.items() if not v.observable]
        if failing:
            found.append(f"shift register n={n} q={q} not observable for types {failing}")
    return found


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    issues = problems()
    for line in issues:
        print(line)
    print("selftest:", "FAIL" if issues else "ok")
    sys.exit(1 if issues else 0)
