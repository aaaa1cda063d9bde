#!/usr/bin/env python3
"""Sweep seeded random networks for implication violations.

Prints one line per network with the four verdicts (y observable, n not),
tallies the observability profiles across the sweep and cross-checks a
slice of it against the exhaustive oracle, as `bcnobs decide --oracle-check`
does.  The oracle's word budget is 2**14 unless BCNOBS_ENUM_BUDGET sets it.
Any implication violation or DISAGREES makes the exit code 1; a bad
argument or budget makes it 2.
"""

import argparse
import collections
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bcnobs.bcnio import DocumentError, gen_random_bcn
from bcnobs.cli import budget_from_env, cross_check, oracle_line
from bcnobs.observability import ObservabilityType, implication_matrix
from bcnobs.pairgraph import build


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=500, help="number of networks")
    parser.add_argument("--start-seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=2, help="state variables")
    parser.add_argument("--m", type=int, default=1, help="input variables")
    parser.add_argument("--q", type=int, default=1, help="output variables")
    parser.add_argument(
        "--oracle-every",
        type=int,
        default=10,
        metavar="K",
        help="run the exhaustive cross-check on every K-th network (0 = never)",
    )
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.oracle_every < 0:
        parser.error("--oracle-every must be 0 or more")
    try:
        gen_random_bcn(args.start_seed, args.n, args.m, args.q)
    except ValueError as exc:
        parser.error(f"--n/--m/--q: {exc}")
    try:
        budget = budget_from_env(2 ** args.m, default=2 ** 14)
    except DocumentError as exc:
        parser.error(str(exc))

    profiles = collections.Counter()
    markers = collections.Counter()
    violations = checked = not_conclusive = 0
    started = time.perf_counter()
    for index in range(args.seeds):
        seed = args.start_seed + index
        network = gen_random_bcn(seed, args.n, args.m, args.q)
        graph = build(network)
        report = implication_matrix(network, graph)
        flags = ["y" if report.verdicts[kind].observable else "n" for kind in ObservabilityType]
        profiles["".join(flags).replace("n", "-")] += 1
        line = f"seed {seed}: " + " ".join(
            f"{kind.value}={flag}" for kind, flag in zip(ObservabilityType, flags)
        )
        if not report.consistent:
            violations += 1
            broken = ", ".join(f"{a.value}=>{b.value}" for a, b in report.violations)
            line += f"  IMPLICATION VIOLATION: {broken}"
        print(line)
        if args.oracle_every and index % args.oracle_every == 0:
            checked += 1
            results = cross_check(network, graph, report.verdicts, budget)
            for kind, (result, marker) in results.items():
                markers[marker] += 1
                not_conclusive += not result.exact
                if marker != "agrees":
                    print(f"  {oracle_line(kind, result, marker)}")
    elapsed = time.perf_counter() - started

    print(f"\n{args.seeds} networks (n={args.n}, m={args.m}, q={args.q})"
          f" in {elapsed:.1f} s")
    print("profile  count   (flag order I II III IV; 'y' observable, '-' not)")
    for profile, count in sorted(profiles.items(), key=lambda kv: -kv[1]):
        print(f"{profile:>7}  {count}")
    print(f"implication violations: {violations}")
    print(f"oracle cross-checks: {checked} networks, {markers['agrees']} agrees,"
          f" {markers['DISAGREES']} DISAGREES, {markers['inconclusive']} inconclusive,"
          f" {not_conclusive} not conclusive")
    return 1 if violations or markers["DISAGREES"] else 0


if __name__ == "__main__":
    sys.exit(main())
