#!/usr/bin/env python3
"""Sweep seeded random networks for implication violations.

Tallies the observability profile (which of the four notions hold) across
the sweep and cross-checks a slice of it against the exhaustive oracle.
Any violation or disagreement makes the exit code 1.
"""

import argparse
import collections
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bcnobs.bcnio import gen_random_bcn
from bcnobs.observability import ObservabilityType, exact_oracle_horizon, implication_matrix
from bcnobs.oracle import brute_force


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
    parser.add_argument(
        "--oracle-budget",
        type=int,
        default=2 ** 14,
        help="word-enumeration budget per cross-check; a search cut short by "
        "it counts as a disagreement only when it finds words the decider "
        "missed, and as inconclusive otherwise",
    )
    args = parser.parse_args()

    profiles = collections.Counter()
    violations = 0
    disagreements = 0
    inconclusive = 0
    checked = 0
    started = time.perf_counter()
    for index in range(args.seeds):
        seed = args.start_seed + index
        network = gen_random_bcn(seed, args.n, args.m, args.q)
        report = implication_matrix(network)
        profile = "".join(
            "y" if report.verdicts[kind].observable else "-"
            for kind in ObservabilityType
        )
        profiles[profile] += 1
        if not report.consistent:
            violations += 1
            broken = ", ".join(f"{a.value}=>{b.value}" for a, b in report.violations)
            print(f"seed {seed}: VIOLATION {broken}")
        if args.oracle_every and index % args.oracle_every == 0:
            checked += 1
            for kind in ObservabilityType:
                horizon = exact_oracle_horizon(network, kind)
                result = brute_force(
                    network,
                    kind,
                    horizon,
                    budget=args.oracle_budget,
                    sufficient_horizon=horizon,
                )
                if result.refutes(report.verdicts[kind].observable):
                    disagreements += 1
                    print(f"seed {seed}: type {kind.value} ORACLE DISAGREES")
                elif not (result.exact or result.observable):
                    inconclusive += 1
    elapsed = time.perf_counter() - started

    print(f"\n{args.seeds} networks (n={args.n}, m={args.m}, q={args.q})"
          f" in {elapsed:.1f} s")
    print("profile  count   (flag order I II III IV; 'y' observable, '-' not)")
    for profile, count in sorted(profiles.items(), key=lambda kv: -kv[1]):
        print(f"{profile:>7}  {count}")
    print(f"implication violations: {violations}")
    print(f"oracle cross-checks: {checked} networks, {disagreements} disagreements,"
          f" {inconclusive} inconclusive (budget)")
    return 1 if violations or disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
