#!/usr/bin/env python3
"""Rebuild every fixture result: pair graphs, verdicts, witnesses, oracle.

Exits nonzero if any decider disagrees with the exhaustive oracle or any
witness fails replay.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bcnobs import (
    DECIDERS,
    ObservabilityType,
    brute_force,
    build_pair_graph,
    exact_oracle_horizon,
    load_document,
    document_to_bcn,
    verify_witness,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def word_text(word):
    return "[" + ",".join(str(u) for u in word) + "]"


def run_fixture(path):
    document = load_document(path)
    network = document_to_bcn(document)
    graph = build_pair_graph(network)
    print(f"== {document.name or path.stem} "
          f"(N={network.n_states}, M={network.n_inputs}, Q={network.n_outputs})")
    nondiag = sum(1 for v in graph.vertices if not v.diagonal)
    print(f"   pair graph: {len(graph.vertices)} vertices"
          f" ({nondiag} confusable pairs), {len(graph.edges())} weighted edges")

    failures = 0
    for kind in ObservabilityType:
        started = time.perf_counter()
        verdict = DECIDERS[kind](network, graph)
        decided_ms = (time.perf_counter() - started) * 1000.0
        horizon = exact_oracle_horizon(network, kind, graph)
        oracle = brute_force(network, kind, horizon, sufficient_horizon=horizon)
        agrees = oracle.observable == verdict.observable
        failures += 0 if agrees else 1
        flag = "yes" if verdict.observable else "no"
        print(f"   type {kind.value:>3}: observable={flag:<3}"
              f" decided in {decided_ms:.2f} ms,"
              f" oracle at horizon {oracle.horizon} {'agrees' if agrees else 'DISAGREES'}")
        for payload in verdict.witness_payloads():
            ok = verify_witness(network, kind, payload)
            failures += 0 if ok else 1
            if kind is ObservabilityType.TYPE_IV:
                pair, prefix, cycle = payload
                detail = (f"pair {pair} prefix {word_text(prefix)}"
                          f" cycle {word_text(cycle)}")
            elif kind is ObservabilityType.TYPE_III:
                detail = f"word {word_text(payload)}"
            else:
                subject, word = payload
                detail = f"{subject}: {word_text(word)}"
            print(f"        witness {detail} {'ok' if ok else 'FAILED'}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixtures-dir", type=Path, default=FIXTURES)
    args = parser.parse_args()
    files = sorted(args.fixtures_dir.glob("*.json"))
    if not files:
        print(f"no fixture documents under {args.fixtures_dir}", file=sys.stderr)
        return 2
    failures = sum(run_fixture(path) for path in files)
    print(f"done: {len(files)} networks, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
