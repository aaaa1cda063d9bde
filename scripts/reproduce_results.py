#!/usr/bin/env python3
"""Rebuild every fixture result: print each fixture's dimensions and pair-graph
shape, then run `bcnobs decide --witness --oracle-check` on it.  A nonzero exit
of any such run counts as a failure.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bcnobs.bcnio import load_document
from bcnobs.cli import run_cli
from bcnobs.pairgraph import build

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_fixture(path):
    network, name = load_document(path)
    graph = build(network)
    edges = {(p, q) for step in graph.succ.tolist() for p, q in enumerate(step) if q >= 0}
    print(f"== {name or path.stem} "
          f"(N={network.n_states}, M={network.n_inputs}, Q={network.n_outputs})")
    print(f"   pair graph: {graph.n_pairs} vertices ({len(graph.nondiagonal)}"
          f" confusable pairs), {len(edges)} weighted edges")
    return run_cli(["decide", str(path), "--witness", "--oracle-check"]) != 0


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
