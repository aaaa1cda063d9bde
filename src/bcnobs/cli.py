"""Command-line front end.

Exit codes: 0 clean, 1 a requested check found a violation (an oracle
result that refutes a verdict, a failed witness replay, an implication
violation), 2 unusable input (a DocumentError: bad document, option or
environment value, unwritable output path), 3 internal fault (any other
exception; its traceback goes to stderr).  The oracle's enumeration budget
can be overridden with BCNOBS_ENUM_BUDGET.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence

from .bcn import Bcn
from .bcnio import (
    DocumentError,
    build_report,
    emit_automaton_dot,
    emit_dot,
    gen_random_bcn,
    load_document,
    document_to_bcn,
)
from .observability import (
    DECIDERS,
    ObservabilityType,
    Verdict,
    exact_oracle_horizon,
    implication_matrix,
    type_automata,
)
from .oracle import DEFAULT_BUDGET, brute_force, verify_witness
from .pairgraph import build

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_FAULT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcnobs",
        description="Decide observability of Boolean control networks in algebraic form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser("decide", help="run the observability deciders on a network")
    decide.add_argument("file", help="network document (JSON)")
    decide.add_argument(
        "--type",
        default="all",
        choices=["I", "II", "III", "IV", "all"],
        help="which notion to decide (default: all)",
    )
    decide.add_argument(
        "--witness", action="store_true", help="print witness words and lassos"
    )
    decide.add_argument(
        "--oracle-check",
        action="store_true",
        help="cross-check against brute-force enumeration and verify witnesses",
    )
    decide.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="override the oracle search depth; needs --oracle-check"
        " (default: a conclusive depth)",
    )
    decide.add_argument("--json", metavar="OUT", help="write a JSON report here")

    graph = sub.add_parser("graph", help="emit the weighted pair graph as DOT")
    graph.add_argument("file", help="network document (JSON)")
    graph.add_argument("--dot", metavar="OUT", help="write here instead of stdout")

    automata = sub.add_parser(
        "automata", help="emit the automata one decider inspects as DOT"
    )
    automata.add_argument("file", help="network document (JSON)")
    automata.add_argument(
        "--type",
        required=True,
        choices=["I", "II", "III", "IV", "all"],
        help="which decider's machines to build",
    )
    automata.add_argument(
        "--dot-dir", metavar="DIR", help="write one DOT file per machine here"
    )

    rand = sub.add_parser("random", help="generate seeded random networks and check them")
    rand.add_argument("--seed", type=int, required=True)
    rand.add_argument("--count", type=int, required=True)
    rand.add_argument("--n", type=int, default=2, help="state variables (default 2)")
    rand.add_argument("--m", type=int, default=1, help="input variables (default 1)")
    rand.add_argument("--q", type=int, default=1, help="output variables (default 1)")
    rand.add_argument(
        "--check-implications",
        action="store_true",
        help="assert the one-way implications between the four notions",
    )
    return parser


def _selected_types(choice: str) -> list[ObservabilityType]:
    if choice == "all":
        return list(ObservabilityType)
    return [ObservabilityType(choice)]


def _budget_from_env() -> int:
    raw = os.environ.get("BCNOBS_ENUM_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise DocumentError(f"BCNOBS_ENUM_BUDGET must be an integer, got {raw!r}") from None
    if budget < 1:
        raise DocumentError("BCNOBS_ENUM_BUDGET must be positive")
    return budget


def _word_text(word) -> str:
    return "[" + ",".join(str(u) for u in word) + "]"


def _verdict_lines(verdict: Verdict, show_witness: bool) -> list[str]:
    flag = "observable" if verdict.observable else "not observable"
    detail = ""
    if not verdict.observable:
        if verdict.kind is ObservabilityType.TYPE_I:
            detail = f" (offending state {verdict.offending_state})"
        elif verdict.kind is ObservabilityType.TYPE_II:
            pair = verdict.offending_pair
            detail = f" (offending pair ({pair.lo},{pair.hi}))"
        elif verdict.kind is ObservabilityType.TYPE_IV:
            pair = verdict.offending_pair
            lasso = verdict.lasso
            detail = (
                f" (pair ({pair.lo},{pair.hi}) rides prefix {_word_text(lasso.prefix)}"
                f" then cycle {_word_text(lasso.cycle)} forever)"
            )
    lines = [f"type {verdict.kind.value}: {flag}{detail}"]
    if show_witness and verdict.observable:
        if verdict.kind is ObservabilityType.TYPE_I:
            for state, word in sorted(verdict.determining.items()):
                lines.append(f"  state {state}: {_word_text(word)}")
            for state in sorted(verdict.any_word_states):
                lines.append(f"  state {state}: any single input")
        elif verdict.kind is ObservabilityType.TYPE_II:
            for pair, word in sorted(verdict.distinguishing.items()):
                lines.append(f"  pair ({pair.lo},{pair.hi}): {_word_text(word)}")
        elif verdict.kind is ObservabilityType.TYPE_III:
            lines.append(f"  witness word {_word_text(verdict.universal_word)}")
    return lines


@contextmanager
def _writing(path):
    """Report an output path that cannot be written as unusable input."""
    try:
        yield
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc.strerror or exc}") from None


def _load(path: str) -> tuple[Bcn, Optional[str]]:
    document = load_document(path)
    try:
        return document_to_bcn(document), document.name
    except ValueError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def _cmd_decide(args) -> int:
    if args.horizon is not None and not args.oracle_check:
        raise DocumentError("--horizon needs --oracle-check")
    if args.horizon is not None and args.horizon < 1:
        raise DocumentError("--horizon must be at least 1")
    network, name = _load(args.file)
    if args.json:  # an unwritable report path fails before the deciding
        with _writing(args.json):
            open(args.json, "a").close()
    graph = build(network)
    kinds = _selected_types(args.type)
    verdicts: dict[ObservabilityType, Verdict] = {}
    timings: dict[ObservabilityType, float] = {}
    for kind in kinds:
        started = time.perf_counter()
        verdicts[kind] = DECIDERS[kind](network, graph)
        timings[kind] = (time.perf_counter() - started) * 1000.0
    for kind in kinds:
        for line in _verdict_lines(verdicts[kind], args.witness):
            print(line)

    exit_code = EXIT_OK
    oracle_results = None
    witnesses_verified = None
    if args.oracle_check:
        budget = _budget_from_env()
        if budget < network.n_inputs:
            raise DocumentError(
                f"BCNOBS_ENUM_BUDGET {budget} cannot cover a single-letter search"
                f" over {network.n_inputs} inputs"
            )
        oracle_results = {}
        for kind in kinds:
            conclusive = exact_oracle_horizon(network, kind, graph)
            horizon = args.horizon if args.horizon is not None else conclusive
            result = brute_force(
                network, kind, horizon, budget=budget, sufficient_horizon=conclusive
            )
            oracle_results[kind] = result
            if result.observable == verdicts[kind].observable:
                marker = "agrees"
            elif result.refutes(verdicts[kind].observable):
                marker = "DISAGREES"
                exit_code = EXIT_VIOLATION
            else:
                marker = "inconclusive"
            note = "" if result.exact else " (horizon not conclusive)"
            print(
                f"oracle {kind.value}: horizon {result.horizon}, "
                f"{'observable' if result.observable else 'not observable'}, {marker}{note}"
            )
        witnesses_verified = True
        for kind in kinds:
            for payload in verdicts[kind].witness_payloads():
                if not verify_witness(network, kind, payload):
                    witnesses_verified = False
                    exit_code = EXIT_VIOLATION
                    print(f"witness check FAILED for type {kind.value}: {payload}")
        if witnesses_verified:
            print("witnesses verified")

    if args.json:
        report = build_report(
            network,
            verdicts,
            name=name,
            timings_ms=timings,
            oracle_results=oracle_results,
            witnesses_verified=witnesses_verified,
        )
        with _writing(args.json):
            Path(args.json).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return exit_code


def _cmd_graph(args) -> int:
    network, _ = _load(args.file)
    text = emit_dot(build(network))
    if args.dot:
        with _writing(args.dot):
            Path(args.dot).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_automata(args) -> int:
    network, _ = _load(args.file)
    graph = build(network)
    rendered: list[tuple[str, str]] = []
    texts: dict[ObservabilityType, list[tuple[str, str]]] = {}
    for kind in _selected_types(args.type):
        # types II and IV inspect the same per-pair machines: build and render them once
        shared = ObservabilityType.TYPE_II if kind is ObservabilityType.TYPE_IV else kind
        if shared not in texts:
            texts[shared] = [
                (label, emit_automaton_dot(graph, dfa))
                for label, dfa in type_automata(network, shared, graph)
            ]
        rendered.extend((f"automaton_{kind.value}_{label}", text) for label, text in texts[shared])
    if args.dot_dir:
        directory = Path(args.dot_dir)
        with _writing(directory):
            directory.mkdir(parents=True, exist_ok=True)
            for label, text in rendered:
                (directory / f"{label}.dot").write_text(text, encoding="utf-8")
        for label, _ in rendered:
            print(directory / f"{label}.dot")
    else:
        for label, text in rendered:
            print(f"// {label}")
            print(text, end="")
    return EXIT_OK


def _cmd_random(args) -> int:
    if args.count < 1:
        raise DocumentError("--count must be positive")
    violations = 0
    for index in range(args.count):
        try:
            network = gen_random_bcn(args.seed + index, args.n, args.m, args.q)
        except ValueError as exc:
            raise DocumentError(f"--n/--m/--q: {exc}") from None
        report = implication_matrix(network)
        flags = " ".join(
            f"{kind.value}={'y' if report.verdicts[kind].observable else 'n'}"
            for kind in ObservabilityType
        )
        line = f"seed {args.seed + index}: {flags}"
        if args.check_implications and not report.consistent:
            violations += 1
            broken = ", ".join(f"{a.value}=>{b.value}" for a, b in report.violations)
            line += f"  IMPLICATION VIOLATION: {broken}"
        print(line)
    if args.check_implications:
        print(
            f"checked {args.count} networks"
            f" (n={args.n}, m={args.m}, q={args.q}): {violations} violations"
        )
    return EXIT_VIOLATION if violations else EXIT_OK


_COMMANDS = {
    "decide": _cmd_decide,
    "graph": _cmd_graph,
    "automata": _cmd_automata,
    "random": _cmd_random,
}


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        import traceback  # here, not at the top: only a fault pays for it

        traceback.print_exc()
        print("error: internal fault", file=sys.stderr)
        return EXIT_FAULT


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
