"""Command-line front end.

Exit codes: 0 clean, 1 a requested check found a violation (an oracle
result that refutes a verdict, a failed witness replay), 2 unusable input
(a DocumentError: bad document, option or environment value, unwritable
output path), 3 internal fault (any other exception; its traceback goes to
stderr).  The oracle searches to its conclusive depth unless its word
budget, which BCNOBS_ENUM_BUDGET overrides, cuts the search short.
"""

from __future__ import annotations

import argparse
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
    load_document,
    document_to_bcn,
    report_text,
)
from .observability import (
    DECIDERS,
    ObservabilityType,
    Verdict,
    exact_oracle_horizon,
    type_automata,
)
from .oracle import DEFAULT_BUDGET, OracleVerdict, brute_force, verify_witness
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
    return parser


def _selected_types(choice: str) -> list[ObservabilityType]:
    if choice == "all":
        return list(ObservabilityType)
    return [ObservabilityType(choice)]


def budget_from_env(n_inputs: int, default: int = DEFAULT_BUDGET) -> int:
    """The oracle's word budget: BCNOBS_ENUM_BUDGET, checked, else default."""
    raw = os.environ.get("BCNOBS_ENUM_BUDGET")
    if raw is None:
        return default
    try:
        budget = int(raw)
    except ValueError:
        raise DocumentError(f"BCNOBS_ENUM_BUDGET must be an integer, got {raw!r}") from None
    if budget < n_inputs:  # at least 2, so the budget is positive
        raise DocumentError(
            f"BCNOBS_ENUM_BUDGET {budget} cannot cover a single-letter search"
            f" over {n_inputs} inputs"
        )
    return budget


def cross_check(
    network: Bcn, graph, verdicts: dict[ObservabilityType, Verdict], budget: int
) -> dict[ObservabilityType, tuple[OracleVerdict, str]]:
    """Brute force at the conclusive horizon against each verdict, with its
    marker: agrees, DISAGREES (the oracle refutes the verdict) or
    inconclusive (the answers differ, but a budget-cut search refutes
    nothing)."""
    checked = {}
    for kind, verdict in verdicts.items():
        horizon = exact_oracle_horizon(network, kind, graph)
        result = brute_force(network, kind, horizon, budget=budget, sufficient_horizon=horizon)
        if result.observable == verdict.observable:
            marker = "agrees"
        elif result.refutes(verdict.observable):
            marker = "DISAGREES"
        else:
            marker = "inconclusive"
        checked[kind] = (result, marker)
    return checked


def oracle_line(kind: ObservabilityType, result: OracleVerdict, marker: str) -> str:
    note = "" if result.exact else " (horizon not conclusive)"
    flag = "observable" if result.observable else "not observable"
    return f"oracle {kind.value}: horizon {result.horizon}, {flag}, {marker}{note}"


def _word_text(word) -> str:
    return "[" + ",".join(map(str, word)) + "]"


def _verdict_lines(verdict: Verdict, show_witness: bool) -> list[str]:
    flag = "observable" if verdict.observable else "not observable"
    detail = ""
    if not verdict.observable:
        if verdict.kind is ObservabilityType.TYPE_I:
            detail = f" (offending state {verdict.offending_state})"
        elif verdict.kind is ObservabilityType.TYPE_II:
            a, b = verdict.offending_pair
            detail = f" (offending pair ({a},{b}))"
        elif verdict.kind is ObservabilityType.TYPE_IV:
            a, b = verdict.offending_pair
            lasso = verdict.lasso
            detail = (
                f" (pair ({a},{b}) rides prefix {_word_text(lasso.prefix)}"
                f" then cycle {_word_text(lasso.cycle)} forever)"
            )
    lines = [f"type {verdict.kind.value}: {flag}{detail}"]
    if show_witness and verdict.observable:
        if verdict.kind is ObservabilityType.TYPE_I:
            words = {w: _word_text(w) for w in set(verdict.determining.values())}
            lines += [f"  state {x}: {words[w]}" for x, w in sorted(verdict.determining.items())]
            lines += [f"  state {x}: any single input" for x in sorted(verdict.any_word_states)]
        elif verdict.kind is ObservabilityType.TYPE_II:
            words = verdict.distinguishing
            lines += [f"  pair ({a}): {w}" for a, w in zip(words.labels, words.spell(_word_text))]
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


def _claim(path: Optional[str], directory: bool = False) -> None:
    """Create any output file or directory first: a bad path fails fast."""
    with _writing(path):
        if path and directory:
            Path(path).mkdir(parents=True, exist_ok=True)
        elif path:
            open(path, "a").close()


def _load(path: str) -> tuple[Bcn, Optional[str]]:
    document = load_document(path)
    try:
        return document_to_bcn(document), document.name
    except ValueError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def _cmd_decide(args) -> int:
    network, name = _load(args.file)
    budget = budget_from_env(network.n_inputs) if args.oracle_check else None
    _claim(args.json)
    graph = build(network)
    kinds = _selected_types(args.type)
    verdicts: dict[ObservabilityType, Verdict] = {}
    timings: dict[ObservabilityType, float] = {}
    for kind in kinds:
        started = time.perf_counter()
        verdicts[kind] = DECIDERS[kind](network, graph)
        timings[kind] = (time.perf_counter() - started) * 1000.0
    lines = [line for kind in kinds for line in _verdict_lines(verdicts[kind], args.witness)]
    sys.stdout.write("\n".join(lines + [""]))

    exit_code = EXIT_OK
    oracle_results = None
    witnesses_verified = None
    if args.oracle_check:
        oracle_results = {}
        for kind, (result, marker) in cross_check(network, graph, verdicts, budget).items():
            oracle_results[kind] = result
            if marker == "DISAGREES":
                exit_code = EXIT_VIOLATION
            print(oracle_line(kind, result, marker))
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
            Path(args.json).write_text(report_text(report), encoding="utf-8")
    return exit_code


def _cmd_graph(args) -> int:
    network, _ = _load(args.file)
    _claim(args.dot)
    text = emit_dot(build(network))
    if args.dot:
        with _writing(args.dot):
            Path(args.dot).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_automata(args) -> int:
    network, _ = _load(args.file)
    _claim(args.dot_dir, directory=True)
    graph = build(network)
    rendered: list[tuple[str, str]] = []
    texts: dict[ObservabilityType, list[tuple[str, str]]] = {}
    for kind in _selected_types(args.type):
        # types II and IV inspect the same per-pair machines: build and render them once
        shared = ObservabilityType.TYPE_II if kind is ObservabilityType.TYPE_IV else kind
        if shared not in texts:
            texts[shared] = [
                (label, emit_automaton_dot(graph, dfa))
                for label, dfa in type_automata(graph, shared)
            ]
        rendered.extend((f"automaton_{kind.value}_{label}", text) for label, text in texts[shared])
    if args.dot_dir:
        directory = Path(args.dot_dir)
        with _writing(directory):
            for label, text in rendered:
                (directory / f"{label}.dot").write_text(text, encoding="utf-8")
        for label, _ in rendered:
            print(directory / f"{label}.dot")
    else:
        for label, text in rendered:
            print(f"// {label}")
            print(text, end="")
    return EXIT_OK


_COMMANDS = {
    "decide": _cmd_decide,
    "graph": _cmd_graph,
    "automata": _cmd_automata,
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
