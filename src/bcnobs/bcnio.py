"""Network documents, DOT rendering, verdict reports, random generation."""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional

from .automata import Dfa
from .bcn import Bcn, bcn_from_columns
from .observability import ObservabilityType, Verdict
from .oracle import OracleVerdict
from .pairgraph import Pair, PairGraph
from .stp import COLUMN_ORDERS, LogicalMatrix, from_truth_table


class DocumentError(ValueError):
    """Raised for unreadable or inconsistent network documents."""


_TOP_LEVEL_FIELDS = {"name", "n", "m", "q", "ordering", "L", "H", "update", "output"}


@dataclass(frozen=True)
class BcnDocument:
    """On-disk description of a network.

    Either the matrix body (ordering, transition_columns, output_columns)
    or the truth-table body (update_table, output_table) is present, never
    both.  Table keys are 0/1 strings, '1' meaning true; update keys list
    the m input bits then the n state bits, update values the n successor
    bits; output keys list the n state bits, values the q output bits.
    """

    n: int
    m: int
    q: int
    name: Optional[str] = None
    ordering: Optional[str] = None
    transition_columns: Optional[tuple[int, ...]] = None
    output_columns: Optional[tuple[int, ...]] = None
    update_table: Optional[Mapping[str, str]] = None
    output_table: Optional[Mapping[str, str]] = None


def _require_positive_int(raw: dict, field: str) -> int:
    value = raw.get(field)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DocumentError(f"field {field!r} must be a positive integer")
    return value


def _column_list(raw: dict, field: str, expected: int, limit: int) -> tuple[int, ...]:
    value = raw.get(field)
    if not isinstance(value, list):
        raise DocumentError(f"field {field!r} must be a list of column indices")
    if len(value) != expected:
        raise DocumentError(f"field {field!r} has {len(value)} entries, expected {expected}")
    for entry in value:
        if not isinstance(entry, int) or isinstance(entry, bool) or not 1 <= entry <= limit:
            raise DocumentError(f"field {field!r} entry {entry!r} outside 1..{limit}")
    return tuple(value)


def _bit_table(raw: dict, field: str, key_width: int, value_width: int) -> dict[str, str]:
    value = raw.get(field)
    if not isinstance(value, dict):
        raise DocumentError(f"field {field!r} must be an object of bit strings")
    table: dict[str, str] = {}
    for key, result in value.items():
        for text, width, what in ((key, key_width, "key"), (result, value_width, "value")):
            if not isinstance(text, str) or len(text) != width or set(text) - {"0", "1"}:
                raise DocumentError(
                    f"field {field!r} {what} {text!r} must be a {width}-bit 0/1 string"
                )
        table[key] = result
    if len(table) != 2 ** key_width:
        raise DocumentError(
            f"field {field!r} has {len(table)} rows, expected {2 ** key_width}"
        )
    return table


def parse_document(text: str) -> BcnDocument:
    """Parse and validate the JSON document format."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("JSON nested too deeply to parse") from None
    if not isinstance(raw, dict):
        raise DocumentError("document top level must be an object")
    unknown = set(raw) - _TOP_LEVEL_FIELDS
    if unknown:
        raise DocumentError(f"unknown fields: {sorted(unknown)}")
    n = _require_positive_int(raw, "n")
    m = _require_positive_int(raw, "m")
    q = _require_positive_int(raw, "q")
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("field 'name' must be a string")
    has_matrix = "L" in raw or "H" in raw
    has_table = "update" in raw or "output" in raw
    if has_matrix and has_table:
        raise DocumentError("give either L/H columns or update/output tables, not both")
    if has_matrix:
        if "L" not in raw or "H" not in raw:
            raise DocumentError("matrix form needs both 'L' and 'H'")
        ordering = raw.get("ordering")
        if ordering not in COLUMN_ORDERS:
            raise DocumentError(
                "field 'ordering' must be 'state-first' or 'input-first';"
                " there is no default"
            )
        n_states, n_inputs, n_outputs = 2 ** n, 2 ** m, 2 ** q
        return BcnDocument(
            n=n,
            m=m,
            q=q,
            name=name,
            ordering=ordering,
            transition_columns=_column_list(raw, "L", n_states * n_inputs, n_states),
            output_columns=_column_list(raw, "H", n_states, n_outputs),
        )
    if has_table:
        if "update" not in raw or "output" not in raw:
            raise DocumentError("truth-table form needs both 'update' and 'output'")
        if "ordering" in raw:
            raise DocumentError("field 'ordering' applies only to the L/H matrix form")
        return BcnDocument(
            n=n,
            m=m,
            q=q,
            name=name,
            update_table=_bit_table(raw, "update", m + n, n),
            output_table=_bit_table(raw, "output", n, q),
        )
    raise DocumentError("missing network body: need L/H or update/output")


def _bits_to_bools(text: str) -> tuple[bool, ...]:
    return tuple(ch == "1" for ch in text)


def document_to_bcn(document: BcnDocument) -> Bcn:
    """Compile a document into the internal algebraic form."""
    if document.transition_columns is not None:
        return bcn_from_columns(
            document.n,
            document.m,
            document.q,
            document.transition_columns,
            document.output_columns,
            document.ordering,
        )
    # Compiling with the input bits ahead of the state bits lands the
    # transition columns input-first directly.
    update = {
        _bits_to_bools(key): _bits_to_bools(value)
        for key, value in document.update_table.items()
    }
    out_table = {
        _bits_to_bools(key): _bits_to_bools(value)
        for key, value in document.output_table.items()
    }
    transition = from_truth_table(document.m + document.n, document.n, update)
    output_map = from_truth_table(document.n, document.q, out_table)
    return Bcn(2 ** document.n, 2 ** document.m, 2 ** document.q, transition, output_map)


def parse_bcn(text: str) -> Bcn:
    """Parse a document and compile it in one go."""
    return document_to_bcn(parse_document(text))


def load_document(path) -> BcnDocument:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_document(text)


def _grouped_edge_lines(rows: list[tuple[str, int, str]]) -> list[str]:
    """Collapse (source, letter, target) triples into labeled edge lines."""
    grouped: dict[tuple[str, str], list[int]] = {}
    for source, letter, target in rows:
        grouped.setdefault((source, target), []).append(letter)
    lines = []
    for (source, target), letters in sorted(grouped.items()):
        label = ",".join(str(u) for u in sorted(letters))
        lines.append(f'  "{source}" -> "{target}" [label="{label}"];')
    return lines


def _label(pair: Pair) -> str:
    """'ij' for the pair (i, j), written 'i-j' once j has two digits."""
    lo, hi = pair
    return f"{lo}-{hi}" if hi > 9 else f"{lo}{hi}"


def emit_dot(graph: PairGraph) -> str:
    """Graphviz source for a pair graph.

    Vertices are labeled 'ij' for the pair (i, j).  Everything is emitted
    sorted, so equal graphs give byte-identical output.
    """
    lines = ["digraph pair_graph {", "  rankdir=LR;", "  node [shape=circle];"]
    labels = list(map(_label, graph.pairs))
    lines.extend(f'  "{label}";' for label in labels)
    rows = [
        (labels[p], letter, labels[target])
        for letter, step in enumerate(graph.rows, 1)
        for p, target in enumerate(step)
        if target >= 0
    ]
    lines.extend(_grouped_edge_lines(rows))
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_automaton_dot(graph: PairGraph, dfa: Dfa) -> str:
    """Graphviz source for a machine over the graph's pair ids.

    A state is labeled by its pairs' 'ij' labels joined with commas, and
    everything is emitted sorted, as for emit_dot.
    """
    pairs = graph.pairs
    name = {state: ",".join(_label(pairs[p]) for p in state) for state in dfa.states}
    lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=none, label=""];']
    for state in sorted(dfa.states):  # every state accepts
        lines.append(f'  "{name[state]}" [shape=doublecircle];')
    lines.append(f'  __start -> "{name[dfa.initial]}";')
    rows = [
        (name[state], letter, name[target])
        for state in sorted(dfa.states)
        for letter, target in sorted(dfa.transitions[state].items())
    ]
    lines.extend(_grouped_edge_lines(rows))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _word_json(word) -> Optional[list]:
    return None if word is None else list(word)


def _verdict_json(verdict: Verdict) -> dict:
    body: dict = {"observable": verdict.observable}
    kind = verdict.kind
    if kind is ObservabilityType.TYPE_I:
        body["witnesses"] = (
            {str(state): list(word) for state, word in sorted(verdict.determining.items())}
            if verdict.observable
            else None
        )
        body["any_word_states"] = sorted(verdict.any_word_states)
        body["offending_state"] = verdict.offending_state
    elif kind is ObservabilityType.TYPE_II:
        body["witnesses"] = (
            {f"{a},{b}": list(word) for (a, b), word in sorted(verdict.distinguishing.items())}
            if verdict.observable
            else None
        )
        body["offending_pair"] = (
            list(verdict.offending_pair) if verdict.offending_pair else None
        )
    elif kind is ObservabilityType.TYPE_III:
        body["witness"] = _word_json(verdict.universal_word)
    else:
        body["offending_pair"] = (
            list(verdict.offending_pair) if verdict.offending_pair else None
        )
        body["lasso"] = (
            {"prefix": list(verdict.lasso.prefix), "cycle": list(verdict.lasso.cycle)}
            if verdict.lasso
            else None
        )
    body["automata"] = [
        {"label": stat.label, "states": stat.n_states, "complete": stat.complete}
        for stat in verdict.automaton_stats
    ]
    return body


def build_report(
    network: Bcn,
    verdicts: Mapping[ObservabilityType, Verdict],
    name: Optional[str] = None,
    timings_ms: Optional[Mapping[ObservabilityType, float]] = None,
    oracle_results: Optional[Mapping[ObservabilityType, OracleVerdict]] = None,
    witnesses_verified: Optional[bool] = None,
) -> dict:
    """JSON-ready verdict report; the schema is documented in the README."""
    report: dict = {
        "name": name,
        "dimensions": {
            "states": network.n_states,
            "inputs": network.n_inputs,
            "outputs": network.n_outputs,
        },
        "confusable_pairs": sum(
            k * (k - 1) // 2 for k in Counter(network.output_map.col_index).values()
        ),
        "verdicts": {
            kind.value: _verdict_json(verdict) for kind, verdict in verdicts.items()
        },
    }
    if timings_ms is not None:
        report["timings_ms"] = {
            kind.value: round(value, 3) for kind, value in timings_ms.items()
        }
    if oracle_results is not None:
        report["oracle"] = {
            kind.value: {
                "horizon": result.horizon,
                "observable": result.observable,
                "exact": result.exact,
                "budget_limited": result.budget_limited,
                "agrees": result.observable == verdicts[kind].observable,
            }
            for kind, result in oracle_results.items()
        }
    if witnesses_verified is not None:
        report["witnesses_verified"] = witnesses_verified
    return report


MAX_VARS = 8
MAX_TRANSITION_COLUMNS = 4096


def gen_random_bcn(seed: int, n: int, m: int, q: int) -> Bcn:
    """Uniformly random network over the given variable counts.

    Reproducible from the seed.  Bounds keep the exhaustive tooling honest:
    each count in 1..MAX_VARS and at most MAX_TRANSITION_COLUMNS transition
    columns overall.
    """
    for label, value in (("n", n), ("m", m), ("q", q)):
        if not isinstance(value, int) or not 1 <= value <= MAX_VARS:
            raise ValueError(f"{label} must be an int in 1..{MAX_VARS}")
    n_states, n_inputs, n_outputs = 2 ** n, 2 ** m, 2 ** q
    if n_states * n_inputs > MAX_TRANSITION_COLUMNS:
        raise ValueError("n + m too large for the exhaustive tooling")
    rng = random.Random(seed)
    transition = LogicalMatrix(
        n_states, tuple(rng.randint(1, n_states) for _ in range(n_states * n_inputs))
    )
    output_map = LogicalMatrix(
        n_outputs, tuple(rng.randint(1, n_outputs) for _ in range(n_states))
    )
    return Bcn(n_states, n_inputs, n_outputs, transition, output_map)
