"""Network documents, DOT rendering, verdict reports, random generation."""

from __future__ import annotations

import json
import random
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .automata import Dfa
from .bcn import Bcn, check_map
from .observability import ObservabilityType, Verdict
from .oracle import OracleVerdict, confusable_count
from .pairgraph import Pair, PairGraph


class DocumentError(ValueError):
    """Raised for unreadable or inconsistent network documents."""


_TOP_LEVEL_FIELDS = {"name", "n", "m", "q", "ordering", "L", "H", "update", "output"}

# The two layouts of L a matrix document may name; a state-first L puts
# the successor of state x under input u in column (x-1)*2^m + u, an
# input-first one in column (u-1)*2^n + x, as Bcn stores it.
COLUMN_ORDERS = ("state-first", "input-first")

# The most state, input or output variables a document may declare.  Any
# document that can list its 2^n columns stays far below it; the cap rejects
# a huge n before 2^n is formed, too large to print or even to hold.
MAX_DOCUMENT_VARS = 32


class BcnDocument(NamedTuple):
    """A document's network, checked and in Bcn's columns whatever body the
    file used, and its name; it unpacks as network, name."""

    network: Bcn
    name: Optional[str] = None


def _require_positive_int(raw: dict, field: str) -> int:
    value = raw.get(field)
    if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= MAX_DOCUMENT_VARS:
        raise DocumentError(
            f"field {field!r} must be a positive integer, at most {MAX_DOCUMENT_VARS}"
        )
    return value


def _column_list(raw: dict, field: str, expected: int, limit: int) -> tuple[int, ...]:
    value = raw.get(field)
    if not isinstance(value, list):
        raise DocumentError(f"field {field!r} must be a list of column indices")
    try:
        check_map(f"field {field!r}", value, expected, limit)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    return tuple(value)


def _table_columns(raw: dict, field: str, key_width: int, value_width: int) -> tuple[int, ...]:
    """Delta columns of a bit table: flipping every bit of a key or value
    gives its 0-based delta index, '1' (true) counting as 0.  JSON object
    keys are unique, so a full count of valid keys fills every column."""
    table = raw.get(field)
    if not isinstance(table, dict):
        raise DocumentError(f"field {field!r} must be an object of bit strings")
    # counted before the columns are formed: a huge width fails here
    if len(table) != 2 ** key_width:
        raise DocumentError(f"field {field!r} has {len(table)} rows, expected {2 ** key_width}")
    key_mask, value_mask = 2 ** key_width - 1, 2 ** value_width - 1
    columns = [0] * (key_mask + 1)
    for key, value in table.items():
        for text, width, what in ((key, key_width, "key"), (value, value_width, "value")):
            if not isinstance(text, str) or len(text) != width or text.strip("01"):
                raise DocumentError(
                    f"field {field!r} {what} {text!r} must be a {width}-bit 0/1 string"
                )
        columns[key_mask ^ int(key, 2)] = (value_mask ^ int(value, 2)) + 1
    return tuple(columns)


def parse_document(text: str) -> BcnDocument:
    """Parse and validate the JSON document format, in any of its bodies."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
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
    n_states, n_inputs, n_outputs = 2 ** n, 2 ** m, 2 ** q
    if has_matrix:
        if "L" not in raw or "H" not in raw:
            raise DocumentError("matrix form needs both 'L' and 'H'")
        ordering = raw.get("ordering")
        if ordering not in COLUMN_ORDERS:
            raise DocumentError(
                "field 'ordering' must be 'state-first' or 'input-first';"
                " there is no default"
            )
        transition = _column_list(raw, "L", n_states * n_inputs, n_states)
        if ordering == "state-first":  # every n_inputs-th column, for each input in turn
            columns = (transition[u::n_inputs] for u in range(n_inputs))
            transition = tuple(chain.from_iterable(columns))
        output_map = _column_list(raw, "H", n_states, n_outputs)
    elif has_table:
        if "update" not in raw or "output" not in raw:
            raise DocumentError("truth-table form needs both 'update' and 'output'")
        if "ordering" in raw:
            raise DocumentError("field 'ordering' applies only to the L/H matrix form")
        # input bits lead the update keys, so its columns land input-first
        transition = _table_columns(raw, "update", m + n, n)
        output_map = _table_columns(raw, "output", n, q)
    else:
        raise DocumentError("missing network body: need L/H or update/output")
    return BcnDocument(Bcn(n_states, n_inputs, n_outputs, transition, output_map), name)


def document_to_bcn(document: BcnDocument) -> Bcn:
    """The document's network, built and checked by parse_document."""
    return document.network


def parse_bcn(text: str) -> Bcn:
    """Parse a document and keep only its network."""
    return parse_document(text).network


def load_document(path) -> BcnDocument:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_document(text)


def _label(pair: Pair) -> str:
    """'ij' for the pair (i, j), written 'i-j' once j has two digits."""
    lo, hi = pair
    return f"{lo}-{hi}" if hi > 9 else f"{lo}{hi}"


def _edge_lines(labels: list[str], sources, letters, targets) -> list[str]:
    """One edge line per (source, target) index pair into the unique labels,
    in label string order; the stable sort keeps the letters' given order."""
    rank = np.empty(len(labels), dtype=np.int64)
    rank[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    keys = rank[sources] * len(labels) + rank[targets]
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1)).tolist()
    spelled, first = list(map(str, letters[order].tolist())), order[starts]
    ends = starts[1:] + [len(order)]
    return [
        f'  "{labels[s]}" -> "{labels[t]}" [label="{",".join(spelled[a:b])}"];'
        for s, t, a, b in zip(sources[first].tolist(), targets[first].tolist(), starts, ends)
    ]


def emit_dot(graph: PairGraph) -> str:
    """Graphviz source for a pair graph.

    Vertices are labeled 'ij' for the pair (i, j).  Everything is emitted
    sorted, so equal graphs give byte-identical output.
    """
    labels = list(map(_label, graph.pairs))
    letters, sources = np.nonzero(graph.succ >= 0)  # letters ascending
    lines = ["digraph pair_graph {", "  rankdir=LR;", "  node [shape=circle];"]
    lines.append('  "' + '";\n  "'.join(labels) + '";')
    lines.extend(_edge_lines(labels, sources, letters + 1, graph.succ[letters, sources]))
    lines.append("}\n")
    return "\n".join(lines)


def emit_automaton_dot(graph: PairGraph, dfa: Dfa) -> str:
    """Graphviz source for a machine over the graph's pair ids.

    A state is labeled by its pairs' 'ij' labels joined with commas, and
    everything is emitted sorted, as for emit_dot.
    """
    states = sorted(dfa.states)  # every state accepts
    ids = {state: i for i, state in enumerate(states)}
    names = [",".join(_label(graph.pairs[p]) for p in state) for state in states]
    lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=none, label=""];']
    lines.extend(f'  "{name}" [shape=doublecircle];' for name in names)
    lines.append(f'  __start -> "{names[ids[dfa.initial]]}";')
    edges = [(ids[x], u, ids[y]) for x in states for u, y in sorted(dfa.transitions[x].items())]
    lines.extend(_edge_lines(names, *np.array(edges, dtype=np.int64).reshape(-1, 3).T))
    lines.append("}\n")
    return "\n".join(lines)


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
        view = verdict.distinguishing  # pairs with one word share its list
        body["witnesses"] = dict(zip(view.labels, view.spell(list))) if verdict.observable else None
        body["offending_pair"] = list(verdict.offending_pair) if verdict.offending_pair else None
    elif kind is ObservabilityType.TYPE_III:
        word = verdict.universal_word
        body["witness"] = None if word is None else list(word)
    else:
        body["offending_pair"] = list(verdict.offending_pair) if verdict.offending_pair else None
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
        "confusable_pairs": confusable_count(network),
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


# json.dumps's own spelling of the common scalars, by exact type (True is no int)
_SCALARS = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def report_text(report: Mapping) -> str:
    """json.dumps(report, indent=2) plus a newline, for string keys, in one join."""
    return "".join(_json_pieces(report, "\n", []) + ["\n"])


def _json_pieces(value, pad: str, out: list[str]) -> list[str]:
    """Append the pieces of json.dumps(value, indent=2), the value starting a line
    at pad; a list of ints is one piece, and a map of such lists spells each
    word once, looking each list object up once."""
    inner = pad + "  "
    if isinstance(value, (list, tuple)) and set(map(type, value)) == {int}:
        out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + pad + "]")
    elif isinstance(value, (dict, list, tuple)) and value:
        is_map = isinstance(value, dict)
        items = list(value.values()) if is_map else value
        keys, colon = (map(_quote, value), ": ") if is_map else (repeat(""), "")
        seps = chain(["{" + inner if is_map else "[" + inner], repeat("," + inner))
        distinct = dict(zip(map(id, items), items)) if set(map(type, items)) == {list} else {}
        if distinct and set(map(type, chain.from_iterable(distinct.values()))) <= {int}:
            spelled = set(map(tuple, distinct.values()))
            texts = {w: "".join(_json_pieces(list(w), inner, [colon])) for w in spelled}
            words = {i: texts[tuple(w)] for i, w in distinct.items()}
            out += chain.from_iterable(zip(seps, keys, map(words.__getitem__, map(id, items))))
        else:
            for sep, key, item in zip(seps, keys, items):
                out += (sep, key, colon)
                _json_pieces(item, inner, out)
        out.append(pad + ("}" if is_map else "]"))
    else:  # a string, number, true, false, null, {} or []
        out.append(_SCALARS.get(type(value), json.dumps)(value))
    return out


MAX_VARS = 8
MAX_TRANSITION_COLUMNS = 4096


def gen_random_bcn(seed: int, n: int, m: int, q: int) -> Bcn:
    """Uniformly random network over the given variable counts.

    Reproducible from the seed.  Bounds keep the exhaustive tooling honest:
    each count in 1..MAX_VARS and at most MAX_TRANSITION_COLUMNS transition
    columns overall.
    """
    for label, value in (("n", n), ("m", m), ("q", q)):
        if type(value) is not int or not 1 <= value <= MAX_VARS:  # a bool is no int
            raise ValueError(f"{label} must be an int in 1..{MAX_VARS}")
    n_states, n_inputs, n_outputs = 2 ** n, 2 ** m, 2 ** q
    if n_states * n_inputs > MAX_TRANSITION_COLUMNS:
        raise ValueError("n + m too large for the exhaustive tooling")
    rng = random.Random(seed)
    transition = tuple(rng.randint(1, n_states) for _ in range(n_states * n_inputs))
    output_map = tuple(rng.randint(1, n_outputs) for _ in range(n_states))
    return Bcn(n_states, n_inputs, n_outputs, transition, output_map)
