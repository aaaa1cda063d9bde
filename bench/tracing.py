"""Traced replay: the steps of one CLI request, called layer by layer.

The replay follows what `bcnobs decide` and `bcnobs graph` do, through each
layer's public functions, and records a span around every layer call.  Spans
stay in memory (name, start, end, parent, request id) and are written out
when the run ends.  Counters are read from the layers' results at the same
boundaries.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple

from bcnobs.bcnio import build_report, document_to_bcn, emit_dot, load_document
from bcnobs.observability import DECIDERS, ObservabilityType, exact_oracle_horizon
from bcnobs.oracle import brute_force, verify_witness
from bcnobs.pairgraph import build

import workloads

# Span names whose summed durations are per-layer metrics (name + "_ms").
LAYER_SPANS = (
    "bcnio.parse",
    "bcnio.compile",
    "pairgraph.build",
    "observability.type_i",
    "observability.type_ii",
    "observability.type_iii",
    "observability.type_iv",
    "observability.horizon",
    "oracle.brute_force",
    "oracle.replay",
    "bcnio.report",
    "bcnio.dot",
)
COUNTERS = (
    "pairgraph.pairs",
    "pairgraph.transitions",
    "automata.vertex_states",
    "automata.subset_states",
    "oracle.words_computed",
    "oracle.witnesses",
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._request = -1

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in when the span ends
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = Span(span_id, name, start, end, parent, self._request)

    @contextmanager
    def request(self):
        self._request += 1
        with self.span("request"):
            yield

    def layer_ms(self, since: int = 0) -> dict[str, float]:
        """Summed layer span durations, over the spans from index `since` on."""
        totals = dict.fromkeys(LAYER_SPANS, 0.0)
        for s in self.spans[since:]:
            if s.name in totals:
                totals[s.name] += (s.end - s.start) * 1000.0
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s._asdict()) + "\n")


def _words_enumerated(n_inputs: int, kind: ObservabilityType, horizon: int) -> int:
    """Words a brute-force search at this horizon may enumerate (upper bound)."""
    if kind is ObservabilityType.TYPE_IV:
        return n_inputs ** horizon
    return sum(n_inputs ** p for p in range(1, horizon + 1))


def _verdict_payloads(verdict):
    """(type, payload) pairs the CLI replays under --oracle-check."""
    kind = verdict.kind
    if kind is ObservabilityType.TYPE_IV:
        if not verdict.observable:
            lasso = verdict.lasso
            yield kind, (tuple(lasso.source), lasso.prefix, lasso.cycle)
    elif not verdict.observable:
        return
    elif kind is ObservabilityType.TYPE_I:
        yield from ((kind, item) for item in sorted(verdict.determining.items()))
    elif kind is ObservabilityType.TYPE_II:
        for pair, word in sorted(verdict.distinguishing.items()):
            yield kind, (tuple(pair), word)
    elif verdict.universal_word is not None:
        yield kind, verdict.universal_word


def replay(tracer: Tracer, request: workloads.Request, doc_path: str):
    """Run one request layer by layer; returns the report dict or DOT text."""
    with tracer.span("bcnio.parse"):
        document = load_document(doc_path)
    with tracer.span("bcnio.compile"):
        network = document_to_bcn(document)
    with tracer.span("pairgraph.build"):
        graph = build(network)
    tracer.counts["pairgraph.pairs"] += len(graph.vertices)
    tracer.counts["pairgraph.transitions"] += sum(len(r) for r in graph.successor.values())
    if request.command == "graph":
        with tracer.span("bcnio.dot"):
            return emit_dot(graph)

    kinds = list(ObservabilityType) if request.kind == "all" else [ObservabilityType(request.kind)]
    verdicts, timings = {}, {}
    for kind in kinds:
        started = time.perf_counter()
        with tracer.span(f"observability.type_{kind.value.lower()}"):
            verdicts[kind] = DECIDERS[kind](network, graph)
        timings[kind] = (time.perf_counter() - started) * 1000.0
        states = sum(s.n_states for s in verdicts[kind].automaton_stats)
        if kind is ObservabilityType.TYPE_II:
            tracer.counts["automata.vertex_states"] += states
        else:
            tracer.counts["automata.subset_states"] += states

    oracle_results = witnesses_verified = None
    if request.oracle:
        oracle_results = {}
        for kind in kinds:
            with tracer.span("observability.horizon"):
                conclusive = exact_oracle_horizon(network, kind, graph)
            with tracer.span("oracle.brute_force"):
                result = brute_force(
                    network,
                    kind,
                    conclusive,
                    budget=workloads.ENUM_BUDGET,
                    sufficient_horizon=conclusive,
                )
            oracle_results[kind] = result
            tracer.counts["oracle.words_computed"] += _words_enumerated(
                network.n_inputs, kind, result.horizon
            )
            tracer.counts["oracle.searches"] += 1
            tracer.counts["oracle.exact"] += result.exact
        payloads = [p for kind in kinds for p in _verdict_payloads(verdicts[kind])]
        with tracer.span("oracle.replay"):
            witnesses_verified = all([verify_witness(network, k, p) for k, p in payloads])
        tracer.counts["oracle.witnesses"] += len(payloads)

    with tracer.span("bcnio.report"):
        return build_report(
            network,
            verdicts,
            name=document.name,
            timings_ms=timings,
            oracle_results=oracle_results,
            witnesses_verified=witnesses_verified,
        )
