"""The four workloads, their requests, and the checks every output passes.

A workload is a list of network classes and the requests each network gets.
Each class draws from a fixed pool of generator seeds 0..pool-1 whose
outputs' digests are recorded in digests.json (see record_digests.py).  One
round takes `count` consecutive pool seeds from every class, starting at the
benchmark seed; the run repeats whole rounds while they fit in the measured
time.

On sweep-small, subset-search and oracle-check a round is the whole pool
(count == pool), so every run measures the same networks and the seed sets
their order and, on sweep-small, the document body each network is sent in.
Per-network cost is heavy-tailed there (type III subset counts range from
hundreds to tens of thousands), so runs over different samples of a few
dozen networks would add input variance to the machine's noise.  A round
takes 15-20 s at the seed commit.  On large-graph a round is one network per
class, and the seed picks which.
"""

from __future__ import annotations

import hashlib
import json
from typing import NamedTuple, Optional

import gen

ENUM_BUDGET = 16384  # BCNOBS_ENUM_BUDGET for oracle-check, as scripts/implication_sweep.py


class NetClass(NamedTuple):
    family: str
    n: int
    m: int
    q: int
    count: int  # networks of this class per round
    pool: int  # generator seeds 0..pool-1


class Request(NamedTuple):
    command: str  # "decide" or "graph"
    kind: Optional[str] = None  # --type for decide
    oracle: bool = False

    def argv(self, doc: str, out: str) -> list[str]:
        if self.command == "graph":
            return ["graph", doc, "--dot", out]
        argv = ["decide", doc, "--type", self.kind, "--witness", "--json", out]
        return argv + ["--oracle-check"] if self.oracle else argv

    @property
    def tag(self) -> str:
        return "dot" if self.command == "graph" else self.kind


class Workload(NamedTuple):
    classes: tuple[NetClass, ...]
    requests: tuple[Request, ...]
    bodies: tuple[str, ...] = ("state-first",)


WORKLOADS = {
    # Pair graph, types II and IV, report and DOT at 1,024-4,096 states.
    "large-graph": Workload(
        classes=(
            NetClass("random", 10, 2, 4, 1, 8),
            NetClass("random", 11, 1, 5, 1, 8),
            NetClass("shift", 12, 1, 7, 1, 8),
        ),
        requests=(Request("decide", "II"), Request("decide", "IV"), Request("graph")),
    ),
    # Subset search for types I and III.  Random networks stay at 32
    # states: type III's full subset construction blows up from about 64.
    "subset-search": Workload(
        classes=(NetClass("random", 5, 2, 3, 56, 56), NetClass("shift", 8, 1, 4, 8, 8)),
        requests=(Request("decide", "all"),),
    ),
    # Many tiny calls, rotating through the three document bodies.
    "sweep-small": Workload(
        classes=tuple(
            NetClass("random", n, m, q, 576, 576)
            for n, m, q in ((3, 1, 1), (4, 1, 1), (4, 1, 2), (4, 2, 2))
        ),
        requests=(Request("decide", "all"),),
        bodies=gen.BODIES,
    ),
    # Brute-force oracle and witness replay under --oracle-check.
    "oracle-check": Workload(
        classes=tuple(
            NetClass("random", n, m, q, 36, 36)
            for n, m, q in ((2, 1, 1), (3, 2, 2), (3, 1, 1), (4, 2, 3))
        ),
        requests=(Request("decide", "all", oracle=True),),
    ),
}


class Job(NamedTuple):
    """One network of a round with the document body it is sent in."""

    net: gen.Network
    body: str


def round_jobs(workload: Workload, seed: int, round_index: int) -> list[Job]:
    """The networks of one round, the classes interleaved in proportion."""
    placed = []
    for k, c in enumerate(workload.classes):
        for j in range(c.count):
            i = round_index * c.count + j
            net = gen.make_network(c.family, c.n, c.m, c.q, (seed + i) % c.pool)
            placed.append((j / c.count, k, Job(net, workload.bodies[i % len(workload.bodies)])))
    return [job for _, _, job in sorted(placed)]


def digest_key(net: gen.Network, request: Request) -> str:
    return f"{net.key}/{request.tag}"


def _short_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def verdict_digest(report: dict) -> str:
    """Hash of the canonical part of a decide report.

    Covers the observable flags, offending state or pair, and the type I, II
    and III witness words, which are lexicographically least shortest.
    Leaves out the automata lists, timings and the type IV lasso, whose
    shape may change with the decider's algorithm.
    """
    kept = {"observable", "offending_state", "offending_pair", "witnesses", "witness"}
    body = {
        kind: {k: v for k, v in verdict.items() if k in kept}
        for kind, verdict in report["verdicts"].items()
    }
    return _short_hash(json.dumps(body, sort_keys=True, separators=(",", ":")))


def dot_digest(text: str) -> str:
    return _short_hash(text)


def report_payloads(report: dict):
    """(type, payload) for every witness and lasso in a decide report, in the
    shapes oracle.verify_witness takes."""
    for kind, v in report["verdicts"].items():
        if kind == "I" and v["observable"]:
            for state, word in v["witnesses"].items():
                yield kind, (int(state), tuple(word))
        elif kind == "II" and v["observable"]:
            for pair, word in v["witnesses"].items():
                yield kind, (tuple(int(x) for x in pair.split(",")), tuple(word))
        elif kind == "III" and v["observable"]:
            yield kind, tuple(v["witness"])
        elif kind == "IV" and not v["observable"]:
            lasso = v["lasso"]
            yield kind, (tuple(v["offending_pair"]), tuple(lasso["prefix"]), tuple(lasso["cycle"]))


def check_output(request: Request, out_path, stdout: str, network) -> tuple[str, list[str]]:
    """The output's digest, and every other reason it is wrong."""
    text = out_path.read_text(encoding="utf-8")
    if request.command == "graph":
        return dot_digest(text), []
    report = json.loads(text)
    return verdict_digest(report), check_decide(report, stdout, network, request)


def check_decide(report: dict, stdout: str, network, request: Request) -> list[str]:
    """Every reason this decide output is wrong, apart from its digest; empty
    when it passes."""
    from bcnobs.observability import ObservabilityType
    from bcnobs.oracle import verify_witness

    problems = []
    for kind, payload in report_payloads(report):
        if not verify_witness(network, ObservabilityType(kind), payload):
            problems.append(f"type {kind} witness fails replay: {payload}")
    flags = {k: v["observable"] for k, v in report["verdicts"].items()}
    if request.kind == "all":
        for a, b in (("IV", "III"), ("III", "I"), ("I", "II")):
            if flags[a] and not flags[b]:
                problems.append(f"implication {a} => {b} broken")
    printed = {}
    for line in stdout.splitlines():
        if line.startswith("type "):
            kind, _, verdict = line[len("type "):].partition(": ")
            printed[kind] = verdict.startswith("observable")
    if printed != flags:
        problems.append("printed verdicts differ from the report")
    if request.oracle:
        if not all(r["agrees"] for r in report["oracle"].values()):
            problems.append("oracle disagrees")
        if report.get("witnesses_verified") is not True:
            problems.append("witnesses not verified")
    return problems
