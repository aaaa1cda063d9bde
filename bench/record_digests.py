#!/usr/bin/env python3
"""Record the digests that run.py checks every output against.

    python3 bench/record_digests.py [WORKLOAD ...]

Sends every request of every network in the workloads' pools through
bcnobs.cli.run_cli, checks each output as run.py does (witness replay,
implications, oracle agreement, printed verdicts) and stores its digest in
bench/digests.json, merged with the digests already there.  The file holds
the program's verdicts at the commit that recorded it: re-record only when
a change is meant to alter verdicts, witness words or DOT output, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import gen
import workloads
from run import HERE, ROOT, SRC, cli_request

DIGESTS = HERE / "digests.json"


def record(names: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    os.environ["BCNOBS_ENUM_BUDGET"] = str(workloads.ENUM_BUDGET)
    from bcnobs.bcnio import parse_bcn
    from bcnobs.cli import run_cli

    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    failures = 0
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as tmp:
        doc = Path(tmp) / "network.json"
        for name in names:
            workload = workloads.WORKLOADS[name]
            for c in workload.classes:
                for seed in range(c.pool):
                    net = gen.make_network(c.family, c.n, c.m, c.q, seed)
                    text = gen.render(net, workload.bodies[0])
                    doc.write_text(text, encoding="utf-8")
                    network = parse_bcn(text)
                    for request in workload.requests:
                        out = Path(tmp) / f"out-{request.tag}"
                        stdout = cli_request(run_cli, request.argv(str(doc), str(out)))
                        digest, problems = workloads.check_output(request, out, stdout, network)
                        key = workloads.digest_key(net, request)
                        if digests.get(key, digest) != digest:
                            problems.append(f"differs from the recorded {digests[key]}")
                        if problems:
                            failures += 1
                            print(f"{key}: {problems}", file=sys.stderr)
                        else:
                            digests[key] = digest
                print(f"{name}: {c.family} ({c.n},{c.m},{c.q}) x {c.pool} recorded", flush=True)
                save(digests)
    save(digests)
    return 1 if failures else 0


def save(digests: dict) -> None:
    """Write the digests of networks still in some workload's pool."""
    wanted = {
        workloads.digest_key(gen.make_network(c.family, c.n, c.m, c.q, seed), request)
        for workload in workloads.WORKLOADS.values()
        for c in workload.classes
        for seed in range(c.pool)
        for request in workload.requests
    }
    kept = {k: v for k, v in digests.items() if k in wanted}
    DIGESTS.write_text(json.dumps(kept, indent=0, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record(sys.argv[1:] or list(workloads.WORKLOADS)))
