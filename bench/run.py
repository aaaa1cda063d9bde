#!/usr/bin/env python3
"""Benchmark of the bcnobs command line on seeded generated networks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from src/.  Each
request goes through the user-facing path, `bcnobs.cli.run_cli`, in this
process, one request at a time (closed loop, one client), with stdout
captured and reports written to a scratch directory.  Every output is
checked (see workloads.check_decide); any failed check makes the exit code 1.

--trace 0 measures the end-to-end metrics.  --trace 1 runs every request
twice, once through run_cli and once through tracing.replay, which calls the
layers directly and records spans; it reports the per-layer metrics and
writes the spans to .bench_out/.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REQUEST_CAP_S = 45  # a request running longer is stopped and counted as failed
DEADLINE_S = 100  # no new request starts after this much wall time in the loop
MEMORY_CAP = 2 << 30  # address space of this process; a runaway raises MemoryError
SETUP_RUNS = 9


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout(f"request exceeded {REQUEST_CAP_S} s")


def capped(fn, *args):
    """fn(*args) under the wall-clock cap: (seconds, result, error text)."""
    signal.setitimer(signal.ITIMER_REAL, REQUEST_CAP_S)
    start = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # a failed request is counted, the run goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, result, error


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing bcnobs.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import bcnobs.cli"]
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True)
        if i:  # the first run only warms the bytecode cache
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with Beta(q(n+1), (1-q)(n+1))
    weights taken at the interval midpoints.  On the few, widely spread
    latencies of the heavy-tailed workloads it varies between runs less than
    the single order statistic that statistics.quantiles picks.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    mids = [(i + 0.5) / n for i in range(n)]
    logw = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in mids]
    top = max(logw)
    weights = [math.exp(w - top) for w in logw]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def cli_request(run_cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return out.getvalue()


class Run:
    def __init__(self, name: str, seed: int, seconds: float, traced: bool, scratch: Path):
        from bcnobs.bcnio import parse_bcn
        from bcnobs.cli import run_cli

        self.run_cli, self.parse_bcn = run_cli, parse_bcn
        self.workload = workloads.WORKLOADS[name]
        self.seed, self.seconds, self.scratch = seed, seconds, scratch
        self.digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        self.latencies_ms: list[float] = []
        self.measured_s = 0.0
        self.networks_ok = self.attempted = self.failed = 0
        self.residual_ms = 0.0
        self.tracer = None
        if traced:
            import tracing

            self.tracer = tracing.Tracer()

    def loop(self) -> None:
        """Whole rounds, as many as fit in the measured time, at least one."""
        start = time.perf_counter()
        round_index = 0
        while round_index == 0 or self.measured_s * (round_index + 1) / round_index <= self.seconds:
            for job in workloads.round_jobs(self.workload, self.seed, round_index):
                if time.perf_counter() - start > DEADLINE_S:
                    print(f"deadline of {DEADLINE_S} s reached, stopping", file=sys.stderr)
                    return
                self.networks_ok += self.network(job)
            round_index += 1

    def network(self, job: workloads.Job) -> bool:
        text = gen.render(job.net, job.body)
        doc = self.scratch / "network.json"
        doc.write_text(text, encoding="utf-8")
        network = self.parse_bcn(text)
        ok = True
        for request in self.workload.requests:
            out = self.scratch / f"out-{request.tag}"
            argv = request.argv(str(doc), str(out))
            elapsed, stdout, error = capped(cli_request, self.run_cli, argv)
            self.attempted += 1
            self.measured_s += elapsed
            self.latencies_ms.append(elapsed * 1000.0)
            problems = [error] if error else self.check(job, request, network, stdout, out)
            if self.tracer is not None and not problems:
                problems = self.traced(job, request, doc, out, elapsed)
            if problems:
                self.failed += 1
                ok = False
                print(f"FAILED {job.net.key} {' '.join(argv[:1] + argv[2:])}: {problems}", file=sys.stderr)
        return ok

    def check(self, job, request, network, stdout, out: Path) -> list[str]:
        expected = self.digests.get(workloads.digest_key(job.net, request))
        digest, problems = workloads.check_output(request, out, stdout, network)
        if digest != expected:
            problems.append(f"digest {digest} != recorded {expected}")
        return problems

    def traced(self, job, request, doc: Path, out: Path, cli_s: float) -> list[str]:
        import tracing

        since = len(self.tracer.spans)
        with self.tracer.request():
            elapsed, result, error = capped(tracing.replay, self.tracer, request, str(doc))
        self.measured_s += elapsed
        if error:
            return [f"traced replay: {error}"]
        self.residual_ms += cli_s * 1000.0 - sum(self.tracer.layer_ms(since).values())
        if request.command == "graph":
            same = workloads.dot_digest(result) == workloads.dot_digest(out.read_text(encoding="utf-8"))
        else:
            cli_report = json.loads(out.read_text(encoding="utf-8"))
            same = workloads.verdict_digest(result) == workloads.verdict_digest(cli_report)
        return [] if same else ["traced replay gives a different verdict digest"]

    def end_to_end(self, setup_s: float) -> dict:
        lat = self.latencies_ms
        return {
            "networks_per_s": (self.networks_ok / self.measured_s, "1/s"),
            "request_ms.p50": (hd_quantile(lat, 0.5), "ms"),
            "request_ms.p90": (hd_quantile(lat, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (setup_s, "s"),
        }

    def per_layer(self) -> dict:
        import tracing

        tracer = self.tracer
        metrics = {f"{name}_ms": (ms, "ms") for name, ms in tracer.layer_ms().items()}
        metrics.update({name: (tracer.counts[name], "count") for name in tracing.COUNTERS})
        searches = tracer.counts["oracle.searches"]
        exact = tracer.counts["oracle.exact"] / searches if searches else 0.0
        metrics["oracle.exact_frac"] = (exact, "ratio")
        metrics["cli.residual_ms"] = (self.residual_ms, "ms")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bcnobs" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'bcnobs'}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bcnobs

    if Path(bcnobs.__file__).resolve().parent != SRC / "bcnobs":
        print(f"error: imported bcnobs from {bcnobs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import selftest

    problems = selftest.problems()
    for line in problems:
        print(f"selftest FAILED: {line}", file=sys.stderr)
    setup_s = None if args.trace else measure_setup()
    os.environ["BCNOBS_ENUM_BUDGET"] = str(workloads.ENUM_BUDGET)
    signal.signal(signal.SIGALRM, _on_alarm)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, hard))

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
        # Finish lazy set-up in the program before timing: one tiny request.
        warm = gen.render(gen.random_network(2, 1, 1, 0), "state-first")
        (scratch / "warm.json").write_text(warm, encoding="utf-8")
        cli_request(run.run_cli, ["decide", str(scratch / "warm.json")])
        run.loop()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        metrics = run.per_layer()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        run.tracer.write(spans_path)
        traced_ms = sum(ms for name, (ms, unit) in metrics.items() if unit == "ms")
        print(f"{args.workload}: per-layer totals over {run.attempted} requests, spans in {spans_path}")
        for name, (value, unit) in metrics.items():
            share = f"{100.0 * value / traced_ms:5.1f}%" if unit == "ms" and traced_ms else ""
            print(f"  {name:26s} {value:14.3f} {unit:6s} {share}")
    else:
        metrics = run.end_to_end(setup_s)
        print(
            f"{args.workload}: {run.attempted} requests ({len(run.latencies_ms)} latency samples),"
            f" {run.networks_ok} networks passed, {run.measured_s:.2f} s measured"
        )
        for name, (value, unit) in metrics.items():
            print(f"  {name:16s} {value:12.4f} {unit}")
    print(f"  failed_frac {run.failed / max(run.attempted, 1):.4f} ratio ({run.failed} of {run.attempted})")

    correct = not problems and run.failed == 0 and run.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
