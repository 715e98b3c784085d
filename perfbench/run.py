"""The repository benchmark: one command per workload, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload {table3,characterize,churn,judge,serve} \
        --seed N --seconds S --trace {0,1}

Every workload runs in fresh interpreters started from here.  With
``--trace 0`` it prints the end-to-end metrics (``setup_s``, ``pkt_per_s``,
``peak_rss_mb``, ``verdict_p50_ms``, ``verdict_p99_ms``); with ``--trace 1``
an untraced and a traced interpreter run back to back and it prints the
per-layer metrics and ``trace_overhead``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every correctness gate held.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

import benchstats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
#: Set-up is measured this many times per run (fresh interpreters) and the
#: median reported.
SETUPS = 5
#: Offered rate of the serve workload, in flows per second: a quarter of the
#: proxy's capacity over loopback on a 2-core x86-64 container (README.md).
SERVE_RATE = 250.0
SERVE_ARGS = ["--env", "testbed", "--ops-port", "0", "--flight-dir", os.path.join(OUT_DIR, "flight")]
#: The line ``liberate serve`` prints once it listens, and the one child.py
#: prints once set up (with its speed factor and sampler time).
SERVING = r"^serving .* on [\d.]+:(\d+) "
READY = r"^ready (\S+) (\S+)$"
#: CPUs this run may use: the server takes the first, the generator the last.
CPUS = sorted(os.sched_getaffinity(0))
CHILD_TIMEOUT_S = 170.0
#: Workloads that run in one interpreter (``workloads.py``); ``serve`` does not.
IN_PROCESS = ("table3", "characterize", "churn", "judge")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pkt_per_s": "pkt/s",
    "peak_rss_mb": "MB",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
}
PER_LAYER_UNITS = {
    "core.characterize.self_s": "s",
    "core.characterize.share": "ratio",
    "core.characterize.rounds": "count",
    "core.characterize.bytes": "B",
    "core.judge.calls": "count",
    "core.judge.busy_s": "s",
    "core.judge.p50_ms": "ms",
    "core.judge.p99_ms": "ms",
    "core.judge.self_s": "s",
    "core.judge.share": "ratio",
    "serve.wait_ms": "ms",
    "serve.gen_late_ms": "ms",
    "replay.sessions": "count",
    "replay.self_s": "s",
    "replay.share": "ratio",
    "netsim.packets": "count",
    "netsim.self_s": "s",
    "netsim.share": "ratio",
    "middlebox.packets": "count",
    "middlebox.self_s": "s",
    "middlebox.share": "ratio",
    "middlebox.flows": "count",
    "middlebox.evictions": "count",
    "middlebox.expired": "count",
    "middlebox.matches": "count",
    "middlebox.timer.arms": "count",
    "middlebox.timer.cancels": "count",
    "middlebox.timer.advances": "count",
    "middlebox.timer.self_s": "s",
    "middlebox.timer.cancel_ratio": "ratio",
    "middlebox.timer.share": "ratio",
    "endpoint.packets": "count",
    "endpoint.self_s": "s",
    "endpoint.share": "ratio",
    "endpoint.client.self_s": "s",
    "endpoint.client.share": "ratio",
    "packets.serialize_calls": "count",
    "packets.self_s": "s",
    "packets.share": "ratio",
    "unattributed.share": "ratio",
    "trace_overhead": "ratio",
}


class BenchError(RuntimeError):
    """A child failed to start, crashed or timed out."""


class Child:
    """A child interpreter whose output lines are collected with arrival times."""

    def __init__(self, args: list[str], pipe_stderr: bool = False) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.abspath("src"), BENCH_DIR])
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if pipe_stderr else None,
            env=env,
        )
        self.lines: queue.Queue = queue.Queue()
        self.stdout: list[str] = []
        pipes = [("stdout", self.proc.stdout)]
        if pipe_stderr:
            pipes.append(("stderr", self.proc.stderr))
        self._open = len(pipes)
        self._threads = [
            threading.Thread(target=self._pump, args=pipe, daemon=True) for pipe in pipes
        ]
        for thread in self._threads:
            thread.start()

    def _pump(self, name: str, pipe) -> None:
        for raw in pipe:
            self.lines.put((name, time.perf_counter(), raw.decode("utf-8", "replace").rstrip("\n")))
        self.lines.put((name, time.perf_counter(), None))

    def _next(self, deadline: float):
        try:
            name, when, line = self.lines.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            raise BenchError(f"timed out waiting for {self.proc.args[1]}") from None
        if line is None:
            self._open -= 1
        elif name == "stdout":
            self.stdout.append(line)
        else:
            print(line, file=sys.stderr)
        return name, when, line

    def wait_line(self, pattern: str, timeout: float = CHILD_TIMEOUT_S) -> tuple[float, re.Match]:
        """Seconds from spawn until a line matching *pattern*, and the match."""
        deadline = time.perf_counter() + timeout
        while self._open:
            _name, when, line = self._next(deadline)
            match = re.search(pattern, line) if line is not None else None
            if match:
                return when - self.started, match
        raise BenchError(f"{self.proc.args[1]} exited before printing {pattern!r}")

    def finish(self, timeout: float = CHILD_TIMEOUT_S) -> list[str]:
        """Wait for exit; returns stdout.  Raises unless the exit code is 0."""
        deadline = time.perf_counter() + timeout
        while self._open:
            self._next(deadline)
        code = self.proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        for thread in self._threads:
            thread.join()
        if code != 0:
            raise BenchError(f"{self.proc.args[1]} exited with {code}")
        return self.stdout

    def stop(self) -> None:
        """Kill the child if it still runs, and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for thread in self._threads:
            thread.join(timeout=5)


class Children:
    """Every child started by this run; all are stopped on the way out."""

    def __init__(self) -> None:
        self.started: list[Child] = []

    def spawn(self, args: list[str], pipe_stderr: bool = False) -> Child:
        child = Child(args, pipe_stderr)
        self.started.append(child)
        return child

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *_exc) -> None:
        for child in self.started:
            child.stop()


# ----------------------------------------------------------------------
# set-up: fresh interpreters up to their first timed operation
# ----------------------------------------------------------------------
def setup_seconds(children: Children, spawn, ready: str, stop) -> float:
    """Median set-up time over :data:`SETUPS` fresh interpreters, reference seconds.

    *spawn* starts one interpreter and *ready* matches the line it prints
    when set up; ``stop(child, match)`` ends it and returns the speed factor
    and sampler time the child measured over its set-up.
    """
    times = []
    for _ in range(SETUPS):
        child = spawn(children)
        seconds, match = child.wait_line(ready)
        factor, spent = stop(child, match)
        times.append((seconds - spent) * factor)
    return statistics.median(times)


# ----------------------------------------------------------------------
# in-process workloads: table3, characterize, churn, judge
# ----------------------------------------------------------------------
def in_process_child(children: Children, args, *extra: str) -> Child:
    return children.spawn(
        [
            os.path.join(BENCH_DIR, "child.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            *extra,
        ]
    )


def stop_in_process(child: Child, match: re.Match) -> tuple[float, float]:
    child.finish()
    return float(match.group(1)), float(match.group(2))


def run_child(children: Children, args, *extra: str) -> dict:
    return json.loads(in_process_child(children, args, *extra).finish()[-1])


def in_process(children: Children, args) -> tuple[dict, int, int, bool]:
    """(metrics, attempted, failed, packet counts held) for an in-process workload."""
    if not args.trace:
        setup = setup_seconds(
            children, lambda c: in_process_child(c, args, "--setup-only"), READY, stop_in_process
        )
        result = run_child(children, args)
        metrics = {
            "setup_s": setup,
            "pkt_per_s": result["pkt_per_s"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "verdict_p50_ms": result["verdict_p50_ms"],
            "verdict_p99_ms": result["verdict_p99_ms"],
        }
        print(
            f"# {args.workload}: {result['passes']} timed passes of {result['packets']} packets, "
            f"{result['host_pkt_per_s']:.6g} pkt per host second, "
            f"{result['verdicts']} verdicts timed, set-up x{SETUPS}",
            file=sys.stderr,
        )
        results = [result]
    else:
        plain = run_child(children, args)
        spans_file = os.path.join(OUT_DIR, f"{args.workload}-spans.tsv")
        traced = run_child(children, args, "--trace", "--spans", spans_file)
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
        metrics.update(traced["layers"])
        metrics["trace_overhead"] = statistics.median(traced["pass_ref_s"]) / statistics.median(
            plain["pass_ref_s"]
        )
        results = [plain, traced]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    held = all(r["packets_repeat"] for r in results)
    if not held:
        print(f"# packet count per pass changed: {[r['packets'] for r in results]}", file=sys.stderr)
    return metrics, attempted, failed, held


# ----------------------------------------------------------------------
# serve: the live proxy and its load generator
# ----------------------------------------------------------------------
def spawn_server(children: Children, trace: bool = False) -> Child:
    return children.spawn(
        [
            os.path.join(BENCH_DIR, "serve_child.py"),
            "--out", OUT_DIR,
            "--cpu", str(CPUS[0]),
            *(["--trace"] if trace else []),
            "--", *SERVE_ARGS,
        ],
        pipe_stderr=True,
    )


def stop_server(child: Child) -> dict:
    """SIGINT the server, wait for it, and return the report it wrote."""
    child.proc.send_signal(signal.SIGINT)
    child.finish()
    with open(os.path.join(OUT_DIR, "serve-report.json"), encoding="utf-8") as handle:
        return json.load(handle)


def stop_server_setup(child: Child, _match: re.Match) -> tuple[float, float]:
    report = stop_server(child)
    return report["setup_factor"], report["setup_spent"]


def serve_phase(children: Children, args, trace: bool) -> tuple[list[dict], dict]:
    """(flow records, server report) of one served run."""
    server = spawn_server(children, trace)
    _, match = server.wait_line(SERVING)
    flows_file = os.path.join(OUT_DIR, "serve-flows.json")
    try:
        children.spawn(
            [
                os.path.join(BENCH_DIR, "loadgen.py"),
                "--port", match.group(1),
                "--cpu", str(CPUS[-1]),
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--rate", str(SERVE_RATE),
                "--max-inflight", str(len(CPUS)),
                "--out", flows_file,
            ]
        ).finish()
    finally:
        report = stop_server(server)
    with open(flows_file, encoding="utf-8") as handle:
        return json.load(handle), report


def ms_percentile(values: list[float], q: float) -> float:
    return benchstats.percentile(values, q) * 1e3


def serve(children: Children, args) -> tuple[dict, int, int, bool]:
    """(metrics, attempted, failed, True) for the serve workload."""
    if not args.trace:
        setup = setup_seconds(children, spawn_server, SERVING, stop_server_setup)
        flows, report = serve_phase(children, args, trace=False)
        attempted, failed, latencies = benchstats.flow_latencies(flows)
        served = [f for f in flows if f["status"] == benchstats.OK]
        window = max((f["due_s"] + f["latency_s"] for f in served), default=math.inf)
        metrics = {
            "setup_s": setup,
            "pkt_per_s": sum(f["packets"] for f in served) / window,
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
            "verdict_p50_ms": ms_percentile(latencies, 50),
            "verdict_p99_ms": ms_percentile(latencies, 99),
        }
        print(
            f"# serve: {attempted} flows offered at {SERVE_RATE:g}/s, {failed} failed, "
            f"latency (host ms) over n={len(latencies)}, set-up x{SETUPS}",
            file=sys.stderr,
        )
        return metrics, attempted, failed, True

    plain_flows, _ = serve_phase(children, args, trace=False)
    flows, report = serve_phase(children, args, trace=True)
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
    metrics.update(report["metrics"])
    judge = {flow: ns / 1e9 for flow, ns in report["judge_ns"]}
    metrics["core.judge.p50_ms"] = ms_percentile(list(judge.values()), 50)
    metrics["core.judge.p99_ms"] = ms_percentile(list(judge.values()), 99)
    served = [f for f in flows if f["status"] == benchstats.OK and f["flow"] in judge]
    metrics["serve.wait_ms"] = ms_percentile([f["latency_s"] - judge[f["flow"]] for f in served], 99)
    metrics["serve.gen_late_ms"] = ms_percentile([f["late_s"] for f in flows], 99)
    plain_attempted, plain_failed, plain = benchstats.flow_latencies(plain_flows)
    attempted, failed, traced = benchstats.flow_latencies(flows)
    metrics["trace_overhead"] = benchstats.percentile(traced, 50) / benchstats.percentile(plain, 50)
    return metrics, attempted + plain_attempted, failed + plain_failed, True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*IN_PROCESS, "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT_DIR, "flight"), exist_ok=True)

    try:
        with Children() as children:
            measure = in_process if args.workload in IN_PROCESS else serve
            metrics, attempted, failed, held = measure(children, args)
    except (BenchError, benchstats.InsufficientSamples, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{args.workload:13s} {name:32s} {value:14.6g} {units[name]}")
    correct = failed == 0 and held
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
