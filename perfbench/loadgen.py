"""Open-loop load generator for the ``serve`` workload (its own process).

Usage::

    python3 perfbench/loadgen.py --port PORT --cpu C --seed N --seconds S \
        --rate R --max-inflight K --out FLOWS.json

Flows arrive on a seeded Poisson schedule at a fixed offered rate.  At most
``--max-inflight`` connections are open at once; a flow that is due while
every slot is busy waits for one, and its latency still counts from when it
was due.  Each flow sends one payload from a seeded mix of matching and
bit-inverted HTTP requests, half-closes, and reads the one-line verdict.

Payloads and the verdict oracle come from ``workloads`` (the ``judge``
workload judges the same payloads in-process).  After the schedule ends the
generator computes the verdict a fresh ladder, deployed as ``liberate
serve`` deploys it, gives each distinct payload and marks every served flow
ok or failed against it.  It writes one
record per flow to ``--out``:

    {"flow": server flow id or null, "due_s": ..., "late_s": ...,
     "latency_s": ... or null, "status": "ok" | "refused" | ...}
"""

from __future__ import annotations

import argparse
import json
import os
import random
import socket
import sys
import threading
import time

import benchstats

HOST = "127.0.0.1"
#: A flow with no verdict after this long counts as unanswered.
FLOW_TIMEOUT_S = 10.0


def make_schedule(seed: int, seconds: float, rate: float, kinds: int) -> list[tuple[float, int]]:
    """(due offset, payload index) pairs: Poisson arrivals at *rate* per second.

    The count is fixed at ``rate * seconds`` (a Poisson process given its
    count places arrivals uniformly at random), so every seed offers the
    same load.
    """
    rng = random.Random(seed ^ 0x5EED)
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))
    return [(due, rng.randrange(kinds)) for due in dues]


def run_flow(port: int, payload: bytes, record: dict, t0: float) -> None:
    """One connection: send, half-close, read the verdict line."""
    try:
        with socket.create_connection((HOST, port), timeout=FLOW_TIMEOUT_S) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as stream:
                line = stream.readline()
            answered = time.perf_counter() - t0
        if not line:
            return  # closed without a verdict: stays "unanswered"
        verdict = json.loads(line)
        record["latency_s"] = answered - record["due_s"]
        record["flow"] = verdict.get("flow")
        record["verdict"] = verdict
        record["status"] = "shed" if verdict.get("shed") else benchstats.OK
    except ConnectionRefusedError:
        record["status"] = "refused"
    except (ConnectionResetError, BrokenPipeError):
        record["status"] = "reset"
    except (OSError, ValueError):
        record["status"] = "unanswered"


def drive(port: int, payloads: list[bytes], schedule, max_inflight: int) -> list[dict]:
    """Send every scheduled flow; returns one record per flow in due order.

    *max_inflight* threads each take the next scheduled flow, sleep until it
    is due and run it, so a flow due while every thread is busy waits for
    one — and its latency still counts from when it was due.
    """
    records: list[dict] = []
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                if len(records) == len(schedule):
                    return
                due, index = schedule[len(records)]
                record = {"flow": None, "payload": index, "due_s": due, "latency_s": None,
                          "status": "unanswered"}
                records.append(record)
            free = time.perf_counter() - t0
            if due > free:
                time.sleep(due - free)
            # How late the generator itself ran: measured from when the flow
            # was due or a thread came free, whichever was later.
            record["late_s"] = time.perf_counter() - t0 - max(due, free)
            run_flow(port, payloads[index], record, t0)

    threads = [threading.Thread(target=worker) for _ in range(max_inflight)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--max-inflight", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    os.sched_setaffinity(0, {args.cpu})
    import workloads

    payloads = workloads.serve_payloads(args.seed)
    schedule = make_schedule(args.seed, args.seconds, args.rate, len(payloads))
    records = drive(args.port, payloads, schedule, args.max_inflight)

    expected, packets = workloads.simulated_verdicts(payloads)
    for record in records:
        verdict = record.pop("verdict", None)
        index = record["payload"]
        record["packets"] = packets[index]
        if record["status"] == benchstats.OK and any(
            verdict.get(key) != expected[index][key] for key in workloads.VERDICT_FIELDS
        ):
            record["status"] = "wrong"
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(records, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
