"""One in-process workload in a fresh interpreter (spawned by run.py).

Usage::

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        [--trace] [--setup-only] [--spans FILE]

Imports and builds the workload's environments, prints ``ready`` (the end of
set-up), runs one untimed warm-up pass, then repeats timed passes until
``--seconds`` have elapsed and prints one JSON result line.  Host speed is
sampled throughout (``benchstats.SpeedSampler``), so times are also given in
reference seconds.  With ``--trace`` the layer spans are installed before
anything is built and the result carries per-layer metrics; otherwise the
only wrapper is the timer on the workload's verdict call.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time

import benchstats
import spans


def time_calls(module: str, owner: str, attr: str, samples: list[float], sampler) -> None:
    """Append the duration (s) of every call of ``owner.attr`` to *samples*.

    Time the speed sampler's handler spent inside a call is not the call's.
    """
    cls = getattr(importlib.import_module(module), owner)
    fn = getattr(cls, attr)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        spent = sampler.spent
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(clock() - start - (sampler.spent - spent))

    setattr(cls, attr, timed)


def traced_metrics(tracer, passes: list[dict]) -> dict:
    """Per-layer metrics over the timed passes; counts from the first one."""
    wall = sum(p["ns"] for p in passes)
    lo, hi = passes[0]["spans"][0], passes[-1]["spans"][1]
    metrics = spans.layer_metrics(tracer, spans.summarize(tracer, lo, hi), wall)
    first = spans.layer_metrics(tracer, spans.summarize(tracer, *passes[0]["spans"]), passes[0]["ns"])
    for name in [*spans.COUNTED_SITES, *spans.COUNTED_LAYERS]:
        metrics[name] = first[name]
    metrics["middlebox.timer.cancel_ratio"] = first["middlebox.timer.cancel_ratio"]
    metrics.update(passes[0]["counters"])
    metrics["netsim.packets"] = passes[0]["netsim_packets"]
    metrics.update(passes[0]["counts"])
    judged = [ns / 1e6 for ns in spans.durations(tracer, "core.judge", lo, hi)]
    if judged:
        metrics["core.judge.p50_ms"] = benchstats.percentile(judged, 50)
        metrics["core.judge.p99_ms"] = benchstats.percentile(judged, 99)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args()

    sampler = benchstats.SpeedSampler()
    with sampler:
        return measure(args, sampler)


def measure(args, sampler) -> int:
    setup = sampler.mark()
    samples: list[float] = []
    tracer = counters = None
    if args.trace:
        tracer = spans.Tracer()
        counters, missing = spans.install(tracer)
        for target in missing:
            print(f"perfbench: not traced (missing): {target}", file=sys.stderr)

    import workloads

    kind = workloads.WORKLOADS[args.workload]
    if tracer is None:
        time_calls(*kind.verdict_call, samples, sampler)
    workload = kind(args.seed)
    workload.setup()
    # Set-up's speed factor and the handler time inside it, for run.py.
    print(f"ready {sampler.factor(setup)} {sampler.spent - setup[1]}", flush=True)
    if args.setup_only:
        return 0

    from repro.netsim.path import packets_propagated

    # Engines built in set-up live on (the judge's ladder); a pass's own are
    # dropped after it, once their counts are in.
    kept = counters.mark() if counters is not None else None
    checks = [workload.run_pass()]  # warm-up: untimed, still checked
    if counters is not None:
        counters.forget_since(kept)
    passes = []
    timed: list[float] = []  # verdict times, reference seconds
    begin = time.perf_counter()
    while time.perf_counter() - begin < args.seconds:
        # Every pass starts from the same collector state: the garbage of the
        # last pass goes now, untimed, not at a random point of this one.
        gc.collect()
        mark = len(tracer) if tracer is not None else 0
        samples.clear()
        sent = packets_propagated()
        before = counters.read() if counters is not None else None
        speed = sampler.mark()
        start = time.perf_counter_ns()
        result = workload.run_pass()
        elapsed = time.perf_counter_ns() - start
        factor = sampler.factor(speed)
        ref = sampler.net(speed, elapsed / 1e9) * factor
        timed.extend(t * factor for t in samples)
        checks.append(result)
        record = {"ns": elapsed, "ref_s": ref, "packets": result["packets"], "counts": result["counts"]}
        if tracer is not None:
            record.update(
                spans=(mark, len(tracer)),
                counters={k: v - before[k] for k, v in counters.read().items()},
                netsim_packets=packets_propagated() - sent,
            )
            counters.forget_since(kept)
        passes.append(record)

    packets = {c["packets"] for c in checks}
    pinned = kind.packets_per_pass
    report = {
        "attempted": sum(c["attempted"] for c in checks),
        "failed": sum(c["failed"] for c in checks),
        "packets_repeat": len(packets) == 1 and (pinned is None or packets == {pinned}),
        "packets": sorted(packets),
        "passes": len(passes),
        "pass_ref_s": [p["ref_s"] for p in passes],
        "pkt_per_s": statistics.median(p["packets"] / p["ref_s"] for p in passes),
        "host_pkt_per_s": statistics.median(p["packets"] * 1e9 / p["ns"] for p in passes),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is None:
        rate = getattr(kind, "arrival_rate", None)
        if rate is not None:
            arrivals = random.Random(args.seed)
            timed = benchstats.queue_latencies(timed, [arrivals.expovariate(rate) for _ in timed])
        report["verdicts"] = len(timed)
        report["verdict_p50_ms"] = benchstats.percentile(timed, 50) * 1e3
        report["verdict_p99_ms"] = benchstats.percentile(timed, 99) * 1e3
    else:
        report["layers"] = traced_metrics(tracer, passes)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
