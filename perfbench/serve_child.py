"""Run ``liberate serve`` as it ships, optionally traced, until SIGINT.

Usage::

    python3 perfbench/serve_child.py --out DIR --cpu C [--trace] -- <serve arguments>

The server is pinned to CPU C and started through the CLI entry point with
the given arguments.  Until it listens, host speed is sampled
(``benchstats.SpeedSampler``) so that set-up time can be given in reference
seconds; sampling stops before the first flow.
With ``--trace`` the layer spans are installed first; after the server stops
the spans are written to ``DIR/serve-spans.tsv``.  At exit the interpreter's
own peak RSS, the set-up speed factor and, when traced, the per-layer
metrics are written to ``DIR/serve-report.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

import benchstats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]
    os.sched_setaffinity(0, {args.cpu})

    sampler = benchstats.SpeedSampler().__enter__()
    setup = sampler.mark()
    report: dict = {}
    baseline: dict = {}
    tracer = counters = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        counters, missing = spans.install(tracer)
        for target in missing:
            print(f"perfbench: not traced (missing): {target}", file=sys.stderr)

    from repro.core.proxy_server import ProxyServer
    from repro.netsim.path import packets_propagated

    start = ProxyServer.start

    async def start_and_mark(server, *a, **k):
        # Everything before listening is set-up: stop sampling before the
        # first flow, and count layer work from here on.
        sampler.__exit__()
        report["setup_factor"] = sampler.factor(setup)
        report["setup_spent"] = sampler.spent - setup[1]
        if tracer is not None:
            baseline.update(counters.read(), packets=packets_propagated(), span=len(tracer))
        return await start(server, *a, **k)

    ProxyServer.start = start_and_mark

    from repro.cli.main import main as cli_main

    code = cli_main(["serve", *serve_args])

    if tracer is not None:
        lo = baseline.get("span", 0)
        judge = [
            (tracer.tags[i], tracer.end[i] - tracer.start[i])
            for i in range(lo, len(tracer))
            if i in tracer.tags
        ]
        first = tracer.start[lo] if len(tracer) > lo else 0
        last = max(tracer.end[lo:], default=first)
        metrics = spans.layer_metrics(tracer, spans.summarize(tracer, lo), last - first)
        metrics.update({k: v - baseline.get(k, 0) for k, v in counters.read().items()})
        metrics["netsim.packets"] = packets_propagated() - baseline.get("packets", 0)
        report.update(metrics=metrics, judge_ns=judge)
        tracer.write(os.path.join(args.out, "serve-spans.tsv"))
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(args.out, "serve-report.json"), "w", encoding="utf-8") as out:
        json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
