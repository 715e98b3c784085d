"""The benchmark's own arithmetic: percentiles, failure accounting, spread,
and the calibration that turns host seconds into reference seconds.

Host speed on a shared machine drifts by 2x and more, from one second to the
next and separately on each CPU, so raw times spread by 40% between runs.
Every end-to-end time is therefore divided by the speed of a fixed
pure-Python loop (:func:`calibrate`) timed on the same CPU at the same time,
and multiplied by the loop's time on a reference host.  A time in reference
seconds is what the work would have taken on that host: drift cancels,
changes to the program do not, because the loop runs no program code.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
import zlib

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: The status of a served flow that got the right verdict; any other status
#: ("refused", "reset", "shed", "unanswered", "wrong") is a failure.
OK = "ok"


#: Iterations of one :func:`calibrate` call, and its duration on the
#: reference host (a quiet 2-core x86-64 container, CPython 3.11).
CALIBRATION_N = 20_000
CALIBRATION_REF_S = 0.009


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def calibrate(n: int = CALIBRATION_N, clock=time.perf_counter) -> float:
    """Seconds (by *clock*) a fixed mix of call, dict, int and bytes work takes.

    It allocates nothing the garbage collector tracks, so running it inside
    a measured process does not move that process's collections or peak RSS.
    """
    started = clock()
    table: dict[int, int] = {}
    acc = 0
    buf = bytearray()
    for i in range(n):
        key = i & 1023
        table[key] = _mix(table.get(key, 0), i)
        buf += i.to_bytes(4, "big")
        if len(buf) > 4096:
            acc ^= zlib.crc32(buf)
            buf.clear()
    return clock() - started


def to_reference(seconds: float, calibration: float) -> float:
    """*seconds* of host time in reference seconds, given the host's calibration time."""
    return seconds * CALIBRATION_REF_S / calibration


class SpeedSampler:
    """Samples host speed inside the measured process while it works.

    Every *interval* seconds a SIGALRM handler times a short calibration
    loop, so the samples cover the whole measured stretch, not just its
    ends.  ``spent`` accumulates the handler's own time, which callers take
    out of what they measure.  Samples are scaled to one full calibration.
    """

    def __init__(self, interval: float = 0.025, n: int = 1_000) -> None:
        self.interval = interval
        self.n = n
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        took = calibrate(self.n)
        self.samples.append(took * CALIBRATION_N / self.n)
        self.spent += took

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def factor(self, mark: tuple[int, float]) -> float:
        """Reference seconds per host second over the stretch since *mark*."""
        recent = self.samples[mark[0]:] or self.samples[-4:]
        return CALIBRATION_REF_S / statistics.mean(recent)

    def net(self, mark: tuple[int, float], seconds: float) -> float:
        """*seconds* measured since *mark*, less the handler's time."""
        return seconds - (self.spent - mark[1])


class InsufficientSamples(ValueError):
    """Too few samples for the requested percentile."""


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank *q*-th percentile, enforcing the sample-count rule.

    The q-th percentile of n samples has ``n * (100 - q) / 100`` samples
    beyond it; fewer than :data:`MIN_TAIL_SAMPLES` there and the value is one
    or two unlucky samples, so it is refused rather than reported.
    ``inf`` samples (failed operations) sort last.
    """
    n = len(samples)
    beyond = n * (100.0 - q) / 100.0
    if n == 0 or (q > 50 and beyond < MIN_TAIL_SAMPLES):
        raise InsufficientSamples(
            f"p{q:g} needs {math.ceil(MIN_TAIL_SAMPLES * 100 / (100 - q))} samples, have {n}"
        )
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    return ordered[rank - 1]


def flow_latencies(flows: list[dict]) -> tuple[int, int, list[float]]:
    """(attempted, failed, latencies) over served-flow records.

    Each record has a ``status`` and, when answered, ``latency_s`` measured
    from the flow's scheduled send time.  A failed flow — refused, reset,
    shed, unanswered or wrongly judged — counts against the attempts and
    enters the latency sample as ``inf``: it misses any latency limit.
    """
    latencies = []
    failed = 0
    for flow in flows:
        if flow["status"] == OK:
            latencies.append(flow["latency_s"])
        else:
            failed += 1
            latencies.append(math.inf)
    return len(flows), failed, latencies


def queue_latencies(services: list[float], gaps: list[float]) -> list[float]:
    """Latency of each job through one FIFO server (Lindley's recursion).

    Job *i* arrives ``gaps[i]`` after job *i - 1* and needs ``services[i]``
    of the server; its latency is its wait plus its service.
    """
    latencies = []
    wait = 0.0
    for i, service in enumerate(services):
        if i:
            wait = max(0.0, wait + services[i - 1] - gaps[i])
        latencies.append(wait + service)
    return latencies


def quartile_spread(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
