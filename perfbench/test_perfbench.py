"""Tests for the benchmark's own arithmetic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import math
import time

import pytest

import benchstats
import spans


class FakeClock:
    """A clock the test advances by hand (ns)."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def traced_tree():
    """A synthetic nested call tree with same-layer re-entry.

    netsim.send (0..100)
      ├─ netsim.send (re-entry, 10..30)      -> folded into the outer span
      │    └─ middlebox.process (15..25)
      └─ middlebox.process (40..90)
           ├─ timer.schedule (45..50)
           └─ netsim.send (60..80)            -> nested, not direct re-entry
    """
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def at(t, fn):
        def step(*args):
            clock.now = t
            return fn(*args)

        return step

    schedule = tracer.wrap("middlebox.timer", "schedule", lambda: clock.__setattr__("now", 50))

    def inner_send():
        clock.now = 80

    nested_send = tracer.wrap("netsim", "send", inner_send)

    def process_b():
        at(45, schedule)()
        at(60, nested_send)()
        clock.now = 90

    def process_a():
        clock.now = 25

    process_a_w = tracer.wrap("middlebox", "process", process_a)
    process_b_w = tracer.wrap("middlebox", "process", process_b)

    def reentry():
        at(15, process_a_w)()
        clock.now = 30

    reentry_w = tracer.wrap("netsim", "send", reentry)

    def outer():
        at(10, reentry_w)()
        at(40, process_b_w)()
        clock.now = 100

    at(0, tracer.wrap("netsim", "send", outer))()
    return tracer


def test_self_time_on_nested_tree_with_reentry():
    tracer = traced_tree()
    summary = spans.summarize(tracer)
    # Outer netsim 100 minus children process_a (10) and process_b (50) = 40,
    # plus the nested netsim span inside process_b (20).
    assert summary["self_ns"]["netsim"] == 40 + 20
    # process_a 10; process_b 50 - timer 5 - nested netsim 20 = 25.
    assert summary["self_ns"]["middlebox"] == 10 + 25
    assert summary["self_ns"]["middlebox.timer"] == 5
    # Self times partition the root span exactly.
    assert sum(summary["self_ns"].values()) == 100
    # The direct re-entry is one span, not two; the nested send is its own.
    assert summary["calls"]["netsim"] == 2
    assert summary["calls"]["middlebox"] == 2
    # Busy time counts the outer netsim span only (the nested one is inside it).
    assert summary["busy_ns"]["netsim"] == 100
    assert summary["busy_ns"]["middlebox"] == 60


def test_self_times_subtracts_only_direct_children():
    # 0 ─ 1 ─ 2, durations 100, 60, 25.
    assert spans.self_times([-1, 0, 1], [100, 60, 25]) == [40, 35, 25]


def test_layer_shares_sum_to_at_most_one():
    tracer = traced_tree()
    metrics = spans.layer_metrics(tracer, spans.summarize(tracer), wall_ns=125)
    shares = [v for k, v in metrics.items() if k.endswith(".share") and k != "unattributed.share"]
    assert sum(shares) == pytest.approx(100 / 125)
    assert metrics["unattributed.share"] == pytest.approx(25 / 125)
    assert metrics["middlebox.timer.arms"] == 1


def test_span_left_by_exception_is_closed():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.now = 7
        raise ValueError

    wrapped = tracer.wrap("replay", "run", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert (tracer.start[0], tracer.end[0]) == (0, 7)
    assert not tracer._open


def test_percentile_nearest_rank():
    samples = [float(i) for i in range(1, 1001)]
    assert benchstats.percentile(samples, 50) == 500.0
    assert benchstats.percentile(samples, 99) == 990.0


def test_percentile_refuses_tail_without_ten_samples_beyond():
    with pytest.raises(benchstats.InsufficientSamples):
        benchstats.percentile([1.0] * 999, 99)
    assert benchstats.percentile([1.0] * 1000, 99) == 1.0
    with pytest.raises(benchstats.InsufficientSamples):
        benchstats.percentile([], 50)


def test_failed_flows_count_against_attempts_and_miss_latency():
    ok = [{"status": "ok", "latency_s": 0.001}] * 990
    failed = [
        {"status": "refused", "latency_s": None},
        {"status": "unanswered", "latency_s": None},
        {"status": "reset", "latency_s": None},
        {"status": "shed", "latency_s": 0.0005},
        {"status": "wrong", "latency_s": 0.0005},
    ] * 2
    attempted, failures, latencies = benchstats.flow_latencies(ok + failed)
    assert (attempted, failures) == (1000, 10)
    assert benchstats.percentile(latencies, 50) == 0.001
    # Ten misses sit exactly beyond p99: the tail is a failure, not a fast
    # shed answer.
    assert benchstats.percentile(latencies, 99) == 0.001
    attempted, failures, latencies = benchstats.flow_latencies(ok + failed + failed[:1])
    assert math.isinf(benchstats.percentile(latencies, 99))


def test_sampler_takes_out_handler_time_and_scales_by_speed():
    sampler = benchstats.SpeedSampler()
    mark = sampler.mark()
    # The host ran the loop at half the reference speed, and the handler
    # spent 0.1 s of the measured stretch.
    sampler.samples += [2 * benchstats.CALIBRATION_REF_S] * 3
    sampler.spent += 0.1
    assert sampler.factor(mark) == pytest.approx(0.5)
    assert sampler.net(mark, 1.1) == pytest.approx(1.0)
    # With no sample since the mark, the latest ones stand in.
    assert sampler.factor(sampler.mark()) == pytest.approx(0.5)


def test_sampler_samples_inside_the_process():
    with benchstats.SpeedSampler(interval=0.005, n=100) as sampler:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert sampler.samples and sampler.spent > 0
    assert benchstats.to_reference(1.0, benchstats.CALIBRATION_REF_S) == 1.0


def test_queue_latencies_follow_lindley():
    # Jobs of 2 s arriving 1 s apart queue up; a 5 s gap drains the queue.
    assert benchstats.queue_latencies([2.0, 2.0, 2.0, 1.0], [0.0, 1.0, 1.0, 5.0]) == [2.0, 3.0, 4.0, 1.0]


def test_quartile_spread():
    assert benchstats.quartile_spread([10.0] * 10) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 9.0, 10.0, 10.0, 10.0, 11.0]
    assert benchstats.quartile_spread(values) == pytest.approx(0.05)
