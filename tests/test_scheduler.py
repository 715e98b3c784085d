"""EventScheduler: the deterministic event queue, checked against an oracle.

The scheduler's contract is "fire exactly what a brute-force scan over
pending events would, in (deadline, seq) order, never moving the clock
backwards".  The property tests drive random schedule/cancel/advance
sequences through the scheduler and a sorted-list reference; the edge
tests pin the zero-delay guarantee — a zero-delay event fires in the
drain already in progress, and ``advance(0)`` drains everything due *now*
instead of parking it for the next tick.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim.clock import VirtualClock
from repro.netsim.scheduler import EventScheduler

settings_kwargs = dict(
    deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow]
)

# (kind, a): schedule at now + a/10 (negative = in the past), cancel the
# a-th live event, or advance the clock by a/10.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(-10, 600)),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("advance"), st.integers(0, 90)),
    ),
    max_size=60,
)


def run_differential(ops):
    """Replay *ops* on a scheduler and a brute-force pending dict."""
    clock = VirtualClock()
    scheduler = EventScheduler(clock)
    fired: list[int] = []
    pending: dict[int, float] = {}  # payload (doubles as seq) -> deadline
    ids: dict[int, int] = {}
    seq = 0
    for op, arg in ops:
        if op == "schedule":
            deadline = clock.now + arg / 10.0
            ids[seq] = scheduler.at(deadline, fired.append, seq)
            pending[seq] = deadline
            seq += 1
        elif op == "cancel":
            live = sorted(pending)
            if live:
                victim = live[arg % len(live)]
                assert scheduler.cancel(ids[victim]) is True
                assert scheduler.cancel(ids[victim]) is False
                del pending[victim]
        else:
            target = clock.now + arg / 10.0
            fired.clear()
            scheduler.advance(arg / 10.0)
            expect = [
                p
                for p, d in sorted(pending.items(), key=lambda kv: (kv[1], kv[0]))
                if d <= target
            ]
            assert fired == expect
            assert clock.now == target  # lands exactly, even past the last event
            for payload in expect:
                del pending[payload]
        assert scheduler.pending == len(pending)
    return scheduler, pending, fired


class TestAgainstBruteForce:
    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_fires_exactly_the_due_set_in_deadline_seq_order(self, ops):
        run_differential(ops)

    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_no_event_loss(self, ops):
        scheduler, pending, _fired = run_differential(ops)
        assert scheduler.scheduled == scheduler.fired + scheduler.cancelled + len(pending)

    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_run_until_idle_drains_survivors_in_order(self, ops):
        scheduler, pending, fired = run_differential(ops)
        fired.clear()
        scheduler.run()
        expected = [
            p for p, _d in sorted(pending.items(), key=lambda kv: (kv[1], kv[0]))
        ]
        assert fired == expected
        assert scheduler.pending == 0

    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_clock_is_monotone_through_any_drain(self, ops):
        clock = VirtualClock()
        scheduler = EventScheduler(clock)
        observed: list[float] = []
        for op, arg in ops:
            if op == "schedule":
                scheduler.at(clock.now + arg / 10.0, lambda: observed.append(clock.now))
            elif op == "advance":
                scheduler.advance(arg / 10.0)
        scheduler.run()
        assert observed == sorted(observed)


class TestZeroDelay:
    """The fix for "advance(0) accepted but zero-delay fires next tick"."""

    def test_advance_zero_drains_due_now(self):
        clock = VirtualClock(start=5.0)
        scheduler = EventScheduler(clock)
        fired = []
        scheduler.at(clock.now, fired.append, "now")
        assert scheduler.advance(0) == 1
        assert fired == ["now"]
        assert clock.now == 5.0

    def test_zero_delay_from_inside_a_handler_fires_in_the_same_drain(self):
        clock = VirtualClock()
        scheduler = EventScheduler(clock)
        fired = []

        def outer():
            fired.append("outer")
            scheduler.at(clock.now, lambda: fired.append("inner"))

        scheduler.at(clock.now, outer)
        assert scheduler.run(until=scheduler.now) == 2
        assert fired == ["outer", "inner"]

    def test_zero_delay_events_fire_fifo(self):
        clock = VirtualClock()
        scheduler = EventScheduler(clock)
        fired = []
        scheduler.at(clock.now, fired.append, "a")
        scheduler.at(clock.now, fired.append, "b")
        scheduler.advance(0)
        assert fired == ["a", "b"]  # FIFO at the same deadline

    def test_virtualclock_accepts_zero_advance(self):
        clock = VirtualClock(start=2.0)
        clock.advance(0)
        assert clock.now == 2.0


class TestEdgeSemantics:
    def test_past_deadline_fires_without_rewinding_the_clock(self):
        clock = VirtualClock(start=10.0)
        scheduler = EventScheduler(clock)
        stamps = []
        scheduler.at(3.0, lambda: stamps.append(clock.now))
        scheduler.run()
        assert stamps == [10.0]

    def test_negative_advance_rejected(self):
        scheduler = EventScheduler(VirtualClock())
        with pytest.raises(ValueError):
            scheduler.advance(-1.0)

    def test_same_deadline_fires_in_schedule_order(self):
        scheduler = EventScheduler(VirtualClock())
        fired = []
        for name in ("first", "second", "third"):
            scheduler.at(1.0, fired.append, name)
        scheduler.run()
        assert fired == ["first", "second", "third"]

    def test_cancel_and_rearm(self):
        clock = VirtualClock()
        scheduler = EventScheduler(clock)
        fired = []
        stale = scheduler.at(1.0, fired.append, "stale")
        assert scheduler.cancel(stale) is True
        rearmed = scheduler.at(2.0, fired.append, "rearmed")
        scheduler.run()
        assert fired == ["rearmed"]
        assert clock.now == 2.0
        assert scheduler.cancel(rearmed) is False  # already fired

    def test_next_deadline_skips_tombstones(self):
        clock = VirtualClock()
        scheduler = EventScheduler(clock)
        fired = []
        first = scheduler.at(1.0, fired.append, "first")
        scheduler.at(2.0, fired.append, "second")
        scheduler.cancel(first)
        assert scheduler.run(limit=1) == 1
        assert fired == ["second"]
        assert clock.now == 2.0

    def test_step_fires_one_event(self):
        scheduler = EventScheduler(VirtualClock())
        fired = []
        scheduler.at(1.0, fired.append, "a")
        scheduler.at(2.0, fired.append, "b")
        assert scheduler.run(limit=1) == 1
        assert fired == ["a"]
        assert scheduler.run(limit=1) == 1
        assert scheduler.run(limit=1) == 0

    def test_run_limit_bounds_self_posting_loops(self):
        scheduler = EventScheduler(VirtualClock())

        def reproduce():
            scheduler.at(scheduler.now, reproduce)

        scheduler.at(scheduler.now, reproduce)
        assert scheduler.run(limit=25) == 25
        assert scheduler.pending == 1  # the next generation survives

    def test_reentrant_run_is_a_noop(self):
        scheduler = EventScheduler(VirtualClock())
        inner_counts = []

        def handler():
            inner_counts.append(scheduler.run())

        scheduler.at(scheduler.now, handler)
        assert scheduler.run() == 1
        assert inner_counts == [0]

    def test_run_until_is_inclusive(self):
        scheduler = EventScheduler(VirtualClock())
        fired = []
        scheduler.at(1.0, fired.append, "at-horizon")
        scheduler.at(1.0000001, fired.append, "beyond")
        assert scheduler.run(until=1.0) == 1
        assert fired == ["at-horizon"]

    def test_stats_counters(self):
        scheduler = EventScheduler(VirtualClock())
        a = scheduler.at(1.0, lambda: None)
        scheduler.at(2.0, lambda: None)
        scheduler.cancel(a)
        scheduler.run()
        assert (scheduler.scheduled, scheduler.fired, scheduler.cancelled) == (2, 1, 1)
        assert scheduler.max_pending == 2


class TestPathScheduler:
    def test_scheduler_is_created_by_the_first_scheduled_frame(self):
        from repro.netsim.path import Path
        from repro.packets.ip import IPPacket
        from repro.packets.tcp import TCPSegment

        path = Path(VirtualClock(), [])
        path.send_from_client(IPPacket(src="10.0.0.1", dst="10.0.0.2", transport=TCPSegment()))
        assert path.scheduler is None  # sending now never needs a queue
        path.schedule_from_client(
            IPPacket(src="10.0.0.1", dst="10.0.0.2", transport=TCPSegment()), delay=0.5
        )
        assert path.scheduler is not None and path.scheduler.pending == 1
        assert path.run() == 1
        assert path.clock.now == 0.5
