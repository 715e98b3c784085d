"""One netsim driver, two entry points: byte-identical or the driver is wrong.

``Path._propagate`` is the only frame executor.  A frame enters it either
*now* (``send_from_client`` / ``send_from_server``) or *at a virtual time*
(``schedule_from_client`` / ``schedule_from_server``, drained by the path's
:class:`~repro.netsim.scheduler.EventScheduler`).  A frame scheduled with
zero delay and drained at once must be indistinguishable from one sent now:
these tests run the same work both ways and require *byte-identical*
observables — endpoint payloads, tap bytes, trace JSONL, the propagation
counter and the clock.  Both sides attach a scheduler and move time with
``scheduler.advance``, so reassembly expiry timers behave identically and
only the entry point differs.

The hypothesis mixes cover the hard cases on one path: fragments held
across sends, seeded faults (loss/duplication/reordering/corruption),
retransmits, and reassembly flush timers driven by clock advances.  At the
pipeline level, a Table 3 column must give the same verdicts, trace,
metrics and telemetry on the serial, thread and process backends.
"""

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.evasion import ALL_TECHNIQUES
from repro.experiments.table3 import run_table3
from repro.netsim.clock import VirtualClock
from repro.netsim.element import PacketTap
from repro.netsim.faults import FaultElement, chaos_profile, lossy_profile
from repro.netsim.hop import RouterHop
from repro.netsim.path import Path, packets_propagated
from repro.netsim.reassembler import FragmentReassembler
from repro.netsim.scheduler import EventScheduler
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.packets.fragment import fragment_packet
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPSegment
from repro.runtime import WorkerPool

settings_kwargs = dict(
    deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow]
)

# One op per element: payload sends, fragment trains, retransmits of the
# previous packet, server pushes, and virtual-time advances (flush timers).
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("payload"), st.integers(1, 300)),
        st.tuples(st.just("fragments"), st.integers(30, 300)),
        st.tuples(st.just("retransmit"), st.just(0)),
        st.tuples(st.just("server_push"), st.integers(1, 120)),
        st.tuples(st.just("advance"), st.integers(0, 20)),
    ),
    min_size=1,
    max_size=30,
)

FAULT_PROFILES = {"clean": None, "lossy": lossy_profile, "chaos": chaos_profile}


class _AckingServer:
    """Server endpoint: records payloads, acks every other packet."""

    def __init__(self):
        self.received: list[bytes] = []

    def receive(self, packet: IPPacket) -> list[IPPacket]:
        self.received.append(packet.payload_bytes)
        if len(self.received) % 2 == 0:
            return []
        return [
            IPPacket(
                src=packet.dst,
                dst=packet.src,
                transport=TCPSegment(sport=80, dport=packet.tcp.sport, payload=b"ack"),
            )
        ]


class _RecordingClient:
    def __init__(self):
        self.received: list[bytes] = []

    def receive(self, packet: IPPacket) -> list[IPPacket]:
        self.received.append(packet.payload_bytes)
        return []


def _packet(seq: int, size: int, sport: int = 4000) -> IPPacket:
    body = bytes((seq + i) % 251 for i in range(size))
    return IPPacket(
        src="10.0.0.1",
        dst="10.0.0.2",
        transport=TCPSegment(sport=sport, dport=80, payload=body),
        identification=0x3000 + seq,
    )


def _entry_points(path: Path, scheduled: bool):
    """The (client, server) send functions for one entry point.

    ``scheduled`` posts each frame with zero delay and drains the path's
    scheduler up to now, which must equal sending it directly.
    """
    if not scheduled:
        return path.send_from_client, path.send_from_server

    def from_client(packet: IPPacket) -> None:
        path.schedule_from_client(packet, delay=0.0)
        path.run(until=path.clock.now)

    def from_server(packet: IPPacket) -> None:
        path.schedule_from_server(packet, delay=0.0)
        path.run(until=path.clock.now)

    return from_client, from_server


def run_mix(ops, fault: str, scheduled: bool) -> dict:
    """Run one flow mix; return every observable as comparable bytes/values."""
    clock = VirtualClock()
    tap = PacketTap()
    profile = FAULT_PROFILES[fault]
    elements = [RouterHop("r1"), RouterHop("r2")]
    if profile is not None:
        elements.append(FaultElement(profile(seed=7)))
    elements += [FragmentReassembler(timeout=0.5), tap]
    path = Path(clock, elements, scheduler=EventScheduler(clock))
    server, client = _AckingServer(), _RecordingClient()
    path.server_endpoint = server
    path.client_endpoint = client
    send_from_client, send_from_server = _entry_points(path, scheduled)

    before = packets_propagated()
    with obs_trace.tracing() as tracer:
        last: IPPacket | None = None
        for seq, (op, arg) in enumerate(ops):
            if op == "payload":
                last = _packet(seq, arg)
                send_from_client(last)
            elif op == "fragments":
                whole = _packet(seq, arg)
                for fragment in fragment_packet(whole, 32):
                    send_from_client(fragment)
                last = whole
            elif op == "retransmit" and last is not None:
                send_from_client(last)
            elif op == "server_push":
                send_from_server(
                    IPPacket(
                        src="10.0.0.2",
                        dst="10.0.0.1",
                        transport=TCPSegment(sport=80, dport=4000, payload=b"p" * arg),
                    )
                )
            elif op == "advance":
                path.scheduler.advance(arg / 10.0)
    return {
        "server": server.received,
        "client": client.received,
        "tap": [(r.time, r.direction.value, r.packet.to_bytes()) for r in tap.records],
        "trace": "\n".join(e.to_json() for e in tracer.events()),
        "propagated": packets_propagated() - before,
        "clock": clock.now,
    }


class TestFlowMixes:
    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_clean_path_mixes_are_byte_identical(self, ops):
        assert run_mix(ops, "clean", scheduled=False) == run_mix(ops, "clean", scheduled=True)

    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_lossy_path_mixes_are_byte_identical(self, ops):
        assert run_mix(ops, "lossy", scheduled=False) == run_mix(ops, "lossy", scheduled=True)

    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_chaos_path_mixes_are_byte_identical(self, ops):
        assert run_mix(ops, "chaos", scheduled=False) == run_mix(ops, "chaos", scheduled=True)


# ----------------------------------------------------------------------
# pipeline level: verdicts + trace + metrics + telemetry, across backends
# ----------------------------------------------------------------------
_TECH_NAMES = ("tcp-segment-split", "tcp-invalid-data-offset")


def run_cells(backend: str) -> dict:
    """One table3 column under full observability, as comparable strings."""
    techniques = tuple(t for t in ALL_TECHNIQUES if t.name in _TECH_NAMES)
    pool = WorkerPool(backend)
    with obs_trace.tracing() as tracer, obs_metrics.collecting() as registry, obs_live.bus_on() as bus:
        rows = run_table3(
            env_names=("testbed",),
            techniques=techniques,
            include_os_matrix=False,
            characterize=False,
            pool=pool,
        )
        events = io.StringIO()
        bus.export_jsonl(events)
    # mbx.automaton.* / mbx.rulecache.* are per-process memoized-build facts
    # (which worker compiles what depends on scheduling and cache warmth),
    # excluded from the cross-backend identity contract exactly as in
    # tests/test_obs_live.py.
    snapshot = {
        k: v
        for k, v in registry.snapshot().items()
        if not k.startswith(("mbx.automaton.", "mbx.rulecache."))
    }
    return {
        "verdicts": json.dumps(rows, sort_keys=True, default=str),
        "trace": "\n".join(e.to_json() for e in tracer.events()),
        "metrics": json.dumps(snapshot, sort_keys=True, default=str),
        "events": events.getvalue(),
    }


@pytest.fixture(scope="module")
def serial_cells() -> dict:
    return run_cells("serial")


class TestPipelineEquivalence:
    def test_serial_rerun_matches_serial(self, serial_cells):
        assert run_cells("serial") == serial_cells

    def test_thread_matches_serial(self, serial_cells):
        assert run_cells("thread") == serial_cells

    def test_process_matches_serial(self, serial_cells):
        assert run_cells("process") == serial_cells


# ----------------------------------------------------------------------
# deferred entry point: what only scheduling can express
# ----------------------------------------------------------------------
class TestDeferredDriver:
    def test_scheduled_frames_interleave_in_deadline_order(self):
        class _Journal:
            def __init__(self):
                self.flows = []

            def receive(self, pkt):
                self.flows.append((pkt.tcp.sport, pkt.tcp.payload[0]))
                return []

        clock = VirtualClock()
        path = Path(clock, [PacketTap()], scheduler=EventScheduler(clock))
        journal = _Journal()
        path.server_endpoint = journal
        # Flow A at t=0.00/0.02, flow B at t=0.01/0.03: strict alternation.
        path.schedule_from_client(_packet(0, 10, sport=1111), at=0.00)
        path.schedule_from_client(_packet(1, 10, sport=1111), at=0.02)
        path.schedule_from_client(_packet(2, 10, sport=2222), at=0.01)
        path.schedule_from_client(_packet(3, 10, sport=2222), at=0.03)
        assert path.run() == 4
        assert journal.flows == [(1111, 0), (2222, 2), (1111, 1), (2222, 3)]
        assert clock.now == 0.03

    def test_scheduled_frame_can_be_cancelled(self):
        clock = VirtualClock()
        path = Path(clock, [], scheduler=EventScheduler(clock))
        server = _RecordingClient()
        path.server_endpoint = server
        keep = path.schedule_from_client(_packet(0, 4), delay=0.1)
        drop = path.schedule_from_client(_packet(1, 4), delay=0.2)
        assert path.scheduler.cancel(drop)
        path.run()
        assert len(server.received) == 1

    def test_reassembler_native_timer_expires_without_a_probe_packet(self):
        # In deferred mode nothing may ever poke the reassembler again; the
        # scheduler-armed timer must expire the partial datagram on its own.
        clock = VirtualClock()
        reassembler = FragmentReassembler(timeout=0.5)
        path = Path(clock, [reassembler], scheduler=EventScheduler(clock))
        server = _RecordingClient()
        path.server_endpoint = server
        first, *_rest = fragment_packet(_packet(0, 120), 32)
        path.send_from_client(first)  # incomplete: held
        assert reassembler.expired_count == 0
        path.scheduler.advance(1.0)
        assert reassembler.expired_count == 1
        assert server.received == []

    def test_reassembler_native_timer_cancelled_on_completion(self):
        clock = VirtualClock()
        reassembler = FragmentReassembler(timeout=0.5)
        path = Path(clock, [reassembler], scheduler=EventScheduler(clock))
        server = _RecordingClient()
        path.server_endpoint = server
        for fragment in fragment_packet(_packet(0, 120), 32):
            path.send_from_client(fragment)
        assert len(server.received) == 1  # reassembled and delivered
        path.scheduler.advance(2.0)
        assert reassembler.expired_count == 0  # timer was disarmed
        assert path.scheduler.pending == 0
