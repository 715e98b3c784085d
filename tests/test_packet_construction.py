"""Packet construction and flow-key interning.

The packet dataclasses are built by the ``__init__`` that
``install_wire_cache`` generates: it must behave exactly like the
dataclass-generated constructor while running no Python-level hook, and the
cache-invalidating ``__setattr__`` must still apply to every assignment made
after construction.  The flow-key interns must stay bounded, keep identity
within one generation, and survive concurrent use from threads.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle
import sys
import threading

import pytest

from repro.packets import flow
from repro.packets.flow import FiveTuple
from repro.packets.icmp import ICMPMessage
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.packets.udp import UDPDatagram

PACKET_CLASSES = (IPPacket, TCPSegment, UDPDatagram, ICMPMessage)

#: Cache slots per class, as passed to install_wire_cache.
CACHE_SLOTS = {
    IPPacket: ("_hdr0_cache", "_wire_cache", "_flow_cache"),
    TCPSegment: ("_wire0_cache", "_wire_cache", "_csum_cache"),
    UDPDatagram: ("_wire0_cache", "_wire_cache", "_csum_cache"),
    ICMPMessage: ("_wire_cache",),
}


def _sample(cls):
    if cls is IPPacket:
        return IPPacket("10.0.0.1", "10.0.0.2", TCPSegment(1234, 80, 7, 9, payload=b"GET /"))
    if cls is TCPSegment:
        return TCPSegment(1234, 80, 7, 9, flags=TCPFlags.ACK | TCPFlags.PSH, payload=b"hi")
    if cls is UDPDatagram:
        return UDPDatagram(53, 5353, payload=b"query")
    return ICMPMessage(icmp_type=11, payload=b"x" * 28)


def _warm_caches(obj) -> None:
    """Populate every cache slot of *obj* with a non-None value."""
    if isinstance(obj, IPPacket):
        obj.to_bytes()
        obj._header_zero()
        FiveTuple.of(obj)
    elif isinstance(obj, (TCPSegment, UDPDatagram)):
        obj.to_bytes("10.0.0.1", "10.0.0.2")
        object.__setattr__(obj, "checksum", 0xBEEF)
        obj.verify_checksum("10.0.0.1", "10.0.0.2")
        object.__setattr__(obj, "checksum", None)
    else:
        obj.to_bytes()


def _count_setattr_calls(build) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "__setattr__":
            calls += 1

    sys.setprofile(profile)
    try:
        build()
    finally:
        sys.setprofile(None)
    return calls


class TestNoConstructionHook:
    def test_construction_runs_no_setattr(self):
        def build_ip_tcp():
            segment = TCPSegment(1, 2, 3, 4, flags=0x12, payload=b"x")
            return IPPacket("10.0.0.1", "10.0.0.2", transport=segment)

        assert _count_setattr_calls(build_ip_tcp) == 0
        assert _count_setattr_calls(lambda: UDPDatagram(53, 53, payload=b"q")) == 0
        assert _count_setattr_calls(lambda: ICMPMessage(11, 0, payload=b"x")) == 0

    @pytest.mark.parametrize("cls", PACKET_CLASSES, ids=lambda c: c.__name__)
    def test_field_assignment_drops_every_cache_slot(self, cls):
        for f in dataclasses.fields(cls):
            obj = _sample(cls)
            _warm_caches(obj)
            for slot in CACHE_SLOTS[cls]:
                assert getattr(obj, slot) is not None, slot
            setattr(obj, f.name, getattr(obj, f.name))
            for slot in CACHE_SLOTS[cls]:
                assert getattr(obj, slot) is None, (f.name, slot)


class TestConstructorParity:
    @pytest.mark.parametrize("cls", PACKET_CLASSES, ids=lambda c: c.__name__)
    def test_signature_matches_fields(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        fields = dataclasses.fields(cls)
        assert [p.name for p in params] == [f.name for f in fields]
        for p, f in zip(params, fields):
            if f.default is dataclasses.MISSING:
                assert p.default is inspect.Parameter.empty
            else:
                assert p.default == f.default and type(p.default) is type(f.default)

    @pytest.mark.parametrize("cls", (TCPSegment, UDPDatagram), ids=lambda c: c.__name__)
    def test_port_range_validated(self, cls):
        for kwargs in ({"sport": -1}, {"dport": 0x10000}):
            with pytest.raises(ValueError):
                cls(**kwargs)
        cls(sport=0xFFFF, dport=0)

    def test_icmp_rest_must_be_four_bytes(self):
        for rest in (b"", b"\x00" * 3, b"\x00" * 5):
            with pytest.raises(ValueError):
                ICMPMessage(rest=rest)

    def test_tcp_coercions(self):
        seg = TCPSegment(1, 2, seq=-1, ack=(1 << 32) + 5, flags=0x12)
        assert type(seg.flags) is TCPFlags
        assert seg.flags == TCPFlags.SYN | TCPFlags.ACK
        assert seg.seq == 0xFFFFFFFF
        assert seg.ack == 5
        assert type(TCPSegment(flags=TCPFlags.FIN).flags) is TCPFlags

    @pytest.mark.parametrize("cls", PACKET_CLASSES, ids=lambda c: c.__name__)
    def test_eq_repr_replace_pickle(self, cls):
        a, b = _sample(cls), _sample(cls)
        assert a == b
        assert repr(a) == repr(b)
        _warm_caches(b)
        assert a == b  # cache slots are not dataclass fields
        first = dataclasses.fields(cls)[0].name
        assert dataclasses.replace(a) == a
        assert dataclasses.replace(a, **{first: getattr(a, first)}) == a
        restored = pickle.loads(pickle.dumps(b))
        assert restored == b
        assert restored.to_bytes() == b.to_bytes()

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TCPSegment(1, 2), sport=70000)
        assert dataclasses.replace(TCPSegment(1, 2), flags=0x01).flags is TCPFlags.FIN


def _flow_packet(index: int) -> IPPacket:
    return IPPacket(
        f"10.{(index >> 16) & 0xFF}.{(index >> 8) & 0xFF}.{index & 0xFF}",
        "203.0.113.50",
        TCPSegment(1024 + index % 50000, 80),
    )


@pytest.fixture
def fresh_interns():
    saved = dict(flow._KEY_INTERN), dict(flow._NORMALIZED_INTERN)
    flow._KEY_INTERN.clear()
    flow._NORMALIZED_INTERN.clear()
    yield
    flow._KEY_INTERN.clear()
    flow._NORMALIZED_INTERN.clear()
    flow._KEY_INTERN.update(saved[0])
    flow._NORMALIZED_INTERN.update(saved[1])


@pytest.mark.usefixtures("fresh_interns")
class TestFlowKeyInterns:
    def test_bounded_after_three_generations(self):
        for index in range(3 * flow._INTERN_LIMIT):
            FiveTuple.of(_flow_packet(index)).normalized()
        assert len(flow._KEY_INTERN) <= flow._INTERN_LIMIT
        assert len(flow._NORMALIZED_INTERN) <= flow._INTERN_LIMIT

    def test_identity_within_generation(self):
        request = _flow_packet(7)
        first = FiveTuple.of(request).normalized()
        for index in range(100):
            FiveTuple.of(_flow_packet(1000 + index)).normalized()
        # Same flow, other direction, fresh packet objects.
        reply = IPPacket(request.dst, request.src, TCPSegment(80, request.tcp.sport))
        assert FiveTuple.of(reply).normalized() is first
        assert FiveTuple.of(_flow_packet(7)).normalized() is first

    def test_concurrent_interning_from_threads(self, monkeypatch):
        # A small limit keeps every insert at the bound, where eviction runs.
        monkeypatch.setattr(flow, "_INTERN_LIMIT", 512)
        errors: list[BaseException] = []

        def worker(base: int) -> None:
            try:
                for index in range(base, base + 20_000):
                    FiveTuple.of(_flow_packet(index)).normalized()
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n * 20_000,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # A thread switched out between the size check and its insert can
        # overshoot the bound by at most one entry per thread.
        assert len(flow._KEY_INTERN) <= 512 + len(threads)
        assert len(flow._NORMALIZED_INTERN) <= 512 + len(threads)
