"""Unit tests for the raw TCP/UDP clients and packet_from_plan."""

import pytest

from repro.endpoint.rawclient import (
    RawTCPClient,
    RawUDPClient,
    SegmentPlan,
    packet_from_plan,
)
from repro.netsim.clock import VirtualClock
from repro.netsim.hop import RouterHop
from repro.netsim.path import Path
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment

from tests.conftest import CLIENT, SERVER, make_direct_link


class TestPacketFromPlan:
    def build(self, plan):
        return packet_from_plan(
            plan,
            src=CLIENT,
            dst=SERVER,
            sport=40_000,
            dport=80,
            default_seq=1_234,
            ack=5_678,
        )

    def test_defaults(self):
        packet = self.build(SegmentPlan(payload=b"x"))
        assert packet.tcp.seq == 1_234
        assert packet.tcp.ack == 5_678
        assert packet.tcp.flags == TCPFlags.ACK | TCPFlags.PSH
        assert packet.ttl == 64

    def test_seq_override(self):
        assert self.build(SegmentPlan(seq=99)).tcp.seq == 99

    def test_ttl_override(self):
        assert self.build(SegmentPlan(ttl=3)).ttl == 3

    def test_ip_field_overrides(self):
        plan = SegmentPlan(
            payload=b"x",
            ip_version=6,
            ip_protocol=0xFD,
            ip_checksum=0xBEEF,
            ip_total_length_delta=100,
        )
        packet = self.build(plan)
        assert packet.version == 6
        assert packet.effective_protocol == 0xFD
        assert packet.checksum == 0xBEEF
        assert packet.total_length_too_long()

    def test_tcp_field_overrides(self):
        plan = SegmentPlan(payload=b"x", tcp_checksum=0xDEAD, data_offset=15, flags=TCPFlags.PSH)
        packet = self.build(plan)
        assert packet.tcp.checksum == 0xDEAD
        assert packet.tcp.data_offset == 15
        assert packet.tcp.flags == TCPFlags.PSH

    def test_options_override(self):
        from repro.packets.options import deprecated_ip_option

        packet = self.build(SegmentPlan(ip_options=deprecated_ip_option()))
        assert packet.has_deprecated_options()


class TestRawTCPClient:
    def test_seq_advances_with_payload(self):
        _clock, _path, _stack, client = make_direct_link()
        client.connect()
        start = client.next_seq
        client.send_payload(b"12345")
        assert client.next_seq == start + 5

    def test_inert_plan_does_not_advance(self):
        _clock, _path, _stack, client = make_direct_link()
        client.connect()
        start = client.next_seq
        client.send_plan(SegmentPlan(payload=b"12345", advances_seq=False))
        assert client.next_seq == start

    def test_explicit_seq_does_not_advance(self):
        _clock, _path, _stack, client = make_direct_link()
        client.connect()
        start = client.next_seq
        client.send_plan(SegmentPlan(payload=b"12345", seq=start + 100))
        assert client.next_seq == start

    def test_pause_before_advances_clock(self):
        clock, _path, _stack, client = make_direct_link()
        client.connect()
        client.send_plan(SegmentPlan(payload=b"x", pause_before=9.0))
        assert clock.now >= 9.0

    def test_connect_fails_without_server(self):
        path = Path(VirtualClock(), [RouterHop("r")])
        client = RawTCPClient(path, CLIENT, SERVER)
        assert not client.connect()
        assert not client.established

    def test_empty_payload_sends_one_packet(self):
        _clock, _path, stack, client = make_direct_link()
        client.connect()
        before = len(stack.raw_arrivals)
        client.send_payload(b"")
        assert len(stack.raw_arrivals) == before + 1

    def test_mss_chunking(self):
        _clock, _path, stack, client = make_direct_link()
        client.connect()
        before = len(stack.raw_arrivals)
        client.send_payload(b"z" * 3000, mss=1000)
        assert len(stack.raw_arrivals) == before + 3

    def test_ttl_limited_rst_dies_en_route(self):
        _clock, _path, stack, client = make_direct_link()
        client.connect()
        client.send_rst(ttl=1)
        rsts = [
            p
            for p in stack.raw_arrivals
            if p.tcp is not None and p.tcp.flags & TCPFlags.RST
        ]
        assert rsts == []

    def test_collector_records_icmp(self):
        _clock, _path, _stack, client = make_direct_link()
        client.connect()
        client.send_plan(SegmentPlan(payload=b"probe", ttl=1, advances_seq=False))
        assert client.collector.icmp_time_exceeded()

    def test_server_stream_reassembles(self):
        _clock, _path, _stack, client = make_direct_link()
        client.connect()
        client.send_payload(b"echo-me")
        assert client.server_stream() == b"echo-me"


class ScriptedPath:
    """Records what the client sends; acknowledges on a scripted trigger.

    ``ack_on`` maps a sequence number to the cumulative ACK the server
    sends back the first time a segment starting there is transmitted.
    """

    def __init__(self):
        self.clock = VirtualClock()
        self.client_endpoint = None
        self.sent = []
        self.ack_on = {}

    def send_from_client(self, packet):
        self.sent.append(packet)
        ack = self.ack_on.pop(packet.tcp.seq, None)
        if ack is not None:
            segment = TCPSegment(sport=80, dport=40_000, seq=1, ack=ack, flags=TCPFlags.ACK)
            self.client_endpoint.receive(IPPacket(src=SERVER, dst=CLIENT, transport=segment))


class TestFlushUnacked:
    """Reliable-mode retransmission: per-round order and the retry budget."""

    SEGMENTS = (b"aaaa", b"bbbbbb", b"cc")  # seqs 7000, 7004, 7010; end 7012

    def make(self, ack_on=None, max_retries=3):
        path = ScriptedPath()
        client = RawTCPClient(path, CLIENT, SERVER, reliable=True, max_retries=max_retries)
        for payload in self.SEGMENTS:
            client.send_plan(SegmentPlan(payload=payload))
        path.sent.clear()
        path.ack_on = dict(ack_on or {})
        return path, client

    @staticmethod
    def resent(path):
        return [(p.tcp.seq, p.tcp.payload) for p in path.sent]

    def test_rounds_resend_unacked_in_tracked_order_until_budget(self):
        # The first retransmission of seq 7000 is acknowledged; the other two
        # never are, so they repeat every round until max_retries runs out.
        path, client = self.make(ack_on={7000: 7004}, max_retries=3)
        assert client.flush_unacked() == 7
        assert self.resent(path) == [
            (7000, b"aaaa"), (7004, b"bbbbbb"), (7010, b"cc"),
            (7004, b"bbbbbb"), (7010, b"cc"),
            (7004, b"bbbbbb"), (7010, b"cc"),
        ]
        assert client.retransmissions == 7
        assert all(p.tcp.flags == TCPFlags.ACK | TCPFlags.PSH for p in path.sent)

    def test_stops_once_everything_is_acknowledged(self):
        path, client = self.make(ack_on={7010: 7012}, max_retries=4)
        assert client.flush_unacked() == 3
        assert self.resent(path) == [(7000, b"aaaa"), (7004, b"bbbbbb"), (7010, b"cc")]

    def test_zero_budget_and_unreliable_send_nothing(self):
        path, client = self.make(max_retries=0)
        assert client.flush_unacked() == 0
        client.reliable = False
        assert client.flush_unacked() == 0
        assert path.sent == []


class TestRawUDPClient:
    def make(self):
        from repro.endpoint.udpstack import UDPServerStack

        path = Path(VirtualClock(), [RouterHop("r1")])
        stack = UDPServerStack(SERVER)
        path.server_endpoint = stack
        return RawUDPClient(path, CLIENT, SERVER, sport=41_500, dport=3478), stack

    def test_plain_datagram(self):
        client, stack = self.make()
        client.send_datagram(b"ping")
        assert stack.delivered_stream(41_500, 3478) == [b"ping"]

    def test_checksum_override(self):
        client, stack = self.make()
        packet = client.send_datagram(b"ping", checksum=0xDEAD)
        assert packet.udp.checksum == 0xDEAD
        assert stack.delivered_stream(41_500, 3478) == []

    def test_length_override(self):
        client, _stack = self.make()
        packet = client.send_datagram(b"ping", length_delta=8)
        assert packet.udp.effective_length == packet.udp.wire_length() + 8
