"""Pristine-header fast paths agree with a full-predicate reference.

A packet whose version is 4 and whose IHL, total length and checksum (and,
for TCP, data offset) are left to serialization passes those checks by
construction, so ``MiddleboxValidation.ip_inspectable``,
``TCPSegment.has_valid_data_offset``, ``MalformedPacketFilter`` and the
DPI engine skip the predicate walk for it.  These properties draw packets
with random header overrides and compare every verdict against a reference
that re-derives each check from the serialized wire bytes.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.middlebox.engine import DPIMiddlebox, ReassemblyMode
from repro.middlebox.policy import RulePolicy
from repro.middlebox.rules import MatchRule
from repro.middlebox.validation import MiddleboxValidation
from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.netsim.filters import SEQ_WINDOW, FilterPolicy, MalformedPacketFilter
from repro.netsim.shaper import PolicyState
from repro.packets.checksum import internet_checksum
from repro.packets.flow import Direction
from repro.packets.ip import IPPacket
from repro.packets.options import (
    deprecated_ip_option,
    invalid_ip_option,
    options_are_wellformed,
    options_contain_deprecated,
    record_route_option,
)
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.packets.udp import UDPDatagram

CLIENT, SERVER = "10.0.0.1", "10.0.0.2"
SPORT, DPORT = 40_000, 80
SYN_SEQ = 1_000
KEYWORD = b"needle"

VALIDATIONS = {
    "lax": MiddleboxValidation.lax(),
    "extensive": MiddleboxValidation.extensive(),
    "tmobile": MiddleboxValidation.partial_tmobile(),
    "iran": MiddleboxValidation.partial_iran(),
}

_FLAGS = [name for name in FilterPolicy.__dataclass_fields__ if name.startswith("drop_")]
FILTER_POLICIES = {
    "permissive": FilterPolicy.permissive(),
    "strict_carrier": FilterPolicy.strict_carrier(),
    "all": FilterPolicy(**{name: True for name in _FLAGS}),
    **{name: FilterPolicy(**{name: True}) for name in _FLAGS},
}

settings_kwargs = dict(
    deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow]
)


def _override(numbers):
    """A header override: None (computed), "exact" (the computed value set
    explicitly), or an arbitrary number."""
    return st.one_of(st.none(), st.none(), st.just("exact"), numbers)


@st.composite
def packets(draw, transport_kind=None):
    """An IP packet with random IP and transport header overrides."""
    kind = transport_kind or draw(st.sampled_from(["tcp", "udp"]))
    payload = draw(st.sampled_from([b"", KEYWORD, b"GET /" + KEYWORD, b"x" * 7]))
    if kind == "tcp":
        transport = TCPSegment(
            sport=SPORT,
            dport=DPORT,
            seq=draw(st.sampled_from([SYN_SEQ + 1, SYN_SEQ + 50, SYN_SEQ + 1 + 2 * SEQ_WINDOW])),
            flags=TCPFlags(draw(st.sampled_from([0x10, 0x18, 0x08, 0x02, 0x03, 0x04, 0x3F, 0]))),
            options=draw(st.sampled_from([b"", b"\x01\x01\x01", b"\x02\x04\x05\xb4"])),
            payload=payload,
        )
        data_offset = draw(_override(st.integers(0, 15)))
        if data_offset == "exact":
            data_offset = transport.header_length // 4
        transport.data_offset = data_offset
        transport.checksum = draw(st.one_of(st.none(), st.none(), st.integers(0, 0xFFFF)))
    else:
        transport = UDPDatagram(sport=SPORT, dport=DPORT, payload=payload)
        transport.length = draw(st.one_of(st.none(), st.integers(0, 64)))
        transport.checksum = draw(st.one_of(st.none(), st.integers(0, 0xFFFF)))
    packet = IPPacket(
        src=CLIENT,
        dst=SERVER,
        transport=transport,
        options=draw(
            st.sampled_from(
                [b"", b"", record_route_option(), deprecated_ip_option(), invalid_ip_option()]
            )
        ),
    )
    packet.version = draw(st.one_of(st.just(4), st.just(4), st.integers(0, 15)))
    ihl = draw(_override(st.integers(0, 15)))
    packet.ihl = packet.header_length // 4 if ihl == "exact" else ihl
    total = draw(_override(st.integers(0, 200)))
    packet.total_length = packet.wire_length() if total == "exact" else total
    packet.protocol = draw(st.sampled_from([None, None, 6, 17, 1, 99]))
    checksum = draw(_override(st.integers(0, 0xFFFF)))
    if checksum == "exact":
        checksum = internet_checksum(packet._header_zero())
    packet.checksum = checksum
    return packet


# ----------------------------------------------------------------------
# the reference: every check re-derived from the wire bytes
# ----------------------------------------------------------------------
class Wire:
    """The header fields a validator reads, parsed from ``to_bytes()``."""

    def __init__(self, packet):
        raw = packet.to_bytes()
        self.length = len(raw)
        self.header_length = packet.header_length  # bytes actually present
        header = raw[: self.header_length]
        self.version = raw[0] >> 4
        self.ihl = raw[0] & 0xF
        self.total_length = struct.unpack("!H", raw[2:4])[0]
        self.protocol = raw[9]
        zeroed = header[:10] + b"\x00\x00" + header[12:]
        self.checksum_ok = struct.unpack("!H", raw[10:12])[0] == internet_checksum(zeroed)
        self.options = header[20:]
        self.body = raw[self.header_length :]

    def header_ok(self):
        return (
            self.version == 4
            and self.ihl * 4 == self.header_length
            and self.total_length == self.length
            and self.checksum_ok
        )


def ref_data_offset_ok(wire, segment):
    return (wire.body[12] >> 4) * 4 == segment.header_length


def ref_ip_inspectable(validation, packet):
    wire = Wire(packet)
    if wire.version != 4 or wire.ihl * 4 != wire.header_length:
        return False
    if wire.total_length < wire.length:
        return False
    if validation.require_length_not_long and wire.total_length > wire.length:
        return False
    if validation.require_valid_ip_checksum and not wire.checksum_ok:
        return False
    if wire.options:
        if validation.require_wellformed_ip_options and not options_are_wellformed(wire.options):
            return False
        if validation.reject_deprecated_ip_options and options_contain_deprecated(wire.options):
            return False
    return True


def ref_tcp_inspectable(validation, packet, segment, expected_seq):
    if not ref_data_offset_ok(Wire(packet), segment):
        return False
    if validation.require_valid_tcp_checksum and not segment.verify_checksum(
        packet.src, packet.dst
    ):
        return False
    flags = int(segment.flags)
    if validation.require_valid_flag_combo and not segment.flags.is_valid_combination():
        return False
    if (
        validation.require_ack_flag
        and segment.payload
        and not flags & 0x06
        and not flags & 0x10
    ):
        return False
    if validation.require_in_window_seq and expected_seq is not None and segment.payload:
        distance = (segment.seq - expected_seq) & 0xFFFFFFFF
        if min(distance, (expected_seq - segment.seq) & 0xFFFFFFFF) > (1 << 20):
            return False
    return True


def ref_should_drop(policy, packet, expected_seq):
    """The filter's verdict; *expected_seq* is the tracked next sequence."""
    wire = Wire(packet)
    if policy.drop_bad_ip_header and not wire.header_ok():
        return True
    if wire.options:
        if policy.drop_any_ip_options:
            return True
        if policy.drop_invalid_ip_options and not options_are_wellformed(wire.options):
            return True
        if policy.drop_deprecated_ip_options and options_contain_deprecated(wire.options):
            return True
    if policy.drop_unknown_protocol and wire.protocol not in (1, 6, 17):
        return True
    transport = packet.transport
    if isinstance(transport, TCPSegment) and wire.protocol == 6:
        flags = int(transport.flags)
        if policy.drop_bad_tcp_checksum and not transport.verify_checksum(CLIENT, SERVER):
            return True
        if policy.drop_bad_data_offset and not ref_data_offset_ok(wire, transport):
            return True
        if policy.drop_invalid_flag_combo and not transport.flags.is_valid_combination():
            return True
        if policy.drop_missing_ack_flag and not flags & 0x06 and not flags & 0x10:
            return True
        if policy.drop_out_of_window_seq and expected_seq is not None:
            distance = (transport.seq - expected_seq) & 0xFFFFFFFF
            if min(distance, (expected_seq - transport.seq) & 0xFFFFFFFF) > SEQ_WINDOW:
                return True
    if isinstance(transport, UDPDatagram) and wire.protocol == 17:
        if policy.drop_bad_udp_checksum and not transport.verify_checksum(CLIENT, SERVER):
            return True
        if policy.drop_bad_udp_length and not transport.has_valid_length():
            return True
    return False


def _ctx(clock=None):
    return TransitContext(
        clock=clock or VirtualClock(), inject_back=lambda p: None, inject_forward=lambda p: None
    )


def _syn():
    return IPPacket(
        src=CLIENT,
        dst=SERVER,
        transport=TCPSegment(sport=SPORT, dport=DPORT, seq=SYN_SEQ, flags=TCPFlags.SYN),
    )


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
class TestValidationFastPaths:
    @settings(**settings_kwargs)
    @given(packet=packets())
    def test_ip_inspectable(self, packet):
        for validation in VALIDATIONS.values():
            assert validation.ip_inspectable(packet) == ref_ip_inspectable(validation, packet)

    @settings(**settings_kwargs)
    @given(packet=packets("tcp"), expected=st.sampled_from([None, SYN_SEQ + 1]))
    def test_tcp_inspectable_and_data_offset(self, packet, expected):
        segment = packet.transport
        assert segment.has_valid_data_offset() == ref_data_offset_ok(Wire(packet), segment)
        for validation in VALIDATIONS.values():
            assert validation.tcp_inspectable(packet, segment, expected) == ref_tcp_inspectable(
                validation, packet, segment, expected
            )


class TestFilterFastPaths:
    @settings(**settings_kwargs)
    @given(packet=packets(), after_syn=st.booleans())
    def test_should_drop_under_every_profile(self, packet, after_syn):
        for policy in FILTER_POLICIES.values():
            element = MalformedPacketFilter(policy)
            expected_seq = None
            if after_syn:
                element.process(_syn(), Direction.CLIENT_TO_SERVER, _ctx())
                if policy.drop_out_of_window_seq and Wire(packet).protocol == 6:
                    expected_seq = SYN_SEQ + 1  # the SYN consumed one sequence number
            dropped = element.process(packet, Direction.CLIENT_TO_SERVER, _ctx()) == []
            assert dropped == ref_should_drop(policy, packet, expected_seq)


class TestEngineFastPaths:
    """The engine's inspect/skip decision: does the matcher see the payload?"""

    @staticmethod
    def _engine(validation, agnostic):
        return DPIMiddlebox(
            name="dpi",
            rules=[
                MatchRule(
                    name="r", keywords=[KEYWORD], protocol="any", policy=RulePolicy.throttle(1e6)
                )
            ],
            policy_state=PolicyState(),
            validation=validation,
            reassembly=ReassemblyMode.PER_PACKET,
            match_and_forget=False,
            protocol_agnostic_flow_keying=agnostic,
        )

    @settings(**settings_kwargs)
    @given(packet=packets(), agnostic=st.booleans())
    def test_inspect_decision(self, packet, agnostic):
        wire = Wire(packet)
        transport = packet.transport
        if agnostic:
            dispatch = 6 if isinstance(transport, TCPSegment) else 17
        else:
            dispatch = wire.protocol
        for validation in VALIDATIONS.values():
            engine = self._engine(validation, agnostic)
            clock = VirtualClock()
            engine.process(_syn(), Direction.CLIENT_TO_SERVER, _ctx(clock))
            engine.process(packet, Direction.CLIENT_TO_SERVER, _ctx(clock))
            inspected = sum(state.client_packets for _key, state in engine._flows.items())
            if isinstance(transport, TCPSegment):
                expect = (
                    dispatch == 6
                    and not int(transport.flags) & 0x04  # an RST is handled, not inspected
                    and ref_ip_inspectable(validation, packet)
                    and ref_tcp_inspectable(validation, packet, transport, SYN_SEQ + 1)
                    and bool(transport.payload)
                )
            else:
                expect = (
                    dispatch == 17
                    and ref_ip_inspectable(validation, packet)
                    and validation.udp_inspectable(packet, transport)
                    and bool(transport.payload)
                )
            assert inspected == int(expect)
            assert (engine.matches_logged > 0) == (expect and KEYWORD in transport.payload)


@pytest.mark.parametrize("field", ["version", "ihl", "total_length", "checksum"])
def test_each_ip_override_leaves_the_fast_path(field):
    """One bad field is enough to fail the extensive profile."""
    packet = IPPacket(src=CLIENT, dst=SERVER, transport=TCPSegment(payload=b"x"))
    value = {"version": 6, "ihl": 7, "total_length": 9, "checksum": 0x1234}[field]
    setattr(packet, field, value)
    assert MiddleboxValidation.extensive().ip_inspectable(packet) is False
    assert MiddleboxValidation.lax().ip_inspectable(packet) is (field == "checksum")
