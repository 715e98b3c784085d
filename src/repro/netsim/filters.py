"""In-network filtering of malformed packets.

The paper found that "many of the inert packets that worked in our testbed
were dropped in every operational network we tested … likely due to routers
and/or firewalls that drop malformed packets" (§7).  Each operational
environment configures a :class:`FilterPolicy` describing exactly which
anomalies its path drops; the filter element applies it.

The GFC path additionally rewrote bad TCP checksums before they reached our
server (Table 3, footnote 4) — :class:`TCPChecksumNormalizer` models that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.element import NetworkElement, TransitContext
from repro.packets.flow import Direction, FiveTuple
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.packets.udp import UDPDatagram

#: Sequence numbers further than this from the expected value count as
#: "wildly out of window" for stateful firewalls.
SEQ_WINDOW = 1 << 20


@dataclass
class FilterPolicy:
    """Which malformed packets an in-network filter drops.

    Every flag defaults to False (pass everything), matching the testbed's
    permissive path; environment factories switch on what their network was
    observed to drop.
    """

    drop_bad_ip_header: bool = False  # invalid version / IHL / total length / IP checksum
    drop_invalid_ip_options: bool = False
    drop_deprecated_ip_options: bool = False
    drop_any_ip_options: bool = False
    drop_unknown_protocol: bool = False
    drop_ip_fragments: bool = False
    drop_bad_tcp_checksum: bool = False
    drop_out_of_window_seq: bool = False
    drop_missing_ack_flag: bool = False
    drop_bad_data_offset: bool = False
    drop_invalid_flag_combo: bool = False
    drop_bad_udp_checksum: bool = False
    drop_bad_udp_length: bool = False

    @classmethod
    def permissive(cls) -> "FilterPolicy":
        """A policy that drops nothing."""
        return cls()

    @classmethod
    def strict_carrier(cls) -> "FilterPolicy":
        """Everything-validating cellular carrier profile (observed for TMUS)."""
        return cls(
            drop_bad_ip_header=True,
            drop_invalid_ip_options=True,
            drop_deprecated_ip_options=True,
            drop_ip_fragments=False,
            drop_bad_tcp_checksum=True,
            drop_out_of_window_seq=True,
            drop_missing_ack_flag=True,
            drop_bad_data_offset=True,
            drop_invalid_flag_combo=True,
            drop_bad_udp_checksum=True,
            drop_bad_udp_length=True,
        )


class MalformedPacketFilter(NetworkElement):
    """Drops packets according to a :class:`FilterPolicy`.

    Keeps lightweight per-flow TCP state (expected next sequence number,
    learned from handshakes and forwarded data) so the *out-of-window
    sequence* check can be enforced the way stateful carrier firewalls do.
    """

    def __init__(self, policy: FilterPolicy, name: str = "filter") -> None:
        self.policy = policy
        self.name = name
        self.dropped: list[IPPacket] = []
        self._next_seq: dict[FiveTuple, int] = {}

    def process(
        self, packet: IPPacket, direction: Direction, ctx: TransitContext
    ) -> list[IPPacket]:
        """Apply the policy; forward, or record and drop."""
        # Direct transport access: the tcp/udp properties cost a descriptor
        # call each, and this runs for every packet on strict-carrier paths.
        transport = packet.transport
        tcp = transport if type(transport) is TCPSegment else None
        # Sequence state is only consulted by the out-of-window check, so
        # only that policy needs the flow key (computed once per packet).
        key = None
        if tcp is not None and self.policy.drop_out_of_window_seq:
            key = FiveTuple.of(packet)
        if self._should_drop(packet, tcp, key):
            self.dropped.append(packet)
            return []
        if key is not None:
            self._track(key, tcp)
        return [packet]

    def _should_drop(
        self, packet: IPPacket, tcp: TCPSegment | None, key: FiveTuple | None
    ) -> bool:
        policy = self.policy
        if (
            policy.drop_bad_ip_header
            # Pristine fast path: auto-computed IHL/length/checksum are
            # self-consistent by construction, so only crafted overrides
            # need the full predicate walk.
            and (
                packet.version != 4
                or packet.ihl is not None
                or packet.total_length is not None
                or packet.checksum is not None
            )
            and not (
                packet.has_valid_version()
                and packet.has_valid_ihl()
                and packet.has_valid_total_length()
                and packet.has_valid_checksum()
            )
        ):
            return True
        if packet.options:
            if policy.drop_any_ip_options:
                return True
            if policy.drop_invalid_ip_options and not packet.has_wellformed_options():
                return True
            if policy.drop_deprecated_ip_options and packet.has_deprecated_options():
                return True
        if policy.drop_unknown_protocol and not packet.has_known_protocol():
            return True
        if policy.drop_ip_fragments and packet.is_fragment:
            return True
        declared = packet.protocol
        if tcp is not None:
            if declared is not None and declared != 6:
                return False
            if policy.drop_bad_tcp_checksum and not tcp.verify_checksum(packet.src, packet.dst):
                return True
            if policy.drop_bad_data_offset and not tcp.has_valid_data_offset():
                return True
            if policy.drop_invalid_flag_combo and not tcp.flags.is_valid_combination():
                return True
            if policy.drop_missing_ack_flag and self._missing_ack(tcp):
                return True
            if key is not None and self._out_of_window(key, tcp):
                return True
            return False  # a TCP segment is never a UDP datagram
        udp = packet.transport
        if type(udp) is UDPDatagram and (declared is None or declared == 17):
            if policy.drop_bad_udp_checksum and not udp.verify_checksum(packet.src, packet.dst):
                return True
            if policy.drop_bad_udp_length and not udp.has_valid_length():
                return True
        return False

    def _missing_ack(self, tcp: TCPSegment) -> bool:
        # The initial SYN legitimately has no ACK; RST-only is also normal.
        flags = int(tcp.flags)
        if flags & 0x06:  # SYN or RST
            return False
        return not flags & 0x10  # ACK

    def _out_of_window(self, key: FiveTuple, tcp: TCPSegment) -> bool:
        expected = self._next_seq.get(key)
        if expected is None:
            return False
        distance = (tcp.seq - expected) & 0xFFFFFFFF
        reverse_distance = (expected - tcp.seq) & 0xFFFFFFFF
        return min(distance, reverse_distance) > SEQ_WINDOW

    def _track(self, key: FiveTuple, tcp: TCPSegment) -> None:
        advance = len(tcp.payload)
        if int(tcp.flags) & 0x03:  # SYN or FIN each consume one sequence number
            advance += 1
        self._next_seq[key] = (tcp.seq + advance) & 0xFFFFFFFF

    def reset(self) -> None:
        """Forget drops and flow state."""
        self.dropped.clear()
        self._next_seq.clear()


class TCPChecksumNormalizer(NetworkElement):
    """Rewrites incorrect TCP checksums to the correct value.

    Models the NAT-like device on the GFC path that corrected our corrupted
    checksums before the packets arrived at the server (Table 3 footnote 4).
    """

    name = "checksum-normalizer"

    def __init__(self) -> None:
        self.normalized_count = 0

    def process(
        self, packet: IPPacket, direction: Direction, ctx: TransitContext
    ) -> list[IPPacket]:
        """Fix the TCP checksum in place when it is wrong; always forward."""
        tcp = packet.tcp
        if tcp is not None and not tcp.verify_checksum(packet.src, packet.dst):
            self.normalized_count += 1
            fixed = packet.copy()
            assert fixed.tcp is not None
            fixed.tcp.checksum = None  # recompute on serialization
            return [fixed]
        return [packet]

    def reset(self) -> None:
        """Reset the normalization counter."""
        self.normalized_count = 0
