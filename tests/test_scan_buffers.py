"""Classifiers keep only the bytes a rule can still read.

The AT&T proxy stops appending to a side once it matched and holds an
unmatched server stream to its last ``longest keyword - 1`` bytes; the DPI
engine ignores a server direction no rule reads.  These tests pin that the
held bytes stay flat as streams grow, that the verdicts are those of a
full-stream scan, and that server-direction rules still see server bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envs.att import make_att
from repro.envs.testbed import make_testbed
from repro.envs.tmobile import make_tmobile
from repro.experiments import efficiency
from repro.experiments.workloads import tcp_workload
from repro.middlebox.engine import DPIMiddlebox, ReassemblyMode
from repro.middlebox.policy import RulePolicy
from repro.middlebox.proxy import TransparentHTTPProxy
from repro.middlebox.rules import MatchRule
from repro.middlebox.validation import MiddleboxValidation
from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.netsim.shaper import PolicyState
from repro.packets.flow import Direction, FiveTuple
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment
from repro.replay.session import ReplaySession
from repro.traffic.http import http_get_trace
from repro.traffic.trace import invert_bits
from repro.traffic.video import video_stream_trace

CLIENT, SERVER = "10.1.0.2", "203.0.113.50"
SPORT = 40_400
GET = b"GET /v HTTP/1.1\r\nHost: video.example.com\r\n\r\n"
VIDEO_KEYWORD = b"Content-Type: video"
_PSH = TCPFlags.ACK | TCPFlags.PSH


class Flow:
    """Feeds one synthetic TCP connection through a middlebox element."""

    def __init__(self, box):
        self.box = box
        self.ctx = TransitContext(
            clock=VirtualClock(), inject_back=lambda p: None, inject_forward=lambda p: None
        )
        self.client_seq = 1_000
        self.server_seq = 9_000

    def _send(self, segment, direction):
        upstream = direction is Direction.CLIENT_TO_SERVER
        src, dst = (CLIENT, SERVER) if upstream else (SERVER, CLIENT)
        self.box.process(IPPacket(src=src, dst=dst, transport=segment), direction, self.ctx)

    def syn(self):
        self._send(
            TCPSegment(sport=SPORT, dport=80, seq=self.client_seq, flags=TCPFlags.SYN),
            Direction.CLIENT_TO_SERVER,
        )
        self.client_seq += 1

    def client(self, payload):
        self._send(
            TCPSegment(sport=SPORT, dport=80, seq=self.client_seq, ack=1,
                       flags=_PSH, payload=payload),
            Direction.CLIENT_TO_SERVER,
        )
        self.client_seq += len(payload)

    def server(self, payload):
        self._send(
            TCPSegment(sport=80, dport=SPORT, seq=self.server_seq, ack=1,
                       flags=_PSH, payload=payload),
            Direction.SERVER_TO_CLIENT,
        )
        self.server_seq += len(payload)


def flow_key():
    return FiveTuple(CLIENT, SPORT, SERVER, 80, 6)


def proxied(proxy):
    """The proxy's state for the driven connection."""
    return proxy._connections.peek((CLIENT, SPORT, SERVER, 80))


def response(size, keyword=VIDEO_KEYWORD):
    head = b"HTTP/1.1 200 OK\r\n" + keyword + b"/mp4\r\nContent-Length: %d\r\n\r\n" % size
    return head + b"v" * (size - len(head))


def largest_server_buffer(body):
    """Drive one AT&T connection; the most server bytes the proxy held."""
    proxy = make_att().middlebox
    flow = Flow(proxy)
    flow.syn()
    flow.client(GET)
    largest = 0
    for offset in range(0, len(body), 1460):
        flow.server(body[offset : offset + 1460])
        largest = max(largest, len(proxied(proxy).server_buffer))
    return largest, proxied(proxy)


def classifier_buffer_bytes(box):
    """Scan-buffer bytes held across every connection a classifier tracks."""
    if isinstance(box, TransparentHTTPProxy):
        states = box._connections.values()
    else:
        states = box._flows.values()
    return sum(len(s.client_buffer) + len(s.server_buffer) for s in states)


class TestProxyServerBufferIsFlat:
    def test_matching_response_holds_at_most_the_keyword_tail(self):
        small, conn = largest_server_buffer(response(300_000))
        large, _ = largest_server_buffer(response(600_000))
        assert conn.throttled
        assert small == large <= len(VIDEO_KEYWORD) - 1

    def test_blinded_response_holds_at_most_the_keyword_tail(self):
        blinded = invert_bits(VIDEO_KEYWORD)
        small, conn = largest_server_buffer(response(300_000, blinded))
        large, _ = largest_server_buffer(response(600_000, blinded))
        assert not conn.server_matched
        assert small == large <= len(VIDEO_KEYWORD) - 1

    def test_client_side_stops_growing_once_matched(self):
        proxy = make_att().middlebox
        flow = Flow(proxy)
        flow.syn()
        flow.client(GET)
        held = len(proxied(proxy).client_buffer)
        for _ in range(50):
            flow.client(b"x" * 1460)
        assert proxied(proxy).client_matched
        assert len(proxied(proxy).client_buffer) == held

    def test_server_match_before_client_match_still_throttles(self):
        policy = PolicyState()
        proxy = TransparentHTTPProxy(policy)
        flow = Flow(proxy)
        flow.syn()
        flow.server(response(5_000))
        assert proxied(proxy).server_matched
        assert policy.throttle_rate_for(flow_key()) is None
        flow.client(GET)
        assert policy.throttle_rate_for(flow_key()) == 1_500_000.0


_ALPHABET = st.sampled_from([b"a", b"b", b"c"])
_keyword_st = st.lists(_ALPHABET, min_size=2, max_size=6).map(b"".join)


@st.composite
def server_streams(draw):
    """Server keywords, a stream with some/all/none of them, and its packets."""
    keywords = draw(st.lists(_keyword_st, min_size=1, max_size=3, unique=True))
    pieces = draw(st.lists(
        st.one_of(
            st.sampled_from(keywords),
            st.lists(st.sampled_from([b"a", b"b", b"c", b"x"]), max_size=8).map(b"".join),
            st.just(b"x" * 70),  # pushes the stream past scan_buffer_cap
        ),
        min_size=1, max_size=12,
    ))
    stream = b"".join(pieces)
    if not stream:
        stream = b"x"
    if draw(st.booleans()):
        cuts = list(range(1, len(stream)))  # one byte per packet
    else:
        cuts = sorted(draw(st.sets(st.integers(1, max(1, len(stream) - 1)), max_size=10)))
    bounds = [0, *[c for c in cuts if c < len(stream)], len(stream)]
    packets = [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    return tuple(keywords), stream, packets


class TestProxyMatchesFullStreamScan:
    @settings(max_examples=300, deadline=None)
    @given(case=server_streams(), cap=st.sampled_from([None, 64]))
    def test_verdict_equals_full_stream_oracle(self, case, cap):
        keywords, stream, packets = case
        policy = PolicyState()
        proxy = TransparentHTTPProxy(policy, server_keywords=keywords, scan_buffer_cap=cap)
        flow = Flow(proxy)
        flow.syn()
        flow.client(GET)
        seen = b""
        for packet in packets:
            flow.server(packet)
            seen += packet
            # The throttle mark lands on the first packet whose stream
            # prefix holds every keyword, and never before.
            throttled = policy.throttle_rate_for(flow_key()) is not None
            assert throttled == all(k in seen for k in keywords)
            assert len(proxied(proxy).server_buffer) <= max(map(len, keywords)) - 1
        assert proxied(proxy).server_matched == all(k in stream for k in keywords)


class TestEngineSkipsUnreadServerStreams:
    def test_testbed_and_tmobile_hold_no_server_bytes(self):
        unmatched = {
            "testbed": http_get_trace("plain.example.org", response_body=b"v" * 900),
            "tmobile": video_stream_trace(host="plain.example.org", total_bytes=250_000),
        }
        for make_env in (make_testbed, make_tmobile):
            env = make_env()
            # A matching replay finishes inspection on the client side; an
            # unmatched one keeps the flow under inspection while the whole
            # server response streams past.
            for trace in (tcp_workload(env.name), unmatched[env.name]):
                ReplaySession(env, trace).run()
            flows = list(env.middlebox._flows.values())
            assert len(flows) == 2, env.name
            assert any(state.verdict is None for state in flows), env.name
            for state in flows:
                assert state.server_buffer == bytearray(), env.name
                assert state.server_scan is None, env.name
                assert state.server_packets == 0, env.name

    def _server_rule_engine(self, direction):
        rule = MatchRule(
            name="resp-video",
            keywords=[VIDEO_KEYWORD],
            direction=direction,
            policy=RulePolicy.throttle(1e6),
        )
        return DPIMiddlebox(
            name="dpi",
            rules=[rule],
            policy_state=PolicyState(),
            validation=MiddleboxValidation.lax(),
            reassembly=ReassemblyMode.IN_ORDER,
            inspect_packet_limit=5,
            match_and_forget=True,
            require_protocol_anchor=False,
            track_flows=True,
        )

    def test_server_and_both_rules_still_read_the_server_stream(self):
        body = response(4_000)
        split = body.index(VIDEO_KEYWORD) + 7  # the keyword spans two packets
        for direction in ("server", "both"):
            engine = self._server_rule_engine(direction)
            flow = Flow(engine)
            flow.syn()
            flow.client(b"GET /v HTTP/1.1\r\n\r\n")
            assert engine.classification_of(CLIENT, SPORT, SERVER, 80) is None
            flow.server(body[:split])
            assert engine.classification_of(CLIENT, SPORT, SERVER, 80) is None
            flow.server(body[split:])
            assert engine.classification_of(CLIENT, SPORT, SERVER, 80) == "resp-video", direction


class TestBulkCharacterizationHoldsLittle:
    """The §6 bulk replays: T-Mobile reads a 200 KB+ usage signal and AT&T
    keys on the server response, but neither classifier may keep those
    streams once no rule can read them."""

    LIMIT = 64 * 1024

    def _peak_after_each_replay(self, monkeypatch, case):
        peaks = []
        run = ReplaySession.run

        def measured_run(session, *args, **kwargs):
            outcome = run(session, *args, **kwargs)
            peaks.append(classifier_buffer_bytes(session.env.middlebox))
            return outcome

        monkeypatch.setattr(ReplaySession, "run", measured_run)
        case()
        assert peaks
        return max(peaks)

    def test_att(self, monkeypatch):
        assert self._peak_after_each_replay(monkeypatch, efficiency.run_att) <= self.LIMIT

    def test_tmobile(self, monkeypatch):
        assert self._peak_after_each_replay(monkeypatch, efficiency.run_tmobile) <= self.LIMIT
