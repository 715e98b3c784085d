"""Unit tests for the token-bucket shaper, policy state, and reassembler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.netsim.reassembler import FragmentReassembler
from repro.netsim.shaper import PolicyState, TokenBucket, TokenBucketShaper
from repro.packets.flow import Direction, FiveTuple
from repro.packets.fragment import fragment_packet
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPSegment


def ctx(clock=None):
    clock = clock or VirtualClock()
    return TransitContext(clock=clock, inject_back=lambda p: None, inject_forward=lambda p: None)


def data_packet(payload=b"d" * 1000):
    return IPPacket(
        src="10.0.0.2",
        dst="10.0.0.1",
        transport=TCPSegment(sport=80, dport=40_000, seq=1, payload=payload),
    )


class TestTokenBucket:
    def test_burst_is_free(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate_bps=8_000, burst_bytes=1_000)
        assert bucket.consume(500, clock) == 0.0
        assert clock.now == 0.0

    def test_deficit_charges_delay(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate_bps=8_000, burst_bytes=100)  # 1000 bytes/s
        bucket.consume(100, clock)
        delay = bucket.consume(1000, clock)
        assert delay == pytest.approx(1.0)
        assert clock.now == pytest.approx(1.0)

    def test_refill_over_time(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate_bps=8_000, burst_bytes=1_000)
        bucket.consume(1_000, clock)
        clock.advance(1.0)  # refills 1000 bytes
        assert bucket.consume(900, clock) == 0.0

    def test_sustained_rate(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate_bps=1_000_000, burst_bytes=1_000)
        total = 0
        for _ in range(100):
            bucket.consume(12_500, clock)  # 100 x 12.5 KB = 1.25 MB
            total += 12_500
        # 1.25 MB at 125 kB/s ~ 10 s
        assert clock.now == pytest.approx(total / 125_000, rel=0.05)

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_bps=0)

    def test_reset(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate_bps=8_000, burst_bytes=100)
        bucket.consume(100, clock)
        bucket.reset()
        assert bucket.consume(100, clock) == 0.0


class TestPolicyState:
    def test_throttle_mark_normalized(self):
        state = PolicyState()
        key = FiveTuple("10.0.0.1", 40_000, "10.0.0.2", 80, 6)
        state.throttle(key, 1_500_000)
        assert state.throttle_rate_for(key.reversed) == 1_500_000

    def test_zero_rate_mark(self):
        state = PolicyState()
        key = FiveTuple("10.0.0.1", 40_000, "10.0.0.2", 80, 6)
        state.zero_rate(key)
        assert state.is_zero_rated(key)
        assert state.is_zero_rated(key.reversed)

    def test_unmarked_flow(self):
        state = PolicyState()
        key = FiveTuple("10.0.0.1", 40_000, "10.0.0.2", 80, 6)
        assert state.throttle_rate_for(key) is None
        assert not state.is_zero_rated(key)
        assert state.throttle_rate_for(None) is None

    def test_reset(self):
        state = PolicyState()
        key = FiveTuple("10.0.0.1", 40_000, "10.0.0.2", 80, 6)
        state.throttle(key, 1.0)
        state.zero_rate(key)
        state.blocked_endpoints.add(("x", 80))
        state.reset()
        assert not state.throttled_flows
        assert not state.zero_rated_flows
        assert not state.blocked_endpoints


class TestShaper:
    def test_marked_flow_is_slow(self):
        clock = VirtualClock()
        state = PolicyState()
        shaper = TokenBucketShaper(state, base_rate_bps=100_000_000)
        key = FiveTuple.of(data_packet())
        state.throttle(key, 80_000)  # 10 kB/s
        context = ctx(clock)
        for _ in range(20):
            shaper.process(data_packet(), Direction.SERVER_TO_CLIENT, context)
        # ~20 kB at 10 kB/s minus burst: roughly 1-2 seconds
        assert clock.now > 0.5

    def test_unmarked_flow_uses_base_rate(self):
        clock = VirtualClock()
        shaper = TokenBucketShaper(PolicyState(), base_rate_bps=100_000_000)
        context = ctx(clock)
        for _ in range(20):
            shaper.process(data_packet(), Direction.SERVER_TO_CLIENT, context)
        assert clock.now < 0.01

    def test_reset_restores_buckets(self):
        state = PolicyState()
        shaper = TokenBucketShaper(state, base_rate_bps=1_000)
        context = ctx()
        shaper.process(data_packet(), Direction.SERVER_TO_CLIENT, context)
        shaper.reset()
        assert shaper._flow_buckets == {}


class _ReferenceBucket:
    """The token-bucket arithmetic before the saturated-link refactor, kept
    verbatim as an oracle: ``consume`` refilled inline and charged the
    deficit itself, and the shaper's base-link path refilled, stored the
    tokens, then called ``consume`` again (a second refill with zero
    elapsed time) to charge the deficit."""

    def __init__(self, rate_bps, burst_bytes):
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        self._tokens = burst_bytes
        self._last = 0.0

    def consume(self, size_bytes, clock):
        rate_bytes = self.rate_bps / 8.0
        now = clock.now
        elapsed = now - self._last
        tokens = self._tokens + elapsed * rate_bytes if elapsed > 0.0 else self._tokens
        if tokens > self.burst_bytes:
            tokens = self.burst_bytes
        self._last = now
        if tokens >= size_bytes:
            self._tokens = tokens - size_bytes
            return 0.0
        self._tokens = tokens
        deficit = size_bytes - tokens
        delay = deficit / rate_bytes
        clock.advance(delay)
        now = clock.now
        elapsed = now - self._last
        if elapsed > 0.0:
            tokens = min(self.burst_bytes, tokens + elapsed * rate_bytes)
        self._last = now
        self._tokens = max(tokens - size_bytes, 0.0)
        return delay

    def shape(self, size, clock):
        now = clock.now
        elapsed = now - self._last
        tokens = self._tokens
        if elapsed > 0.0:
            tokens += elapsed * (self.rate_bps / 8.0)
            if tokens > self.burst_bytes:
                tokens = self.burst_bytes
        self._last = now
        if tokens >= size:
            self._tokens = tokens - size
        else:
            self._tokens = tokens
            self.consume(size, clock)


#: (wire size in bytes, virtual seconds before the packet); zero gaps keep
#: the link saturated.
SHAPED_PACKETS = st.lists(
    st.tuples(
        st.integers(min_value=20, max_value=20_000),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.05)),
    ),
    min_size=1,
    max_size=60,
)
RATES = st.floats(min_value=10_000.0, max_value=100_000_000.0)
BURSTS = st.floats(min_value=1.0, max_value=100_000.0)


class TestBucketArithmeticUnchanged:
    """Charging the deficit in one place leaves every float bit-identical."""

    @settings(deadline=None, max_examples=150)
    @given(packets=SHAPED_PACKETS, rate=RATES, burst=BURSTS)
    def test_base_link_path(self, packets, rate, burst):
        shaper = TokenBucketShaper(PolicyState())
        shaper.base_bucket = TokenBucket(rate_bps=rate, burst_bytes=burst)
        reference = _ReferenceBucket(rate, burst)
        clock, reference_clock = VirtualClock(), VirtualClock()
        context = ctx(clock)
        for size, gap in packets:
            clock.advance(gap)
            reference_clock.advance(gap)
            packet = IPPacket(src="10.0.0.2", dst="10.0.0.1", transport=b"x" * (size - 20))
            assert shaper.process(packet, Direction.SERVER_TO_CLIENT, context) == [packet]
            reference.shape(size, reference_clock)
            bucket = shaper.base_bucket
            assert clock.now == reference_clock.now
            assert bucket._tokens == reference._tokens
            assert bucket._last == reference._last

    @settings(deadline=None, max_examples=150)
    @given(packets=SHAPED_PACKETS, rate=RATES, burst=BURSTS)
    def test_consume(self, packets, rate, burst):
        bucket = TokenBucket(rate_bps=rate, burst_bytes=burst)
        reference = _ReferenceBucket(rate, burst)
        clock, reference_clock = VirtualClock(), VirtualClock()
        for size, gap in packets:
            clock.advance(gap)
            reference_clock.advance(gap)
            assert bucket.consume(size, clock) == reference.consume(size, reference_clock)
            assert clock.now == reference_clock.now
            assert bucket._tokens == reference._tokens
            assert bucket._last == reference._last


class TestFragmentReassembler:
    def test_holds_until_complete(self):
        reassembler = FragmentReassembler()
        context = ctx()
        packet = data_packet(b"z" * 100)
        fragments = fragment_packet(packet, 40)
        for fragment in fragments[:-1]:
            assert reassembler.process(fragment, Direction.CLIENT_TO_SERVER, context) == []
        (whole,) = reassembler.process(fragments[-1], Direction.CLIENT_TO_SERVER, context)
        assert whole.tcp is not None
        assert whole.tcp.payload == b"z" * 100
        assert reassembler.reassembled_count == 1

    def test_passthrough_for_whole_packets(self):
        reassembler = FragmentReassembler()
        packet = data_packet()
        assert reassembler.process(packet, Direction.CLIENT_TO_SERVER, ctx()) == [packet]

    def test_interleaved_datagrams(self):
        reassembler = FragmentReassembler()
        context = ctx()
        first = data_packet(b"a" * 64)
        second = data_packet(b"b" * 64)
        second.identification = 777
        frag_a = fragment_packet(first, 32, identification=111)
        frag_b = fragment_packet(second, 32, identification=777)
        interleaved = [frag for pair in zip(frag_a, frag_b) for frag in pair]
        outputs = []
        for fragment in interleaved:
            outputs += reassembler.process(fragment, Direction.CLIENT_TO_SERVER, context)
        payloads = {bytes(o.tcp.payload) for o in outputs}
        assert payloads == {b"a" * 64, b"b" * 64}

    def test_reset(self):
        reassembler = FragmentReassembler()
        context = ctx()
        fragments = fragment_packet(data_packet(b"z" * 100), 40)
        reassembler.process(fragments[0], Direction.CLIENT_TO_SERVER, context)
        reassembler.reset()
        assert reassembler.process(fragments[-1], Direction.CLIENT_TO_SERVER, context) == []
