"""Engine state retention: timeouts, RST flushing, endpoint blocking."""

import sys

from repro.middlebox.engine import DPIMiddlebox, ReassemblyMode
from repro.middlebox.policy import RulePolicy
from repro.middlebox.rules import MatchRule
from repro.netsim.clock import VirtualClock
from repro.netsim.element import TransitContext
from repro.netsim.shaper import PolicyState
from repro.packets.flow import Direction
from repro.packets.ip import IPPacket
from repro.packets.tcp import TCPFlags, TCPSegment

from tests.test_engine import CLIENT, SERVER, Driver, GET, NEUTRAL, make_engine


class TestTimeouts:
    def test_post_match_timeout_flushes_verdict(self):
        engine, policy = make_engine(post_match_timeout=120.0)
        driver = Driver(engine)
        driver.syn()
        driver.data(GET)
        assert driver.classification() == "video"
        driver.clock.advance(121.0)
        driver.data(b"more")
        assert driver.classification() is None
        assert not policy.throttled_flows  # marks cleared with the state

    def test_verdict_survives_shorter_pause(self):
        engine, _ = make_engine(post_match_timeout=120.0)
        driver = Driver(engine)
        driver.syn()
        driver.data(GET)
        driver.clock.advance(60.0)
        driver.data(b"more")
        assert driver.classification() == "video"

    def test_pre_match_timeout_unlocks_tracking(self):
        engine, _ = make_engine(pre_match_timeout=120.0)
        driver = Driver(engine)
        driver.syn()
        driver.clock.advance(130.0)
        driver.data(GET)  # flow no longer tracked: not inspected
        assert driver.classification() is None

    def test_no_timeout_retains_forever(self):
        engine, _ = make_engine(pre_match_timeout=None, post_match_timeout=None)
        driver = Driver(engine)
        driver.syn()
        driver.data(GET)
        driver.clock.advance(100_000.0)
        driver.data(b"more")
        assert driver.classification() == "video"

    def test_callable_timeout(self):
        calls = []

        def timeout(now):
            calls.append(now)
            return 50.0

        engine, _ = make_engine(pre_match_timeout=timeout)
        driver = Driver(engine)
        driver.syn()
        driver.clock.advance(60.0)
        driver.data(GET)
        assert driver.classification() is None
        assert calls


class TestExpiryCost:
    """Expiry work follows the timers due, not the virtual time elapsed."""

    @staticmethod
    def python_calls(fn):
        """Python function calls made while running *fn*."""
        count = 0

        def profiler(_frame, event, _arg):
            nonlocal count
            if event == "call":
                count += 1

        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return count

    def test_jump_cost_does_not_grow_with_elapsed_time(self):
        # Timeouts far beyond both gaps: nothing is due after either jump,
        # so a packet after 10^4 s must cost what one after 10 s does.
        engine, _ = make_engine(pre_match_timeout=1e5, post_match_timeout=2e5)
        for sport in range(40_200, 40_204):
            Driver(engine, sport=sport).syn()
        driver = Driver(engine)
        driver.syn()
        driver.clock.advance(10.0)
        short = self.python_calls(lambda: driver.data(b""))
        driver.clock.advance(1e4)
        long = self.python_calls(lambda: driver.data(b""))
        assert len(engine._flows) == 5
        assert abs(long - short) <= 10, (short, long)


class TestRSTHandling:
    def test_rst_timeout_reduction(self):
        """The testbed shortens its 120 s timeout to 10 s after a RST."""
        engine, _ = make_engine(post_match_timeout=120.0, rst_timeout_reduction=10.0)
        driver = Driver(engine)
        driver.syn()
        driver.data(GET)
        driver.rst()
        driver.clock.advance(12.0)
        driver.data(b"more")
        assert driver.classification() is None

    def test_rst_flush_post_match_immediate(self):
        """T-Mobile flushes classification immediately on a RST."""
        engine, policy = make_engine(rst_flush_post_match=True)
        driver = Driver(engine)
        driver.syn()
        driver.data(GET)
        driver.rst()
        assert driver.classification() is None
        assert not policy.zero_rated_flows

    def test_rst_flush_pre_match_only(self):
        """The GFC: a RST before the match flushes; after, nothing changes."""
        engine, _ = make_engine(rst_flush_pre_match=True, rst_flush_post_match=False)
        # before the match:
        driver = Driver(engine)
        driver.syn()
        driver.rst()
        driver.data(GET)
        assert driver.classification() is None
        # after the match:
        driver2 = Driver(engine, sport=40_200)
        driver2.syn()
        driver2.data(GET)
        driver2.rst()
        assert driver2.classification() == "video"

    def test_rst_without_flush_config_is_inert(self):
        engine, _ = make_engine()
        driver = Driver(engine)
        driver.syn()
        driver.data(GET)
        driver.rst()
        assert driver.classification() == "video"


class TestBlocking:
    def blocking_engine(self, **overrides):
        policy = PolicyState()
        return make_engine(
            rules=[
                MatchRule(
                    name="censored",
                    keywords=[b"video.example.com"],
                    policy=RulePolicy.block_with_rsts(to_client=3, to_server=1),
                )
            ],
            policy_state=policy,
            **overrides,
        )

    def test_match_injects_rsts(self):
        engine, _ = self.blocking_engine()
        driver = Driver(engine)
        driver.syn()
        driver.data(GET)
        rsts_back = [p for p in driver.injected_back if p.tcp and p.tcp.flags & TCPFlags.RST]
        rsts_fwd = [p for p in driver.injected_forward if p.tcp and p.tcp.flags & TCPFlags.RST]
        assert len(rsts_back) == 3  # toward the client
        assert len(rsts_fwd) == 1  # toward the server

    def test_block_page_injected(self):
        engine, _ = make_engine(
            rules=[
                MatchRule(
                    name="censored",
                    keywords=[b"video.example.com"],
                    policy=RulePolicy.block_with_page(),
                )
            ]
        )
        driver = Driver(engine)
        driver.syn()
        driver.data(GET)
        pages = [
            p for p in driver.injected_back if p.tcp and b"403 Forbidden" in p.tcp.payload
        ]
        assert len(pages) == 1

    def test_endpoint_blocklist_after_threshold(self):
        engine, policy = self.blocking_engine(
            endpoint_block_threshold=2, endpoint_block_duration=90.0
        )
        for sport in (40_300, 40_301):
            driver = Driver(engine, sport=sport)
            driver.syn()
            driver.data(GET)
        assert (SERVER, 80) in policy.blocked_endpoints
        # a brand new connection (even innocuous) is refused
        fresh = Driver(engine, sport=40_302)
        fresh.syn()
        rsts = [p for p in fresh.injected_back if p.tcp and p.tcp.flags & TCPFlags.RST]
        assert rsts

    def test_endpoint_blocklist_expires(self):
        engine, policy = self.blocking_engine(
            endpoint_block_threshold=2, endpoint_block_duration=90.0
        )
        clockless = None
        for sport in (40_310, 40_311):
            driver = Driver(engine, sport=sport)
            driver.syn()
            driver.data(GET)
            clockless = driver
        clockless.clock.advance(91.0)
        fresh = Driver(engine, sport=40_312)
        fresh.clock = clockless.clock  # share time
        fresh.ctx = TransitContext(
            clock=fresh.clock,
            inject_back=fresh.injected_back.append,
            inject_forward=fresh.injected_forward.append,
        )
        fresh.syn()
        fresh.data(NEUTRAL)
        assert (SERVER, 80) not in policy.blocked_endpoints

    def test_different_port_not_blocked(self):
        engine, policy = self.blocking_engine(endpoint_block_threshold=2)
        for sport in (40_320, 40_321):
            driver = Driver(engine, sport=sport)
            driver.syn()
            driver.data(GET)
        fresh = Driver(engine, sport=40_322, dport=8080)
        fresh.syn()
        assert not [p for p in fresh.injected_back if p.tcp and p.tcp.flags & TCPFlags.RST]


class TestStatelessMode:
    def stateless_engine(self):
        return make_engine(
            rules=[
                MatchRule(
                    name="censored",
                    keywords=[b"video.example.com"],
                    ports=frozenset({80}),
                    policy=RulePolicy.block_with_page(),
                )
            ],
            track_flows=False,
            match_and_forget=False,
            require_protocol_anchor=False,
            ports=frozenset({80}),
        )

    def test_matches_without_syn(self):
        engine, _ = self.stateless_engine()
        driver = Driver(engine)
        driver.data(GET)  # no handshake at all
        assert driver.injected_back  # block page + RSTs

    def test_every_packet_inspected(self):
        engine, _ = self.stateless_engine()
        driver = Driver(engine)
        driver.syn()
        for _ in range(12):
            driver.data(b"padding-padding")
        driver.injected_back.clear()
        driver.data(GET)  # way past any window
        assert driver.injected_back

    def test_inert_packet_with_blocked_content_triggers(self):
        """Table 3 footnote 3: Iran blocks on inert packets too."""
        engine, _ = self.stateless_engine()
        driver = Driver(engine)
        driver.syn()
        driver.data(GET, advance=False, checksum=0xDEAD)  # invalid but inspected
        assert driver.injected_back

    def test_port_scoped(self):
        engine, _ = self.stateless_engine()
        driver = Driver(engine, dport=8080)
        driver.data(GET)
        assert not driver.injected_back
