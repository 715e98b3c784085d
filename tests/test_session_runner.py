"""Tests for the replay session/runner machinery itself."""

import pytest

from repro.core.evasion.base import EvasionContext
from repro.endpoint.rawclient import SegmentPlan
from repro.envs import make_testbed
from repro.replay.runner import make_inert_payload
from repro.replay.session import ReplaySession
from repro.traffic.http import http_get_trace
from repro.traffic.stun import stun_trace


class TestOutcomeFields:
    def test_clean_replay_outcome(self, testbed, neutral_trace):
        outcome = ReplaySession(testbed, neutral_trace).run()
        assert outcome.delivered_ok
        assert outcome.server_response_ok
        assert not outcome.blocked
        assert outcome.rst_count == 0
        assert outcome.bytes_used == neutral_trace.total_bytes()
        assert outcome.payload_reached_server
        assert outcome.inert_reached_server is None  # nothing inert sent

    def test_evaded_property(self, testbed, neutral_trace):
        outcome = ReplaySession(testbed, neutral_trace).run()
        assert outcome.evaded  # trivially: no differentiation, intact delivery

    def test_udp_outcome(self, testbed, skype_trace):
        outcome = ReplaySession(testbed, skype_trace).run()
        assert outcome.delivered_ok
        assert outcome.server_response_ok

    def test_ports_unique_across_sessions(self, testbed, neutral_trace):
        s1 = ReplaySession(testbed, neutral_trace)
        s2 = ReplaySession(testbed, neutral_trace)
        s1.run()
        s2.run()
        assert s1.sport != s2.sport

    def test_client_ports_wrap_within_the_valid_range(self, testbed, classified_trace):
        # A long-lived environment (live serve) outlasts 25,535 replays; the
        # port counter wraps instead of handing out port 65,536.
        expected = ReplaySession(make_testbed(), classified_trace).run()
        assert expected.differentiated
        testbed._sport_counter = 65_533
        sessions = [ReplaySession(testbed, classified_trace) for _ in range(4)]
        outcomes = [session.run() for session in sessions]
        assert [s.sport for s in sessions] == [65_534, 65_535, 40_001, 40_002]
        for outcome in outcomes:
            assert outcome.differentiated == expected.differentiated
            assert outcome.classification == expected.classification

    def test_server_port_override(self, testbed, neutral_trace):
        session = ReplaySession(testbed, neutral_trace, server_port=9999)
        session.run()
        assert session.server_port == 9999

    def test_technique_name_recorded(self, testbed, classified_trace):
        class _Named:
            name = "my-technique"

            def apply(self, runner):
                runner.send_default()

        outcome = ReplaySession(testbed, classified_trace).run(technique=_Named())
        assert outcome.technique == "my-technique"


class TestRunnerPrimitives:
    def make_runner(self, testbed, trace):
        session = ReplaySession(testbed, trace)

        captured = {}

        class _Capture:
            name = "capture"

            def apply(self, runner):
                captured["runner"] = runner
                runner.send_default()

        session.run(technique=_Capture())
        return captured["runner"]

    def test_overhead_accounting_for_inert(self, testbed, classified_trace):
        class _OneInert:
            name = "one-inert"

            def apply(self, runner):
                runner.send_inert(SegmentPlan(payload=make_inert_payload(32)))
                runner.send_default()

        outcome = ReplaySession(testbed, classified_trace).run(technique=_OneInert())
        assert outcome.overhead_packets == 1
        assert outcome.overhead_bytes > 32

    def test_pause_accounting(self, testbed, neutral_trace):
        class _Pause:
            name = "pause"

            def apply(self, runner):
                runner.pause(33.0)
                runner.send_default()

        outcome = ReplaySession(testbed, neutral_trace).run(technique=_Pause())
        assert outcome.overhead_seconds == 33.0
        assert outcome.elapsed >= 33.0

    def test_inert_marker_uniqueness(self):
        first = make_inert_payload(64, "x")
        second = make_inert_payload(64, "x")
        assert first != second
        assert len(first) == 64

    def test_send_pieces_preserves_stream(self, testbed, neutral_trace):
        class _Pieces:
            name = "pieces"

            def apply(self, runner):
                message = runner.client_messages[0]
                runner.send_pieces([(0, message[:10]), (10, message[10:])])

        outcome = ReplaySession(testbed, neutral_trace).run(technique=_Pieces())
        assert outcome.delivered_ok

    def test_tcp_helpers_reject_udp(self, testbed, skype_trace):
        class _Wrong:
            name = "wrong"

            def apply(self, runner):
                runner.send_message(b"x")

        with pytest.raises(TypeError):
            ReplaySession(testbed, skype_trace).run(technique=_Wrong())

    def test_tolerate_prefix_mode(self, testbed, classified_trace):
        """Bilateral deployment: dummy prefix byte plus server support (§6.5)."""

        class _DummyPrefix:
            name = "dummy-prefix"

            def apply(self, runner):
                runner.send_message(b"X")
                runner.send_default()

        outcome = ReplaySession(testbed, classified_trace, tolerate_prefix=True).run(
            technique=_DummyPrefix()
        )
        assert not outcome.differentiated  # the anchor broke
        assert outcome.delivered_ok  # the server skipped the prefix
