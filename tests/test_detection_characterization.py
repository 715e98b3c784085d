"""Tests for phases 1-2: detection and characterization."""

import random

import pytest

from repro.core.characterization import CharacterizationError, Characterizer
from repro.core.detection import detect_differentiation
from repro.traffic.http import http_get_trace


class TestDetection:
    def test_testbed_content_based(self, testbed, classified_trace):
        report = detect_differentiation(testbed, classified_trace)
        assert report.differentiated
        assert report.content_based
        assert report.rounds == 2
        assert report.bytes_used == 2 * classified_trace.total_bytes()

    def test_testbed_neutral_clean(self, testbed, neutral_trace):
        report = detect_differentiation(testbed, neutral_trace)
        assert not report.differentiated
        assert "no differentiation" in report.summary()

    def test_gfc_detection(self, gfc, censored_trace):
        report = detect_differentiation(gfc, censored_trace)
        assert report.differentiated and report.content_based
        assert report.signal == "rst"

    def test_iran_detection(self, iran, iran_trace):
        report = detect_differentiation(iran, iran_trace)
        assert report.differentiated and report.content_based
        assert report.signal == "block-page"

    def test_sprint_nothing(self, sprint, video_trace):
        report = detect_differentiation(sprint, video_trace)
        assert not report.differentiated

    def test_udp_detection(self, testbed, skype_trace):
        report = detect_differentiation(testbed, skype_trace)
        assert report.differentiated and report.content_based


class TestCharacterizerFields:
    def test_testbed_finds_host_and_anchor(self, testbed, classified_trace):
        fields = Characterizer(testbed, classified_trace).find_matching_fields()
        contents = [f.content for f in fields]
        assert b"video.example.com" in contents
        assert b"GET" in contents

    def test_fields_are_byte_exact(self, testbed, classified_trace):
        fields = Characterizer(testbed, classified_trace).find_matching_fields()
        host_field = next(f for f in fields if f.content == b"video.example.com")
        payload = classified_trace.client_payloads()[0]
        assert payload[host_field.start : host_field.end] == b"video.example.com"

    def test_gfc_requires_rotation(self, gfc, censored_trace):
        characterizer = Characterizer(gfc, censored_trace)
        assert characterizer.rotate_ports  # inherited from the env
        fields = characterizer.find_matching_fields()
        assert b"economist.com" in [f.content for f in fields]

    def test_iran_single_keyword(self, iran, iran_trace):
        fields = Characterizer(iran, iran_trace).find_matching_fields()
        assert [f.content for f in fields] == [b"facebook.com"]

    def test_stun_fields_not_human_readable(self, testbed, skype_trace):
        """§6.1: the Skype rule matches binary STUN structure, incl. 0x8055."""
        fields = Characterizer(testbed, skype_trace).find_matching_fields()
        joined = b"".join(f.content for f in fields)
        assert b"\x80\x55" in joined  # MS-SERVICE-QUALITY attribute type
        assert all(f.packet_index == 0 for f in fields)

    def test_undifferentiated_trace_raises(self, testbed, neutral_trace):
        with pytest.raises(CharacterizationError):
            Characterizer(testbed, neutral_trace).find_matching_fields()

    def test_round_accounting(self, testbed, classified_trace):
        characterizer = Characterizer(testbed, classified_trace)
        characterizer.find_matching_fields()
        assert characterizer.rounds > 0
        assert characterizer.bytes_used >= characterizer.rounds * 10

    def test_rounds_in_paper_ballpark(self, testbed, classified_trace):
        """§6.1: at most 70 rounds for HTTP traffic."""
        characterizer = Characterizer(testbed, classified_trace)
        characterizer.run()
        assert characterizer.rounds <= 90  # paper: <=70; same order


class TestCharacterizerLimits:
    def test_testbed_prepend_sensitivity(self, testbed, classified_trace):
        report = Characterizer(testbed, classified_trace).probe_position_limits()
        assert report.prepend_sensitivity == 1  # anchored classifier
        assert report.match_and_forget
        assert not report.inspects_all_packets

    def test_iran_inspects_all(self, iran, iran_trace):
        report = Characterizer(iran, iran_trace).probe_position_limits()
        assert report.inspects_all_packets
        assert not report.match_and_forget
        assert report.packet_limit is None

    def test_packet_based_limit_detected(self, testbed, classified_trace):
        report = Characterizer(testbed, classified_trace).probe_position_limits()
        assert report.limit_is_packet_based

    def test_full_run_combines(self, testbed, classified_trace):
        report = Characterizer(testbed, classified_trace).run()
        assert report.matching_fields
        assert report.rounds > 0
        assert report.summary()

    def test_server_side_fields_att(self, att):
        from repro.traffic.video import video_stream_trace

        trace = video_stream_trace(host="video.nbcsports.com", total_bytes=120_000)
        report = Characterizer(att, trace).run(include_server_side=True)
        assert b"Content-Type: video" in [f.content for f in report.server_side_fields]


class TestRandomPayload:
    @staticmethod
    def per_byte(rng, size):
        """The original one-``randrange``-per-byte draw."""
        return bytes(rng.randrange(256) for _ in range(size))

    def test_batched_draw_matches_per_byte_loop(self, testbed, classified_trace):
        characterizer = Characterizer(testbed, classified_trace)
        for seed in range(100):
            for size in (0, 1, 2, 3, 7, 100, 1460, 5000):
                reference = random.Random(seed)
                characterizer._rng = random.Random(seed)
                assert characterizer._random_payload(size) == self.per_byte(reference, size)
                # Same generator state afterwards: later draws stay identical.
                assert characterizer._rng.getstate() == reference.getstate()
