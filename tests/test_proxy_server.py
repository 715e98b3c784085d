"""Live proxy integration: real asyncio sockets through the fallback ladder.

Three claims are pinned here: (1) a payload served over a loopback socket
gets exactly the verdict the simulated path gives the same payload, (2)
the server stays graceful under concurrency and overload — every client
receives a verdict line, shed flows fail open, (3) when the active
technique is killed mid-serve (the deployed classifier's rule changed),
the FallbackLadder steps down to the next-cheapest technique and service
recovers without dropping a connection.
"""

import asyncio
import json

import pytest

from repro.core.pipeline import Liberate
from repro.core.proxy_server import (
    ProxyServer,
    drive_clients,
    payload_trace,
    request_verdict,
)
from repro.envs import ENVIRONMENT_FACTORIES
from repro.middlebox.overload import OverloadPolicy
from repro.obs import flight as obs_flight
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.traffic.http import http_get_trace
from repro.traffic.trace import invert_bits


def make_ladder(window: int = 5, failure_threshold: int = 3):
    """A fresh testbed deployment ladder and its base workload trace."""
    env = ENVIRONMENT_FACTORIES["testbed"]()
    base = http_get_trace("video.example.com", response_body=b"x" * 800)
    ladder = Liberate(env).deploy_ladder(
        base, window=window, failure_threshold=failure_threshold
    )
    return ladder, base


class _KilledTechnique:
    """The active technique after the classifier's rule changed: it still
    runs, but its transform no longer hides anything (the replay is sent
    untransformed), so every matching flow is differentiated again."""

    def __init__(self, original):
        self.name = original.name
        self.category = original.category
        self.protocol = original.protocol
        self._original = original

    def applicable(self, ctx):
        return self._original.applicable(ctx)

    def estimated_overhead(self, ctx):
        return self._original.estimated_overhead(ctx)

    def apply(self, runner):
        runner.send_default()


async def _serve(server, coroutine):
    await server.start()
    try:
        return await coroutine(server)
    finally:
        await server.stop()


class TestVerdictEquivalence:
    def test_live_verdicts_match_the_simulated_path(self):
        ladder, base = make_ladder()
        server = ProxyServer(ladder, server_port=base.server_port)
        matching = base.client_payloads()[0]
        payloads = [matching, invert_bits(matching), matching, b"GET / HTTP/1.1\r\n\r\n"]

        async def drive(srv):
            out = []
            for payload in payloads:  # sequential: flow ids == payload order
                out.append(await request_verdict("127.0.0.1", srv.bound_port, payload))
            return out

        live = asyncio.run(_serve(server, drive))

        # The reference run: an identical fresh ladder fed the same flow
        # sequence through the simulator directly.
        reference_ladder, _ = make_ladder()
        for index, (payload, verdict) in enumerate(zip(payloads, live)):
            outcome = reference_ladder.run_flow(
                payload_trace(payload, f"live-{index}", base.server_port)
            )
            assert verdict["evaded"] == outcome.evaded
            assert verdict["differentiated"] == outcome.differentiated
            assert verdict["technique"] == outcome.technique
        assert reference_ladder.rung == ladder.rung

    def test_all_verdict_fields_present(self):
        ladder, base = make_ladder()
        server = ProxyServer(ladder, server_port=base.server_port)

        async def drive(srv):
            return await request_verdict(
                "127.0.0.1", srv.bound_port, base.client_payloads()[0]
            )

        verdict = asyncio.run(_serve(server, drive))
        assert set(verdict) == {
            "flow",
            "technique",
            "evaded",
            "differentiated",
            "delivered_ok",
            "rung",
        }


class TestConcurrency:
    def test_concurrent_clients_all_get_verdicts(self):
        ladder, base = make_ladder()
        server = ProxyServer(ladder, server_port=base.server_port, max_active=256)
        matching = base.client_payloads()[0]
        payloads = [
            matching if i % 2 == 0 else invert_bits(matching) for i in range(80)
        ]

        async def drive(srv):
            return await drive_clients(
                "127.0.0.1", srv.bound_port, payloads, concurrency=40
            )

        verdicts = asyncio.run(_serve(server, drive))
        assert len(verdicts) == len(payloads)
        assert all(v["evaded"] for v in verdicts)
        assert server.stats.flows == len(payloads)
        assert server.stats.evaded == len(payloads)
        assert server.stats.peak_active > 1  # genuinely concurrent
        assert server.snapshot()["ladder"]["flows_handled"] == len(payloads)

    def test_overload_sheds_deterministically_and_fails_open(self):
        ladder, base = make_ladder()
        server = ProxyServer(
            ladder,
            server_port=base.server_port,
            max_active=4,
            overload=OverloadPolicy(shed_start=0.25, shed_max=1.0),
        )
        payloads = [base.client_payloads()[0]] * 48

        async def drive(srv):
            return await drive_clients(
                "127.0.0.1", srv.bound_port, payloads, concurrency=48
            )

        verdicts = asyncio.run(_serve(server, drive))
        assert len(verdicts) == len(payloads)  # nobody was dropped
        shed = [v for v in verdicts if v.get("shed")]
        served = [v for v in verdicts if not v.get("shed")]
        assert shed, "expected admission shedding above the watermark"
        assert server.stats.shed == len(shed)
        assert all(v["evaded"] for v in served)

    def test_shed_flows_keep_no_state(self):
        ladder, base = make_ladder()
        server = ProxyServer(
            ladder,
            server_port=base.server_port,
            max_active=2,
            overload=OverloadPolicy(shed_start=0.1, shed_max=1.0),
        )
        payloads = [base.client_payloads()[0]] * 16

        async def drive(srv):
            return await drive_clients(
                "127.0.0.1", srv.bound_port, payloads, concurrency=16
            )

        asyncio.run(_serve(server, drive))
        # Shed flows never touch the ladder: its flow count is only the
        # admitted ones, and the recent-verdict window stays bounded.
        assert ladder.flows_handled == server.stats.flows - server.stats.shed
        assert server.stats.recent.maxlen == 64


class TestBoundedServe:
    def test_flow_table_bound_is_applied_to_the_path(self):
        ladder, base = make_ladder()
        server = ProxyServer(ladder, server_port=base.server_port, mbx_flow_bound=8)
        payloads = [base.client_payloads()[0]] * 40

        async def drive(srv):
            return await drive_clients("127.0.0.1", srv.bound_port, payloads)

        verdicts = asyncio.run(_serve(server, drive))
        assert all(v["evaded"] for v in verdicts)
        # The classifier tracked every flow but retains at most the bound:
        # live serving must not accumulate per-flow middlebox state.
        engine = ladder.env.dpi()
        assert engine is not None
        assert len(engine._flows) <= 8
        assert engine.max_flows == 8

    def test_streaming_driver_accumulates_nothing(self):
        ladder, base = make_ladder()
        server = ProxyServer(ladder, server_port=base.server_port)
        payloads = [base.client_payloads()[0]] * 12
        seen = []

        async def drive(srv):
            return await drive_clients(
                "127.0.0.1",
                srv.bound_port,
                payloads,
                concurrency=4,
                on_verdict=lambda i, v: seen.append((i, v["evaded"])),
            )

        returned = asyncio.run(_serve(server, drive))
        assert returned == []  # streamed, not accumulated
        assert sorted(i for i, _ in seen) == list(range(len(payloads)))
        assert all(ok for _, ok in seen)

    def test_multi_segment_payload_is_read_to_eof(self):
        # A payload larger than one TCP segment arrives in several chunks;
        # the server must judge the complete payload (prefix-judging would
        # also leave unread bytes that turn close() into an RST).
        ladder, base = make_ladder()
        server = ProxyServer(ladder, server_port=base.server_port)
        big = base.client_payloads()[0] + b"\x00" * 300_000

        async def drive(srv):
            return await request_verdict("127.0.0.1", srv.bound_port, big)

        verdict = asyncio.run(_serve(server, drive))
        reference_ladder, _ = make_ladder()
        outcome = reference_ladder.run_flow(payload_trace(big, "big", base.server_port))
        assert verdict["evaded"] == outcome.evaded
        assert verdict["differentiated"] == outcome.differentiated

    def test_payload_cap_truncates_but_closes_cleanly(self):
        ladder, base = make_ladder()
        server = ProxyServer(ladder, server_port=base.server_port, max_payload=1024)
        over_cap = b"A" * 4096

        async def drive(srv):
            return await request_verdict("127.0.0.1", srv.bound_port, over_cap)

        verdict = asyncio.run(_serve(server, drive))  # no reset, a verdict came back
        assert verdict["flow"] == 0


class TestStepDown:
    def test_killed_technique_steps_the_ladder_down_gracefully(self):
        ladder, base = make_ladder(window=4, failure_threshold=2)
        server = ProxyServer(ladder, server_port=base.server_port)
        matching = base.client_payloads()[0]
        first_rung = ladder.techniques[0].name
        second_rung = ladder.techniques[1].name

        async def drive(srv):
            healthy = [
                await request_verdict("127.0.0.1", srv.bound_port, matching)
                for _ in range(3)
            ]
            # The classifier operator updates their rules: the deployed
            # technique stops working mid-serve.
            ladder.techniques[0] = _KilledTechnique(ladder.techniques[0])
            degraded = [
                await request_verdict("127.0.0.1", srv.bound_port, matching)
                for _ in range(4)
            ]
            recovered = [
                await request_verdict("127.0.0.1", srv.bound_port, matching)
                for _ in range(3)
            ]
            return healthy, degraded, recovered

        healthy, degraded, recovered = asyncio.run(_serve(server, drive))
        assert all(v["evaded"] and v["rung"] == 0 for v in healthy)
        assert any(v["differentiated"] for v in degraded)  # the kill was real
        assert ladder.rung == 1
        assert ladder.step_downs[0].from_technique == first_rung
        assert ladder.step_downs[0].to_technique == second_rung
        assert server.stats.step_downs == 1
        assert all(v["evaded"] and v["rung"] == 1 for v in recovered)
        assert all(v["technique"] == second_rung for v in recovered)
        assert not ladder.exhausted


class TestJudgeErrors:
    def test_raising_judge_answers_fail_open_and_keeps_serving(self, tmp_path):
        ladder, base = make_ladder()
        server = ProxyServer(ladder, server_port=base.server_port)
        matching = base.client_payloads()[0]
        judge = ladder.run_flow
        calls = []

        def raising_once(trace, server_port=None):
            calls.append(trace.name)
            if len(calls) == 1:
                raise ValueError("judge blew up")
            return judge(trace, server_port)

        ladder.run_flow = raising_once

        async def drive(srv):
            failed = await request_verdict("127.0.0.1", srv.bound_port, matching)
            judged = await request_verdict("127.0.0.1", srv.bound_port, matching)
            return failed, judged

        obs_flight.enable_flight(tmp_path, sample_every=1)
        try:
            with obs_live.bus_on() as bus, obs_metrics.collecting() as registry:
                failed, judged = asyncio.run(_serve(server, drive))
            flight = obs_flight.FLIGHT.stats()
        finally:
            obs_flight.disable_flight()

        # A failed judgement is labelled, never reported as evaded or broken.
        assert failed == {"flow": 0, "judge_error": "ValueError"}
        assert judged["flow"] == 1 and judged["evaded"] is True
        assert server._active == 0
        assert server.stats.judge_errors == 1
        assert (server.stats.evaded, server.stats.broken) == (1, 0)
        assert server.snapshot()["judge_errors"] == 1
        assert registry.snapshot()["proxy.flows.judge_error"] == 1
        errors = [e.fields for e in bus.events if e.kind == "proxy.judge_error"]
        assert errors == [{"flow": 0, "error": "ValueError"}]
        assert flight["dumps"] == 1
        assert flight["open_episodes"] == ["judge_error"]


class TestLifecycle:
    def test_bound_port_requires_start(self):
        ladder, base = make_ladder()
        server = ProxyServer(ladder, server_port=base.server_port)
        with pytest.raises(RuntimeError):
            _ = server.bound_port

    def test_max_active_validation(self):
        ladder, _base = make_ladder()
        with pytest.raises(ValueError):
            ProxyServer(ladder, max_active=0)

    def test_verdict_line_is_json_with_newline(self):
        ladder, base = make_ladder()
        server = ProxyServer(ladder, server_port=base.server_port)

        async def drive(srv):
            reader, writer = await asyncio.open_connection("127.0.0.1", srv.bound_port)
            writer.write(base.client_payloads()[0])
            writer.write_eof()
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw

        raw = asyncio.run(_serve(server, drive))
        assert raw.endswith(b"\n")
        json.loads(raw)  # single well-formed JSON document
