"""The in-process workloads: one pass each, with its correctness gate.

``setup`` builds every environment the workload uses once, so set-up time
covers the environment factories.  A pass returns its simulated packet count,
the checks it attempted and failed, and any simulated counts it produced.
Every pass of a workload does identical simulated work; the seed only orders
independent units (Table 3 columns, characterization cases), which does not
change any result.
"""

from __future__ import annotations

import random

from repro.core.deployment import FallbackLadder
from repro.core.pipeline import Liberate
from repro.core.proxy_server import payload_trace
from repro.envs import ENVIRONMENT_FACTORIES, make_neutral
from repro.experiments.efficiency import ALL_CASES
from repro.experiments.scale import ScaleConfig, build_engine, run_scale
from repro.experiments.table3 import TABLE3_ENVS, compare_with_paper, run_table3
from repro.netsim.path import packets_propagated
from repro.traffic.http import http_get_trace, http_request
from repro.traffic.trace import invert_bits

#: Table 3 cells the paper reports (26 techniques x 12 columns).
PAPER_CELLS = 312

#: Per §6 case: (rounds, bytes used, matching fields, server-side fields).
CHARACTERIZE_PINNED = {
    "testbed-http": (61, 70574, ("pkt0[0:3]='GET'", "pkt0[22:39]='video.example.com'"), ()),
    "testbed-skype": (
        44,
        9557,
        ("pkt0[4:8]='!\\x12\xa4B'", "pkt0[22:24]='\\x00\\x05'", "pkt0[32:36]='\\x80U\\x00\\x04'"),
        (),
    ),
    "tmobile": (55, 13766586, ("pkt0[0:3]='GET'", "pkt0[47:61]='cloudfront.net'"), ()),
    "att": (
        92,
        27626945,
        ("pkt0[0:3]='GET'", "pkt0[28:36]='HTTP/1.1'"),
        ("pkt0[17:36]='Content-Type: video'",),
    ),
    "gfc": (48, 61461, ("pkt0[0:3]='GET'", "pkt0[22:35]='economist.com'"), ()),
    "iran": (43, 119344, ("pkt0[22:34]='facebook.com'",), ()),
}

#: 20k flows through the default 8,192-entry flow table, with idle jumps
#: after flows 10k and 20k.
CHURN_CONFIG = ScaleConfig(flows=20_000, idle_every=10_000)
CHURN_PINNED = {"evictions": 3617, "expired": 16384, "matches": 2500}

#: The ``liberate serve`` defaults: environment, workload host and body size,
#: ladder window and failure threshold, and the proxy's engine flow bound.
SERVE_ENV = "testbed"
SERVE_HOST = "video.example.com"
SERVE_BODY = 2_000
SERVE_WINDOW, SERVE_THRESHOLD, SERVE_FLOW_BOUND = 5, 3, 512
#: Distinct request paths per seed; each flow sends one, matching or inverted.
DISTINCT_PATHS = 32
#: Verdict fields a judged flow must share with the simulated ladder's.
VERDICT_FIELDS = ("technique", "evaded", "differentiated", "delivered_ok", "rung")


def serve_payloads(seed: int) -> list[bytes]:
    """Seeded matching requests followed by their bit-inverted controls."""
    rng = random.Random(seed)
    matching = [
        http_request(SERVE_HOST, "/" + "".join(rng.choices("abcdefghijklmnop", k=rng.randint(1, 24))))
        for _ in range(DISTINCT_PATHS)
    ]
    return matching + [invert_bits(payload) for payload in matching]


def serve_env():
    """The serving environment, with the proxy's bound on engine flow state."""
    env = ENVIRONMENT_FACTORIES[SERVE_ENV](faults=None)
    for element in env.path.elements:
        bound = getattr(element, "bound_flow_state", None)
        if bound is not None:
            bound(SERVE_FLOW_BOUND, match_log_bound=SERVE_FLOW_BOUND)
    return env


def serve_ladder():
    """(ladder, server port) deployed as ``liberate serve`` deploys it."""
    base = http_get_trace(SERVE_HOST, response_body=b"x" * SERVE_BODY)
    ladder = Liberate(serve_env()).deploy_ladder(
        base, window=SERVE_WINDOW, failure_threshold=SERVE_THRESHOLD
    )
    return ladder, base.server_port


def judge(ladder, port: int, payload: bytes, name: str) -> dict:
    """One flow through *ladder*, as the proxy judges it; the verdict fields."""
    outcome = ladder.run_flow(payload_trace(payload, name, port))
    return {
        "technique": outcome.technique,
        "evaded": outcome.evaded,
        "differentiated": outcome.differentiated,
        "delivered_ok": outcome.delivered_ok,
        "rung": ladder.rung,
    }


def simulated_verdicts(payloads: list[bytes]) -> tuple[list[dict], list[int]]:
    """The verdict and simulated packet count a fresh ladder gives each payload."""
    ladder, port = serve_ladder()
    verdicts, packets = [], []
    for index, payload in enumerate(payloads):
        before = packets_propagated()
        verdicts.append(judge(ladder, port, payload, f"oracle-{index}"))
        packets.append(packets_propagated() - before)
    return verdicts, packets


class Table3:
    """``run_table3(characterize=False)``: 26 techniques x 5 envs + OS matrix."""

    packets_per_pass = 9362
    #: The call whose host time is one verdict: a replayed flow.
    verdict_call = ("repro.replay.session", "ReplaySession", "run")

    def __init__(self, seed: int) -> None:
        self.envs = tuple(random.Random(seed).sample(TABLE3_ENVS, len(TABLE3_ENVS)))

    def setup(self) -> None:
        for name in self.envs:
            ENVIRONMENT_FACTORIES[name]()
        make_neutral()

    def run_pass(self) -> dict:
        before = packets_propagated()
        agree, _total, _mismatches = compare_with_paper(
            run_table3(env_names=self.envs, characterize=False)
        )
        return {
            "packets": packets_propagated() - before,
            "attempted": PAPER_CELLS,
            "failed": PAPER_CELLS - agree,
            "counts": {},
        }


class Characterize:
    """``Characterizer.run`` on the six §6 efficiency cases."""

    packets_per_pass = 31165
    verdict_call = ("repro.replay.session", "ReplaySession", "run")

    def __init__(self, seed: int) -> None:
        self.cases = random.Random(seed).sample(sorted(CHARACTERIZE_PINNED), len(CHARACTERIZE_PINNED))

    def setup(self) -> None:
        for name in dict.fromkeys(case.split("-")[0] for case in self.cases):
            ENVIRONMENT_FACTORIES[name]()

    def run_pass(self) -> dict:
        before = packets_propagated()
        failed = rounds = used = 0
        for case in self.cases:
            result = ALL_CASES[case]()
            rounds += result.rounds
            used += result.bytes_used
            got = (
                result.rounds,
                result.bytes_used,
                tuple(result.matching_fields),
                tuple(result.server_side_fields),
            )
            failed += got != CHARACTERIZE_PINNED[case]
        return {
            "packets": packets_propagated() - before,
            "attempted": len(self.cases),
            "failed": failed,
            "counts": {"core.characterize.rounds": rounds, "core.characterize.bytes": used},
        }


class Churn:
    """``run_scale`` with a fixed config: flow-table inserts, evictions, expiry."""

    packets_per_pass = 79938
    #: One verdict per packet: the engine's forward/drop decision.
    verdict_call = ("repro.middlebox.engine", "DPIMiddlebox", "process")

    def __init__(self, seed: int) -> None:
        # The input is fixed: its counters are pinned.  The seed changes nothing.
        del seed

    def setup(self) -> None:
        build_engine(CHURN_CONFIG)

    def run_pass(self) -> dict:
        result = run_scale(CHURN_CONFIG)
        return {
            "packets": result.packets,
            "attempted": len(CHURN_PINNED),
            "failed": sum(getattr(result, key) != want for key, want in CHURN_PINNED.items()),
            "counts": {},
        }


class Judge:
    """``FallbackLadder.run_flow`` in-process on the serve workload's payloads.

    The live proxy's per-flow work without its sockets: the ladder
    ``liberate serve`` deploys judges a seeded mix of matching and inverted
    requests, and every verdict must equal the one a fresh ladder gives the
    same payload.  Set-up deploys the ladder once; each pass puts its
    techniques on a fresh environment, because one environment runs out of
    client source ports after 25,535 replays (``Environment.next_sport``
    counts up from 40,000 and never wraps), which a 20-second run passes.
    """

    #: Packets per pass depend on the seed's payloads; they must repeat.
    packets_per_pass = None
    verdict_call = ("repro.core.deployment", "FallbackLadder", "run_flow")
    flows_per_pass = 512
    #: Flows arrive at this rate (per reference second, Poisson) at one judge;
    #: a flow's verdict latency is its wait in that queue plus its judge time.
    arrival_rate = 600.0

    def __init__(self, seed: int) -> None:
        self.payloads = serve_payloads(seed)
        rng = random.Random(seed ^ 0x5EED)
        self.flows = [rng.randrange(len(self.payloads)) for _ in range(self.flows_per_pass)]

    def setup(self) -> None:
        deployed, self.port = serve_ladder()
        self.techniques, self.context = deployed.techniques, deployed.context
        self.expected, _packets = simulated_verdicts(self.payloads)

    def run_pass(self) -> dict:
        before = packets_propagated()
        ladder = FallbackLadder(
            serve_env(),
            self.techniques,
            self.context,
            window=SERVE_WINDOW,
            failure_threshold=SERVE_THRESHOLD,
        )
        failed = 0
        for flow, index in enumerate(self.flows):
            verdict = judge(ladder, self.port, self.payloads[index], f"live-{flow}")
            failed += verdict != self.expected[index]
        return {
            "packets": packets_propagated() - before,
            "attempted": len(self.flows),
            "failed": failed,
            "counts": {},
        }


WORKLOADS = {"table3": Table3, "characterize": Characterize, "churn": Churn, "judge": Judge}
