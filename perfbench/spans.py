"""Per-layer span tracing, installed from outside the program.

The traced run wraps the public entry points of each package (see
:data:`LAYERS`) before any environment is built.  Every wrapped call opens a
span — site, start, end, and the span that was open when it began — kept in
flat in-memory arrays and written out once at the end.  Self time is a span's
duration minus the time its child spans cover.

A call into the layer that is already innermost (``Path.send_batch_from_client``
calling ``self.send_from_client``, a timer ``advance`` cascading into
``schedule``) is re-entry: it runs inside the open span and is neither a new
span nor a new call, so nested calls are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Any, Callable

#: (layer, module, class or None for a module function, attribute names).
LAYERS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("core.characterize", "repro.core.characterization", "Characterizer", ("run",)),
    ("core.judge", "repro.core.deployment", "FallbackLadder", ("run_flow",)),
    ("replay", "repro.replay.session", "ReplaySession", ("run",)),
    (
        "netsim",
        "repro.netsim.path",
        "Path",
        ("send_from_client", "send_from_server", "send_batch_from_client", "run"),
    ),
    ("middlebox", "repro.middlebox.engine", "DPIMiddlebox", ("process",)),
    ("middlebox", "repro.middlebox.proxy", "TransparentHTTPProxy", ("process",)),
    ("middlebox", "repro.middlebox.normalizer", "TrafficNormalizer", ("process",)),
    ("middlebox", "repro.middlebox.accounting", "UsageCounter", ("process",)),
    ("endpoint", "repro.endpoint.tcpstack", "TCPServerStack", ("receive",)),
    ("endpoint", "repro.endpoint.udpstack", "UDPServerStack", ("receive",)),
    ("endpoint", "repro.endpoint.rawclient", "ClientCollector", ("receive",)),
    ("packets", "repro.packets.ip", "IPPacket", ("to_bytes",)),
    ("packets", "repro.packets.batch", None, ("serialize_batch",)),
)

#: Raw clients: every ``connect`` and ``send*`` method is a client call.
CLIENT_CLASSES = ("RawTCPClient", "RawUDPClient")
CLIENT_MODULE = "repro.endpoint.rawclient"

#: The engine module; whichever class it imports with ``schedule``,
#: ``cancel`` and ``advance`` methods is its timer structure.
ENGINE_MODULE = "repro.middlebox.engine"
TIMER_OPS = ("schedule", "cancel", "advance")

#: Sites whose span counts the traced run reports, by metric name.
COUNTED_SITES = {
    "core.judge.calls": ("core.judge", "run_flow"),
    "replay.sessions": ("replay", "run"),
    "middlebox.timer.arms": ("middlebox.timer", "schedule"),
    "middlebox.timer.cancels": ("middlebox.timer", "cancel"),
    "middlebox.timer.advances": ("middlebox.timer", "advance"),
}
#: Layers whose span count is a packet count, by metric name.
COUNTED_LAYERS = {
    "middlebox.packets": "middlebox",
    "endpoint.packets": "endpoint",
    "packets.serialize_calls": "packets",
}


class Tracer:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.layers: list[str] = []
        self.sites: list[tuple[str, str]] = []
        self.site_layer: list[int] = []
        self.site = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tags: dict[int, Any] = {}
        self._open: list[int] = []
        self._open_layer: list[int] = []

    def __len__(self) -> int:
        return len(self.site)

    def site_id(self, layer: str, op: str) -> int:
        key = (layer, op)
        if key in self.sites:
            return self.sites.index(key)
        if layer not in self.layers:
            self.layers.append(layer)
        self.sites.append(key)
        self.site_layer.append(self.layers.index(layer))
        return len(self.sites) - 1

    def wrap(
        self,
        layer: str,
        op: str,
        fn: Callable,
        tag: Callable[..., Any] | None = None,
    ) -> Callable:
        """*fn* recording one span per call into *layer* (re-entry excluded).

        *tag*, when given, maps the call's arguments to a value stored with
        the span (the judge's flow id).
        """
        sid = self.site_id(layer, op)
        lid = self.site_layer[sid]
        site, parent, start, end = self.site, self.parent, self.start, self.end
        open_spans, open_layer, tags, clock = self._open, self._open_layer, self.tags, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if open_layer and open_layer[-1] == lid:
                return fn(*args, **kwargs)
            index = len(site)
            site.append(sid)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0)
            if tag is not None:
                tags[index] = tag(*args, **kwargs)
            open_spans.append(index)
            open_layer.append(lid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                open_spans.pop()
                open_layer.pop()

        return span

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (times relative, ns)."""
        base = self.start[0] if len(self) else 0
        with open(path, "w", encoding="ascii") as out:
            out.write("# sites: " + " ".join(f"{i}={l}:{o}" for i, (l, o) in enumerate(self.sites)))
            out.write("\n# index\tsite\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self)):
                out.write(
                    f"{i}\t{self.site[i]}\t{self.parent[i]}\t"
                    f"{self.start[i] - base}\t{self.end[i] - base}\n"
                )


def self_times(parent, durations) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans are indexed in the order they opened, so a parent precedes its
    children; children of one span never overlap (one thread), so the
    difference is the part of the span no child covers.
    """
    child = [0] * len(durations)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += durations[i]
    return [d - c for d, c in zip(durations, child)]


def summarize(tracer: Tracer, lo: int = 0, hi: int | None = None) -> dict:
    """Per-layer self time, busy time and call counts for spans ``[lo, hi)``.

    Busy time sums only a layer's outermost spans — a span with an ancestor
    in the same layer (netsim → middlebox → netsim) is already inside it.
    The range must start at a top-level span boundary (a pass start).
    """
    hi = len(tracer) if hi is None else hi
    n = hi - lo
    parent = [p - lo if p >= lo else -1 for p in tracer.parent[lo:hi]]
    durations = [tracer.end[lo + i] - tracer.start[lo + i] for i in range(n)]
    own = self_times(parent, durations)
    layer_of = [tracer.site_layer[s] for s in tracer.site[lo:hi]]
    ancestors = [0] * n
    self_ns = dict.fromkeys(tracer.layers, 0)
    busy_ns = dict.fromkeys(tracer.layers, 0)
    calls = dict.fromkeys(tracer.layers, 0)
    site_calls = dict.fromkeys(tracer.sites, 0)
    for i in range(n):
        lid = layer_of[i]
        p = parent[i]
        if p >= 0:
            ancestors[i] = ancestors[p] | (1 << layer_of[p])
        name = tracer.layers[lid]
        self_ns[name] += own[i]
        calls[name] += 1
        site_calls[tracer.sites[tracer.site[lo + i]]] += 1
        if not (ancestors[i] >> lid) & 1:
            busy_ns[name] += durations[i]
    return {"self_ns": self_ns, "busy_ns": busy_ns, "calls": calls, "site_calls": site_calls}


def durations(tracer: Tracer, layer: str, lo: int = 0, hi: int | None = None) -> list[int]:
    """Durations (ns) of the spans of *layer* among spans ``[lo, hi)``."""
    hi = len(tracer) if hi is None else hi
    return [
        tracer.end[i] - tracer.start[i]
        for i in range(lo, hi)
        if tracer.layers[tracer.site_layer[tracer.site[i]]] == layer
    ]


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every loaded ``repro`` module global that is *original*."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _import_all_repro() -> None:
    """Import every ``repro`` module so by-name imports can be rebound."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _wrap_method(tracer: Tracer, layer: str, cls: type, attr: str, tag=None) -> None:
    setattr(cls, attr, tracer.wrap(layer, attr, getattr(cls, attr), tag=tag))


def timer_classes() -> list[type]:
    """The timer structure(s) the DPI engine module uses."""
    engine = importlib.import_module(ENGINE_MODULE)
    return [
        value
        for value in vars(engine).values()
        if isinstance(value, type) and all(callable(getattr(value, op, None)) for op in TIMER_OPS)
    ]


def judge_flow_id(_ladder, trace, *_args, **_kwargs) -> int | None:
    """The live flow id the proxy stamps into each judged trace's name."""
    name = getattr(trace, "name", "")
    prefix = "live-"
    return int(name[len(prefix):]) if name.startswith(prefix) else None


class Counters:
    """Engine and flow-table counters, harvested from constructor hooks."""

    def __init__(self) -> None:
        self.engines: list[Any] = []
        self.flow_tables: list[Any] = []

    def hook(self, cls: type, store: list, keep: Callable[[Any], bool] = lambda _obj: True) -> None:
        original = cls.__init__

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            if keep(obj):
                store.append(obj)

        cls.__init__ = init

    def read(self) -> dict[str, int]:
        """Totals over every engine and engine flow table built so far."""
        flows = evictions = removed = 0
        for table in self.flow_tables:
            stats = table.stats()
            flows += stats["inserts"]
            evictions += stats["evictions"]
            removed += stats["inserts"] - stats["evictions"] - stats["size"]
        return {
            "middlebox.flows": flows,
            "middlebox.evictions": evictions,
            "middlebox.expired": removed,
            "middlebox.matches": sum(e.matches_logged for e in self.engines),
        }

    def mark(self) -> tuple[int, int]:
        return len(self.engines), len(self.flow_tables)

    def forget_since(self, mark: tuple[int, int]) -> None:
        """Drop what was built after *mark* (a finished pass's engines)."""
        del self.engines[mark[0]:]
        del self.flow_tables[mark[1]:]


def install(tracer: Tracer) -> tuple[Counters, list[str]]:
    """Wrap every layer's public functions; returns counters and misses.

    Call before any environment is built.  A listed function the program
    no longer has is reported in the returned list, not raised, so the
    traced run still measures the layers that remain.
    """
    _import_all_repro()
    missing: list[str] = []
    for layer, module_name, class_name, attrs in LAYERS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name, None) if class_name else module
        for attr in attrs:
            target = f"{module_name}.{class_name + '.' if class_name else ''}{attr}"
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(target)
            elif class_name is None:
                _replace_everywhere(original, tracer.wrap(layer, attr, original))
            else:
                tag = judge_flow_id if layer == "core.judge" else None
                _wrap_method(tracer, layer, owner, attr, tag=tag)
    rawclient = importlib.import_module(CLIENT_MODULE)
    for class_name in CLIENT_CLASSES:
        cls = getattr(rawclient, class_name, None)
        if cls is None:
            missing.append(f"{CLIENT_MODULE}.{class_name}")
            continue
        for attr in sorted(vars(cls)):
            if (attr == "connect" or attr.startswith("send")) and callable(vars(cls)[attr]):
                _wrap_method(tracer, "endpoint.client", cls, attr)
    timers = timer_classes()
    if not timers:
        missing.append(f"{ENGINE_MODULE} timer structure")
    for cls in timers:
        for op in TIMER_OPS:
            _wrap_method(tracer, "middlebox.timer", cls, op)
    counters = Counters()
    engine_cls = getattr(importlib.import_module(ENGINE_MODULE), "DPIMiddlebox", None)
    flowtable = getattr(importlib.import_module("repro.middlebox.flowtable"), "FlowTable", None)
    if engine_cls is None or flowtable is None:
        missing.append("engine counters")
    else:
        counters.hook(engine_cls, counters.engines)
        counters.hook(flowtable, counters.flow_tables, keep=lambda t: t.name == "flows")
    return counters, missing


def layer_metrics(tracer: Tracer, summary: dict, wall_ns: int) -> dict[str, float]:
    """Self seconds and shares of wall time per layer, plus span counts."""
    metrics: dict[str, float] = {}
    layers = [layer for layer, *_ in LAYERS] + ["endpoint.client", "middlebox.timer"]
    total_share = 0.0
    for layer in dict.fromkeys(layers):
        own = summary["self_ns"].get(layer, 0)
        share = own / wall_ns if wall_ns else 0.0
        total_share += share
        metrics[f"{layer}.self_s"] = own / 1e9
        metrics[f"{layer}.share"] = share
    metrics["unattributed.share"] = 1.0 - total_share
    for name, key in COUNTED_SITES.items():
        metrics[name] = summary["site_calls"].get(key, 0)
    for name, layer in COUNTED_LAYERS.items():
        metrics[name] = summary["calls"].get(layer, 0)
    metrics["core.judge.busy_s"] = summary["busy_ns"].get("core.judge", 0) / 1e9
    arms = metrics["middlebox.timer.arms"]
    metrics["middlebox.timer.cancel_ratio"] = metrics["middlebox.timer.cancels"] / arms if arms else 0.0
    return metrics
