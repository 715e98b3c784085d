"""The self-contained HTML experiment dashboard (``liberate obs html``).

One run — one file.  The dashboard is a single HTML document with **zero
external dependencies**: styling is an inline ``<style>`` block, charts are
inline SVG (histogram sparklines, per-stage profile waterfalls, the
benchmark-history trend), and cell drill-downs use native
``<details>``/``<summary>`` — no JavaScript, no CDN, no network.  It renders
identically from ``file://`` on an air-gapped machine, which is the whole
point: an experiment artifact you can attach to CI or mail around.

The dashboard is a view over one **report model** (:func:`build_model`):
a plain JSON-ready dict combining whichever observability artifacts a run
produced — the trace summary (:meth:`repro.obs.analyze.TraceIndex.summary`), the metrics
snapshot, the profiler snapshot, the telemetry-event tally and the
benchmark history with its watchdog flags.  The model is embedded verbatim
in the page (``<script type="application/json">``) so downstream tooling
can recover exactly what was rendered; :func:`load_model` reads it back and
:func:`missing_metric_keys` powers the CI schema-drift check (fail the
build when the dashboard references a headline metric the snapshot no
longer carries).
"""

from __future__ import annotations

import html as _html
import json
from typing import IO, Sequence

#: Bumped whenever a model section is renamed or removed.
DASHBOARD_SCHEMA_VERSION = 1

#: Metric keys the dashboard's headline tiles reference.  Every key here
#: must exist in the snapshot of a traced + metered ``table3`` run; the CI
#: check (``liberate obs html --check``) fails when one goes missing, which
#: is how a silent metric rename gets caught before it blanks a tile.
HEADLINE_METRICS = (
    "table3.cells",
    "replay.runs",
    "mbx.rule_matches",
    "mbx.scan_bytes",
    "mbx.flows_created",
    # Automaton compilations are memoized per process, so the *lookup*
    # counter is the headline (present in every metered run); the
    # mbx.automaton.builds/states/patterns series ride along when a run
    # actually compiled.
    "mbx.automaton.lookups",
    "env.created",
)

#: Keys a model's ``coverage`` section must carry for its dashboard section
#: (and ``liberate obs coverage``) to render.  Checked by ``obs html
#: --check`` alongside the headline metrics whenever a dashboard embeds a
#: coverage snapshot.
COVERAGE_MODEL_KEYS = ("schema", "scopes", "automata", "matrix", "total_rule_hits")

_MODEL_ELEMENT_ID = "dashboard-model"


# ----------------------------------------------------------------------
# the shared report model
# ----------------------------------------------------------------------
def build_model(
    trace_summary: dict | None = None,
    metrics: dict | None = None,
    profile: dict | None = None,
    events: dict[str, int] | None = None,
    history: dict[str, list[dict]] | None = None,
    flags: Sequence[dict] | None = None,
    ops: dict | None = None,
    coverage: dict | None = None,
    title: str = "lib*erate experiment dashboard",
) -> dict:
    """Combine a run's observability artifacts into one JSON-ready model.

    Every argument is optional — the model (and the dashboard rendered from
    it) simply omits sections for artifacts the run did not produce.

    Args:
        trace_summary: :meth:`repro.obs.analyze.TraceIndex.summary` output.
        metrics: :meth:`repro.obs.metrics.MetricsRegistry.snapshot` output.
        profile: :meth:`repro.obs.profiling.Profiler.snapshot` output.
        events: :meth:`repro.obs.live.TelemetryBus.tally` output.
        history: :func:`repro.obs.history.load_history` output.
        flags: watchdog regression flags (``RegressionFlag.as_dict()``).
        ops: :meth:`repro.obs.ops.OpsRegistry.snapshot` output — wall-clock
            operational data, rendered in its own section and deliberately
            kept out of the deterministic ``metrics`` snapshot.
        coverage: :meth:`repro.obs.coverage.CoverageRecorder.snapshot`
            output — rule/automaton coverage plus the env × technique
            matrix.
        title: the page heading.
    """
    return {
        "schema": DASHBOARD_SCHEMA_VERSION,
        "title": title,
        "headline": list(HEADLINE_METRICS),
        "trace": trace_summary,
        "metrics": metrics,
        "profile": profile,
        "events": events,
        "history": history,
        "flags": list(flags) if flags is not None else None,
        "ops": ops,
        "coverage": coverage,
    }


def missing_metric_keys(model: dict) -> list[str]:
    """Headline metric keys the model's snapshot does not carry.

    The CI schema-drift check: a dashboard built from a metered run must
    have a value for every metric its headline tiles reference.  A model
    without a metrics section at all is fully missing (the check only runs
    against metered dashboards).
    """
    metrics = model.get("metrics")
    referenced = model.get("headline") or list(HEADLINE_METRICS)
    missing = (
        list(referenced)
        if not metrics
        else [key for key in referenced if key not in metrics]
    )
    # A dashboard that embeds a coverage snapshot must carry every section
    # the coverage renderer (and `obs coverage`) reads from it.
    coverage = model.get("coverage")
    if coverage:
        missing.extend(
            f"coverage.{key}" for key in COVERAGE_MODEL_KEYS if key not in coverage
        )
    return missing


def load_model(path: str) -> dict:
    """Recover the embedded report model from a rendered dashboard file."""
    with open(path, encoding="utf-8") as handle:
        page = handle.read()
    marker = f'<script type="application/json" id="{_MODEL_ELEMENT_ID}">'
    start = page.find(marker)
    if start < 0:
        raise ValueError(f"{path}: no embedded dashboard model found")
    start += len(marker)
    end = page.find("</script>", start)
    if end < 0:
        raise ValueError(f"{path}: embedded dashboard model is truncated")
    return json.loads(page[start:end])


# ----------------------------------------------------------------------
# SVG helpers (inline, no external assets)
# ----------------------------------------------------------------------
def _esc(value: object) -> str:
    return _html.escape(str(value), quote=True)


def _spark_bars(values: Sequence[float], width: int = 120, height: int = 28) -> str:
    """An inline-SVG bar sparkline (histogram buckets)."""
    if not values:
        return ""
    peak = max(values) or 1
    step = width / len(values)
    bars = []
    for index, value in enumerate(values):
        bar_height = round(value / peak * (height - 2), 2)
        bars.append(
            f'<rect x="{round(index * step + 0.5, 2)}" '
            f'y="{round(height - bar_height, 2)}" '
            f'width="{round(step - 1, 2)}" height="{bar_height}" class="bar"/>'
        )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">' + "".join(bars) + "</svg>"
    )


def _spark_line(values: Sequence[float], width: int = 220, height: int = 36) -> str:
    """An inline-SVG polyline sparkline (benchmark-history trend)."""
    if not values:
        return ""
    if len(values) == 1:
        values = list(values) * 2
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    step = width / (len(values) - 1)
    points = " ".join(
        f"{round(i * step, 2)},{round(height - 3 - (v - low) / span * (height - 6), 2)}"
        for i, v in enumerate(values)
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f'<polyline points="{points}" class="trend"/></svg>'
    )


def _waterfall(profile: dict) -> str:
    """Per-stage horizontal bars, scaled to the slowest stage's wall time."""
    # Non-dict entries (e.g. the peak_rss_kb summary fact) are not stages.
    stages = sorted((k, v) for k, v in profile.items() if isinstance(v, dict))
    peak = max((s.get("wall_seconds", 0.0) for _, s in stages), default=0.0) or 1.0
    rows = []
    for name, stage in stages:
        wall = stage.get("wall_seconds", 0.0)
        cpu = stage.get("cpu_seconds", 0.0)
        calls = stage.get("calls", 0)
        wall_px = max(round(wall / peak * 260, 1), 1)
        cpu_px = max(round(min(cpu, wall) / peak * 260, 1), 0)
        rows.append(
            "<tr>"
            f"<td><code>{_esc(name)}</code></td>"
            f'<td><svg width="260" height="14" viewBox="0 0 260 14">'
            f'<rect x="0" y="2" width="{wall_px}" height="10" class="wall"/>'
            f'<rect x="0" y="2" width="{cpu_px}" height="10" class="cpu"/></svg></td>'
            f"<td class=\"num\">{wall:.4f}s</td>"
            f"<td class=\"num\">{cpu:.4f}s</td>"
            f"<td class=\"num\">{calls}</td>"
            "</tr>"
        )
    return (
        '<table><thead><tr><th>stage</th><th>waterfall (wall / cpu)</th>'
        "<th>wall</th><th>cpu</th><th>calls</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


# ----------------------------------------------------------------------
# section renderers
# ----------------------------------------------------------------------
def _section(title: str, body: str) -> str:
    return f"<section><h2>{_esc(title)}</h2>{body}</section>"


def _headline_section(model: dict) -> str:
    metrics = model.get("metrics")
    if not metrics:
        return ""
    tiles = []
    for key in model.get("headline") or HEADLINE_METRICS:
        value = metrics.get(key)
        if value is None:
            continue
        if isinstance(value, dict):  # a histogram headline: show its count
            value = value.get("count", "?")
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        tiles.append(
            f'<div class="tile"><div class="tile-value">{_esc(value)}</div>'
            f'<div class="tile-key">{_esc(key)}</div></div>'
        )
    if not tiles:
        return ""
    return _section("Headline metrics", f'<div class="tiles">{"".join(tiles)}</div>')


def _cells_section(model: dict) -> str:
    trace = model.get("trace") or {}
    cells = [c for c in trace.get("cells") or [] if c.get("kind") == "table3.cell"]
    samples = [c for c in trace.get("cells") or [] if c.get("kind") == "figure4.sample"]
    parts = []
    if cells:
        envs: list[str] = []
        techniques: list[str] = []
        by_key: dict[tuple[str, str], dict] = {}
        for cell in cells:
            env, technique = str(cell.get("env")), str(cell.get("technique"))
            if env not in envs:
                envs.append(env)
            if technique not in techniques:
                techniques.append(technique)
            by_key[(env, technique)] = cell
        head = "<tr><th>technique</th>" + "".join(
            f"<th>{_esc(env)}</th>" for env in envs
        ) + "</tr>"
        rows = []
        for technique in techniques:
            tds = [f"<td><code>{_esc(technique)}</code></td>"]
            for env in envs:
                cell = by_key.get((env, technique))
                if cell is None:
                    tds.append("<td>·</td>")
                    continue
                cc, rs = str(cell.get("cc", "?")), str(cell.get("rs", "?"))
                klass = "ok" if cc.startswith("Y") else "na" if cc == "-" else "bad"
                detail = "".join(
                    f"<div><b>{_esc(k)}</b>: {_esc(v)}</div>"
                    for k, v in sorted(cell.items())
                    if k not in ("kind",)
                )
                tds.append(
                    f'<td class="{klass}"><details><summary>CC={_esc(cc)} '
                    f"RS={_esc(rs)}</summary>{detail}</details></td>"
                )
            rows.append("<tr>" + "".join(tds) + "</tr>")
        parts.append(
            f"<table><thead>{head}</thead><tbody>{''.join(rows)}</tbody></table>"
        )
    if samples:
        evaded = sum(1 for s in samples if s.get("min_delay") is not None)
        parts.append(
            f"<p>{len(samples)} figure-4 sample(s); {evaded} found a working "
            f"delay, {len(samples) - evaded} never evaded.</p>"
        )
    if not parts:
        return ""
    return _section("Experiment cells", "".join(parts))


def _metrics_section(model: dict) -> str:
    metrics = model.get("metrics")
    if not metrics:
        return ""
    rows = []
    for key, value in sorted(metrics.items()):
        if isinstance(value, dict):  # histogram: count/sum + bucket sparkline
            buckets = value.get("buckets") or {}
            counts = list(buckets.values())
            per_bucket = [
                counts[i] - (counts[i - 1] if i else 0) for i in range(len(counts))
            ]
            rendered = (
                f"count={_esc(value.get('count'))} sum={_esc(value.get('sum'))} "
                + _spark_bars(per_bucket)
            )
        else:
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            rendered = _esc(value)
        rows.append(
            f"<tr><td><code>{_esc(key)}</code></td><td>{rendered}</td></tr>"
        )
    return _section(
        "Metrics",
        "<table><thead><tr><th>series</th><th>value</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>",
    )


def _profile_section(model: dict) -> str:
    profile = model.get("profile")
    if not profile:
        return ""
    body = _waterfall(profile)
    peak = profile.get("peak_rss_kb")
    if peak:
        mib = peak / 1024
        body = (
            f'<p class="tile">peak RSS <strong>{mib:.1f} MiB</strong> '
            f"({_esc(peak)} KiB, max across processes)</p>" + body
        )
    return _section("Stage profile", body)


def _trace_section(model: dict) -> str:
    trace = model.get("trace")
    if not trace:
        return ""
    parts = [
        f"<p>{_esc(trace.get('events', 0))} events over "
        f"{_esc(trace.get('flows', 0))} flow(s).</p>"
    ]
    for section in ("kinds", "drops", "verdicts", "arq"):
        payload = trace.get(section)
        if not payload:
            continue
        rows = "".join(
            f"<tr><td><code>{_esc(k)}</code></td><td class=\"num\">{_esc(v)}</td></tr>"
            for k, v in payload.items()
        )
        parts.append(
            f"<h3>{_esc(section)}</h3><table><tbody>{rows}</tbody></table>"
        )
    rules = trace.get("rules")
    if rules:
        rows = "".join(
            f"<tr><td><code>{_esc(rule)}</code></td>"
            f"<td class=\"num\">{_esc(stats.get('matches'))}</td>"
            f"<td>{_esc(', '.join((stats.get('actions') or {}).keys()))}</td>"
            f"<td>{_esc(', '.join(stats.get('elements') or []))}</td></tr>"
            for rule, stats in rules.items()
        )
        parts.append(
            "<h3>rules</h3><table><thead><tr><th>rule</th><th>matches</th>"
            f"<th>actions</th><th>elements</th></tr></thead><tbody>{rows}</tbody></table>"
        )
    return _section("Flow trace", "".join(parts))


def _events_section(model: dict) -> str:
    events = model.get("events")
    if not events:
        return ""
    rows = "".join(
        f"<tr><td><code>{_esc(kind)}</code></td><td class=\"num\">{_esc(count)}</td></tr>"
        for kind, count in events.items()
    )
    return _section(
        "Telemetry events",
        f"<table><thead><tr><th>kind</th><th>count</th></tr></thead>"
        f"<tbody>{rows}</tbody></table>",
    )


def _ops_section(model: dict) -> str:
    """Wall-clock serving telemetry: latency percentiles + ops counters.

    Everything in this section comes from the segregated ops layer — it is
    real time, varies run to run, and is exactly what the deterministic
    metrics section must never contain.
    """
    ops = model.get("ops")
    if not ops:
        return ""
    parts = []
    uptime = ops.get("uptime_seconds")
    if uptime is not None:
        parts.append(
            '<div class="tiles"><div class="tile">'
            f'<div class="tile-value">{_esc(uptime)}s</div>'
            '<div class="tile-key">uptime</div></div></div>'
        )
    latency = ops.get("latency") or {}
    if latency:
        rows = []
        for name, summary in sorted(latency.items()):
            cells = "".join(
                f'<td class="num">{_esc(summary.get(key, ""))}</td>'
                for key in ("count", "p50_ms", "p90_ms", "p99_ms", "p999_ms", "max_ms")
            )
            rows.append(f"<tr><td><code>{_esc(name)}</code></td>{cells}</tr>")
        parts.append(
            "<table><thead><tr><th>recorder</th><th>count</th><th>p50 ms</th>"
            "<th>p90 ms</th><th>p99 ms</th><th>p99.9 ms</th><th>max ms</th>"
            f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
        )
    counters = ops.get("counters") or {}
    if counters:
        rows = "".join(
            f'<tr><td><code>{_esc(name)}</code></td><td class="num">{_esc(value)}</td></tr>'
            for name, value in sorted(counters.items())
        )
        parts.append(
            "<table><thead><tr><th>ops counter</th><th>value</th></tr></thead>"
            f"<tbody>{rows}</tbody></table>"
        )
    return _section("Live serving (wall clock)", "".join(parts))


def _coverage_section(model: dict) -> str:
    """Rule/automaton coverage: exercised vs. dead rules + the cell matrix.

    Renders the ``--coverage`` snapshot: one table per rule scope (dead
    rules highlighted — a registered rule no workload ever exercised is
    exactly what this section exists to surface), automaton state/edge
    visitation, and the env × technique coverage matrix.
    """
    coverage = model.get("coverage")
    if not coverage:
        return ""
    parts = []
    scopes = coverage.get("scopes") or {}
    for scope, stats in sorted(scopes.items()):
        dead = set(stats.get("dead") or [])
        hits = dict(stats.get("hits") or {})
        rows = "".join(
            f'<tr><td><code>{_esc(rule)}</code></td>'
            f'<td class="num">{_esc(count)}</td>'
            + (
                '<td class="bad">dead</td>'
                if rule in dead
                else '<td class="ok">exercised</td>'
            )
            + "</tr>"
            for rule, count in sorted(hits.items())
        )
        parts.append(
            f"<h3><code>{_esc(scope)}</code> — "
            f"{_esc(stats.get('exercised', 0))}/{_esc(stats.get('rules', 0))} "
            "rules exercised</h3>"
            "<table><thead><tr><th>rule</th><th>hits</th><th>status</th>"
            f"</tr></thead><tbody>{rows}</tbody></table>"
        )
    automata = coverage.get("automata") or {}
    if automata:
        rows = "".join(
            f'<tr><td><code>{_esc(digest)}</code></td>'
            f'<td class="num">{_esc(stats.get("patterns"))}</td>'
            f'<td class="num">{_esc(stats.get("states_visited"))} / '
            f'{_esc(stats.get("states"))}</td>'
            f'<td class="num">{_esc(stats.get("edges_walked"))}</td></tr>'
            for digest, stats in sorted(automata.items())
        )
        parts.append(
            "<h3>automata</h3><table><thead><tr><th>automaton</th>"
            "<th>patterns</th><th>states visited</th><th>edges walked</th>"
            f"</tr></thead><tbody>{rows}</tbody></table>"
        )
    matrix = coverage.get("matrix") or {}
    if matrix:
        envs: list[str] = []
        techniques: list[str] = []
        by_key: dict[tuple[str, str], dict] = {}
        for cell in matrix.values():
            env, technique = str(cell.get("env")), str(cell.get("technique"))
            if env not in envs:
                envs.append(env)
            if technique not in techniques:
                techniques.append(technique)
            by_key[(env, technique)] = cell
        head = "<tr><th>technique</th>" + "".join(
            f"<th>{_esc(env)}</th>" for env in sorted(envs)
        ) + "</tr>"
        rows = []
        for technique in sorted(techniques):
            tds = [f"<td><code>{_esc(technique)}</code></td>"]
            for env in sorted(envs):
                cell = by_key.get((env, technique))
                if cell is None:
                    tds.append("<td>·</td>")
                    continue
                rule_hits = cell.get("rule_hits", 0)
                rules = len(cell.get("rules") or [])
                klass = "ok" if rule_hits else "na"
                tds.append(
                    f'<td class="{klass}">{_esc(rule_hits)} hit(s), '
                    f"{rules} rule(s)</td>"
                )
            rows.append("<tr>" + "".join(tds) + "</tr>")
        parts.append(
            "<h3>coverage matrix (env × technique)</h3>"
            f"<table><thead>{head}</thead><tbody>{''.join(rows)}</tbody></table>"
        )
    total = coverage.get("total_rule_hits")
    if total is not None:
        parts.append(f"<p>{_esc(total)} rule hit(s) recorded in total.</p>")
    return _section("Rule coverage", "".join(parts))


def _history_section(model: dict) -> str:
    history = model.get("history")
    if not history:
        return ""
    flagged = {
        (flag.get("bench"), flag.get("key")) for flag in model.get("flags") or []
    }
    parts = []
    for bench, entries in sorted(history.items()):
        seconds = [
            entry.get("seconds")
            for entry in entries
            if isinstance(entry.get("seconds"), (int, float))
        ]
        marks = " ".join(
            f'<span class="flag">⚠ {_esc(key)}</span>'
            for (fbench, key) in sorted(flagged, key=str)
            if fbench == bench
        )
        parts.append(
            f"<h3><code>{_esc(bench)}</code> {marks}</h3>"
            + (_spark_line(seconds) if seconds else "<p>no timing history</p>")
            + (
                f"<p>{len(entries)} run(s); last "
                f"{seconds[-1]:.4f}s</p>"
                if seconds
                else ""
            )
        )
    flags = model.get("flags")
    if flags:
        rows = "".join(
            f"<tr><td><code>{_esc(f.get('bench'))}</code></td>"
            f"<td><code>{_esc(f.get('key'))}</code></td>"
            f"<td>{_esc(f.get('message'))}</td></tr>"
            for f in flags
        )
        parts.append(
            '<h3 class="flag">watchdog flags</h3>'
            "<table><thead><tr><th>bench</th><th>key</th><th>message</th></tr>"
            f"</thead><tbody>{rows}</tbody></table>"
        )
    return _section("Benchmark history", "".join(parts))


_STYLE = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem;
       padding: 0 1rem; color: #1b1f24; background: #fff; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #1b1f24; padding-bottom: .4rem; }
h2 { font-size: 1.1rem; margin-top: 2rem; }
h3 { font-size: .95rem; margin-bottom: .3rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #d0d7de; padding: .25rem .6rem; text-align: left; }
th { background: #f6f8fa; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
td.ok { background: #dafbe1; }
td.bad { background: #ffebe9; }
td.na { color: #8b949e; }
details > summary { cursor: pointer; }
.tiles { display: flex; flex-wrap: wrap; gap: .6rem; }
.tile { border: 1px solid #d0d7de; border-radius: 6px; padding: .5rem .9rem;
        background: #f6f8fa; }
.tile-value { font-size: 1.3rem; font-weight: 600; }
.tile-key { font-size: .75rem; color: #57606a; }
.spark .bar { fill: #0969da; }
.spark .trend { fill: none; stroke: #0969da; stroke-width: 1.5; }
svg .wall { fill: #d0d7de; }
svg .cpu { fill: #0969da; }
.flag { color: #9a6700; }
footer { margin-top: 2rem; font-size: .75rem; color: #57606a; }
"""


def render_dashboard(model: dict) -> str:
    """The model as one self-contained HTML page."""
    sections = "".join(
        renderer(model)
        for renderer in (
            _headline_section,
            _cells_section,
            _metrics_section,
            _profile_section,
            _trace_section,
            _events_section,
            _ops_section,
            _coverage_section,
            _history_section,
        )
    )
    if not sections:
        sections = "<p>(no observability artifacts in this run)</p>"
    embedded = json.dumps(model, sort_keys=True, separators=(",", ":"))
    # "</" may not appear inside a <script> block; JSON-escape it.
    embedded = embedded.replace("</", "<\\/")
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(model.get('title', 'dashboard'))}</title>\n"
        f"<style>{_STYLE}</style></head>\n"
        f"<body><h1>{_esc(model.get('title', 'dashboard'))}</h1>\n"
        f"{sections}\n"
        f"<footer>dashboard schema v{_esc(model.get('schema'))} — "
        "rendered by <code>repro.obs.report_html</code>, no external "
        "assets.</footer>\n"
        f'<script type="application/json" id="{_MODEL_ELEMENT_ID}">{embedded}</script>\n'
        "</body></html>\n"
    )


def write_dashboard(model: dict, target: str | IO[str]) -> str:
    """Render *model* and write it to *target* (path or handle)."""
    page = render_dashboard(model)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(page)
    else:
        target.write(page)
    return page
