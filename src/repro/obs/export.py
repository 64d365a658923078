"""Serialize a run's self-telemetry: JSON-lines and Chrome trace format.

Two consumers, two shapes:

* :func:`write_jsonl` — one JSON object per line (a ``meta`` line, then
  every counter/gauge/histogram series, every span rollup and every
  retained span), the archival form CI and benchmark sidecars keep;
* :func:`write_chrome_trace` — the Trace Event Format, following the same
  conventions as :mod:`repro.io.chrometrace` (microsecond ``ts``/``dur``,
  a ``traceEvents`` envelope, process-name metadata), so the pipeline's own
  execution opens in Perfetto exactly like the simulated kernel's traces.
  Spans become complete ("X") slices per (pid, tid); metric series and
  span rollups become counter ("C") tracks.
* :func:`prometheus_text` — the Prometheus text exposition format
  (counters as ``_total``, histograms with cumulative ``_bucket{le=...}``
  plus ``_sum``/``_count``), so any scraper or Grafana agent can ingest a
  capture; ``lttng-noise obs export --format prom`` is the CLI surface.

:func:`read_jsonl` reads a ``write_jsonl`` capture back into snapshot
shape, which is what lets ``obs export`` re-target a saved capture and
``obs diff`` compare two of them.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional

from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    series_key,
    span_rollup_of,
)


def snapshot(registry: Optional[MetricsRegistry] = None) -> Dict[str, Any]:
    """The registry's current contents as plain data."""
    return (registry if registry is not None else REGISTRY).snapshot()


def _series_key(entry: Dict[str, Any]) -> str:
    return series_key(entry["name"], entry.get("labels"))


# ----------------------------------------------------------------------
# JSON-lines
# ----------------------------------------------------------------------

def write_jsonl(path: str, snap: Optional[Dict[str, Any]] = None) -> int:
    """Write the snapshot as JSON-lines; returns the number of lines."""
    snap = snap if snap is not None else snapshot()
    lines: List[str] = [json.dumps({"type": "meta", **snap["meta"]})]
    for kind in ("counters", "gauges", "histograms"):
        for entry in snap[kind]:
            lines.append(json.dumps({"type": kind[:-1], **entry}))
    for name, agg in sorted(span_rollup_of(snap).items()):
        lines.append(json.dumps({"type": "span_rollup", "name": name, **agg}))
    for entry in snap["spans"]:
        lines.append(json.dumps({"type": "span", **entry}))
    with open(path, "w") as fp:
        fp.write("\n".join(lines) + "\n")
    return len(lines)


def read_jsonl(path: str) -> Dict[str, Any]:
    """Read a :func:`write_jsonl` capture back into snapshot shape.

    The inverse of the writer (types ``meta`` / ``counter`` / ``gauge`` /
    ``histogram`` / ``span_rollup`` / ``span`` map back to the snapshot's
    sections; a capture without rollup lines gets them from its spans), so a
    saved ``--obs`` capture can be re-exported to another format or
    compared with ``obs diff``.  Unknown line types are ignored for
    forward compatibility.
    """
    snap: Dict[str, Any] = {
        "meta": {}, "counters": [], "gauges": [],
        "histograms": [], "spans": [],
    }
    sections = {
        "counter": "counters", "gauge": "gauges",
        "histogram": "histograms", "span": "spans",
    }
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: corrupt telemetry line"
                ) from exc
            kind = entry.pop("type", None)
            if kind == "meta":
                snap["meta"] = entry
            elif kind == "span_rollup":
                snap.setdefault("span_rollup", {})[entry.pop("name")] = entry
            elif kind in sections:
                snap[sections[kind]].append(entry)
    return snap


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

#: Metric-name prefix for every exposed series.
PROM_PREFIX = "lttng_noise_"

_PROM_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Series name → Prometheus metric name (dots and dashes become _)."""
    return PROM_PREFIX + _PROM_NAME_BAD.sub("_", name)


def _prom_labels(labels: Optional[Dict[str, Any]]) -> str:
    if not labels:
        return ""
    parts = []
    for k, v in sorted(labels.items()):
        key = _PROM_NAME_BAD.sub("_", str(k))
        val = str(v).replace("\\", r"\\").replace('"', r"\"")
        val = val.replace("\n", r"\n")
        parts.append(f'{key}="{val}"')
    return "{" + ",".join(parts) + "}"


def _prom_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))


def prometheus_text(snap: Optional[Dict[str, Any]] = None) -> str:
    """A snapshot in the Prometheus text exposition format (version 0.0.4).

    Counters are exposed with the conventional ``_total`` suffix,
    histograms with *cumulative* ``_bucket{le=...}`` series ending in
    ``le="+Inf"`` plus ``_sum`` and ``_count``, and span rollups as two
    gauges (``span_count`` / ``span_total_ms``) labeled by span name —
    enough for a Grafana dashboard to chart sweep progress and phase
    cost without any custom ingestion.
    """
    snap = snap if snap is not None else snapshot()
    lines: List[str] = []
    seen_families = set()

    def family(name: str, kind: str, help_text: str) -> None:
        if name in seen_families:
            return
        seen_families.add(name)
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    for entry in snap.get("counters", ()):
        name = _prom_name(entry["name"]) + "_total"
        family(name, "counter", f"counter {entry['name']}")
        lines.append(
            f"{name}{_prom_labels(entry.get('labels'))} "
            f"{_prom_number(entry['value'])}"
        )
    for entry in snap.get("gauges", ()):
        name = _prom_name(entry["name"])
        family(name, "gauge", f"gauge {entry['name']}")
        lines.append(
            f"{name}{_prom_labels(entry.get('labels'))} "
            f"{_prom_number(entry['value'])}"
        )
    for entry in snap.get("histograms", ()):
        name = _prom_name(entry["name"])
        family(name, "histogram", f"histogram {entry['name']}")
        labels = dict(entry.get("labels") or {})
        cumulative = 0
        bounds = list(entry["buckets"]) + [float("inf")]
        for bound, count in zip(bounds, entry["counts"]):
            cumulative += count
            le = dict(labels, le=_prom_number(float(bound)))
            lines.append(
                f"{name}_bucket{_prom_labels(le)} {cumulative}"
            )
        label_str = _prom_labels(labels)
        lines.append(f"{name}_sum{label_str} {_prom_number(entry['sum'])}")
        lines.append(f"{name}_count{label_str} {entry['count']}")
    span_rollup = span_rollup_of(snap)
    if span_rollup:
        cname = PROM_PREFIX + "span_count"
        tname = PROM_PREFIX + "span_total_ms"
        family(cname, "gauge", "finished spans per name")
        family(tname, "gauge", "total span wall time per name (ms)")
        for span_name in sorted(span_rollup):
            agg = span_rollup[span_name]
            labels_str = _prom_labels({"name": span_name})
            lines.append(
                f"{cname}{labels_str} {_prom_number(agg['count'])}"
            )
            lines.append(
                f"{tname}{labels_str} {_prom_number(agg['total_ns'] / 1e6)}"
            )
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------

def chrome_events(snap: Optional[Dict[str, Any]] = None) -> List[dict]:
    """Convert a telemetry snapshot into Trace Event Format dicts."""
    snap = snap if snap is not None else snapshot()
    epoch = snap["meta"]["epoch_ns"]
    own_pid = snap["meta"]["pid"]
    events: List[dict] = []
    last_us = 0.0
    pids = {own_pid}
    for s in snap["spans"]:
        ts = max(0.0, (s["start_ns"] - epoch) / 1000.0)
        dur = s["dur_ns"] / 1000.0
        last_us = max(last_us, ts + dur)
        pids.add(s["pid"])
        events.append(
            {
                "name": s["name"],
                "cat": "pipeline",
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": s["pid"],
                "tid": s["tid"],
                "args": {
                    "cpu_ms": s["cpu_ns"] / 1e6,
                    "mem_peak_kb": s["mem_peak_kb"],
                    "depth": s["depth"],
                    "error": s["error"],
                    **(s.get("labels") or {}),
                },
            }
        )
    # Metric series as counter tracks, sampled once at the profile's end so
    # Perfetto shows the final value alongside the span timeline.
    for kind in ("counters", "gauges"):
        for entry in snap[kind]:
            events.append(
                {
                    "name": _series_key(entry),
                    "cat": "metrics",
                    "ph": "C",
                    "ts": last_us,
                    "pid": own_pid,
                    "args": {"value": entry["value"]},
                }
            )
    for entry in snap["histograms"]:
        events.append(
            {
                "name": _series_key(entry),
                "cat": "metrics",
                "ph": "C",
                "ts": last_us,
                "pid": own_pid,
                "args": {"count": entry["count"], "sum": entry["sum"]},
            }
        )
    # Lifetime span totals: exact even when only recent spans were kept.
    for name, agg in sorted(span_rollup_of(snap).items()):
        events.append(
            {
                "name": f"span:{name}",
                "cat": "metrics",
                "ph": "C",
                "ts": last_us,
                "pid": own_pid,
                "args": {"count": agg["count"],
                         "total_ms": agg["total_ns"] / 1e6},
            }
        )
    for pid in sorted(pids):
        name = (
            "lttng-noise pipeline" if pid == own_pid else f"worker {pid}"
        )
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": name},
            }
        )
    return events


def write_chrome_trace(
    path: str, snap: Optional[Dict[str, Any]] = None
) -> int:
    """Write a Perfetto-loadable self-profile; returns the event count."""
    events = chrome_events(snap)
    payload = {"traceEvents": events, "displayTimeUnit": "ns"}
    with open(path, "w") as fp:
        json.dump(payload, fp)
    return len(events)


# ----------------------------------------------------------------------
# Compact aggregate (benchmark sidecars)
# ----------------------------------------------------------------------

def aggregate(snap: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Flatten a snapshot for embedding in benchmark JSON: scalar series
    keyed by ``name{labels}``, spans rolled up per name."""
    snap = snap if snap is not None else snapshot()
    spans = {
        name: {"count": agg["count"], "total_ms": agg["total_ns"] / 1e6,
               "max_ms": agg["max_ns"] / 1e6}
        for name, agg in span_rollup_of(snap).items()
    }
    return {
        "counters": {
            _series_key(e): e["value"] for e in snap["counters"]
        },
        "gauges": {_series_key(e): e["value"] for e in snap["gauges"]},
        "histograms": {
            _series_key(e): {"count": e["count"], "sum": e["sum"]}
            for e in snap["histograms"]
        },
        "spans": spans,
    }
