"""Process-local metrics registry: counters, gauges and histograms.

The pipeline observes itself with the same discipline the paper demands of
the kernel: always-on accounting cheap enough to leave enabled, exact
counters instead of sampled guesses, and honest loss/fallback bookkeeping.
The registry is dependency-free and process-local; cross-process runs (the
parallel runner's workers) each fill their own registry and the parent
merges the serialized snapshots.

Overhead discipline
-------------------
The registry has a global *no-op mode* (the default).  Instrumented call
sites guard with a single branch::

    if obs.enabled():
        obs.counter("cache.hit").inc()

and even unguarded calls are safe: a disabled registry hands out a shared
no-op metric, so nothing is allocated and no series appears.  Hot loops
(the simulator's per-event dispatch) carry no obs calls at all — they keep
plain integer tallies that boundary code reports when a run finishes.

Series identity is ``(name, sorted labels)``; labels are small string/int
scalars, in the spirit of Prometheus label sets.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

#: Environment flag: when set, the registry starts enabled.  ``enable()``
#: exports it so process-pool workers (spawn or fork) inherit obs mode.
OBS_ENV = "LTTNG_NOISE_OBS"

#: Default histogram bucket upper bounds (unitless; callers pick the unit).
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    float(10 ** e) for e in range(0, 10)
)

LabelItems = Tuple[Tuple[str, Any], ...]

#: Per-span-name lifetime totals: ``{"count", "total_ns", "max_ns"}``.
SpanRollup = Dict[str, Dict[str, int]]


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted(labels.items()))


def series_key(name: str, labels: Any) -> str:
    """Canonical flat key for one series: ``name{k=v,...}`` (sorted labels).

    The one spelling shared by exports, time-series samples and the
    ``obs diff`` comparison surface, so a metric keeps its identity from
    the instrumentation site all the way to a Prometheus scrape.
    """
    items = dict(labels) if labels else {}
    if not items:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(items.items()))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing tally."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-written value (occupancy, depth, rate...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n


class Histogram:
    """Bucketed distribution with exact count/sum/min/max."""

    __slots__ = (
        "name", "labels", "buckets", "counts", "count", "sum", "min", "max"
    )

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets or DEFAULT_BUCKETS))
        # counts[i] = observations <= buckets[i]; last slot is +inf overflow.
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value


class _NoopMetric:
    """Shared sink handed out while the registry is disabled."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NOOP = _NoopMetric()


class MetricsRegistry:
    """All of one process's self-telemetry: metric series plus span buffer."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, str, LabelItems], Any] = {}
        #: Finished :class:`~repro.obs.spans.SpanRecord` objects: all of
        #: them, or only the most recent ones after :meth:`keep_recent_spans`.
        self.spans: Union[List[Any], Deque[Any]] = []
        self._span_cap: Optional[int] = None
        #: Exact lifetime totals per span name, whatever ``spans`` retains.
        self.span_rollup: SpanRollup = {}
        #: perf_counter_ns at enable time — the chrome-trace time origin.
        self.epoch_ns = time.perf_counter_ns()
        self._owns_tracemalloc = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self, memory: bool = False) -> None:
        """Turn collection on (idempotent).  ``memory=True`` also starts
        tracemalloc so spans report traced-heap peaks instead of ru_maxrss."""
        if not self.enabled:
            self.enabled = True
            self.epoch_ns = time.perf_counter_ns()
        os.environ[OBS_ENV] = "1"
        if memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._owns_tracemalloc = True

    def disable(self) -> None:
        """Turn collection off; series already recorded are kept."""
        self.enabled = False
        os.environ.pop(OBS_ENV, None)
        if self._owns_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._owns_tracemalloc = False

    def reset(self) -> None:
        """Drop every series and span (the enabled flag and the span cap
        are untouched)."""
        with self._lock:
            self._series.clear()
            self.spans = self._new_span_buffer()
            self.span_rollup = {}
            self.epoch_ns = time.perf_counter_ns()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def keep_recent_spans(self, cap: Optional[int]) -> None:
        """Retain only the ``cap`` most recent span records (None: all).

        A long-running process sets this so its span buffer stays
        bounded; :attr:`span_rollup` still counts every span, so the
        Prometheus and aggregate span totals stay exact lifetime values.
        """
        with self._lock:
            self._span_cap = cap
            self.spans = self._new_span_buffer(self.spans)

    def _new_span_buffer(self, records=()) -> Union[List[Any], Deque[Any]]:
        if self._span_cap is None:
            return list(records)
        return deque(records, maxlen=self._span_cap)

    def record_span(self, record: Any) -> None:
        """Keep one finished span and fold it into its name's rollup
        (the same sum as :func:`_roll`, inlined: every enabled span
        exit pays it)."""
        dur = record.dur_ns
        with self._lock:
            self.spans.append(record)
            agg = self.span_rollup.get(record.name)
            if agg is None:
                self.span_rollup[record.name] = {
                    "count": 1, "total_ns": dur, "max_ns": dur}
            else:
                agg["count"] += 1
                agg["total_ns"] += dur
                if dur > agg["max_ns"]:
                    agg["max_ns"] = dur

    # ------------------------------------------------------------------
    # Series accessors (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: Any,
    ) -> Histogram:
        if not self.enabled:
            return NOOP  # type: ignore[return-value]
        key = ("histogram", name, _label_items(labels))
        metric = self._series.get(key)
        if metric is None:
            with self._lock:
                metric = self._series.setdefault(
                    key, Histogram(name, key[2], buckets)
                )
        return metric

    def _get(self, kind: str, cls, name: str, labels: Dict[str, Any]):
        if not self.enabled:
            return NOOP
        key = (kind, name, _label_items(labels))
        metric = self._series.get(key)
        if metric is None:
            with self._lock:
                metric = self._series.setdefault(key, cls(name, key[2]))
        return metric

    def series(self, kind: Optional[str] = None) -> List[Any]:
        """All live series, optionally of one kind, in creation order.

        Snapshots under the registry lock: pool workers create series
        concurrently via ``_get``, and iterating the live dict races
        with those inserts (``dictionary changed size during
        iteration``)."""
        with self._lock:
            items = list(self._series.items())
        return [m for (k, _, _), m in items if kind is None or k == kind]

    def scalar_values(self) -> Dict[str, float]:
        """Every series as one scalar per flat key — the sampler's view.

        Counters and gauges contribute their value under
        :func:`series_key`; histograms contribute ``key:count`` and
        ``key:sum`` (the two scalars that evolve monotonically enough to
        chart over time).  Spans are deliberately excluded: sampling is
        O(series), not O(history).
        """
        out: Dict[str, float] = {}
        with self._lock:
            for (kind, name, labels), m in self._series.items():
                key = series_key(name, labels)
                if kind == "histogram":
                    out[key + ":count"] = m.count
                    out[key + ":sum"] = m.sum
                else:
                    out[key] = m.value
        return out

    # ------------------------------------------------------------------
    # Snapshot / merge (the cross-process protocol)
    # ------------------------------------------------------------------
    def snapshot(self, spans: bool = True) -> Dict[str, Any]:
        """The registry as plain JSON-able data.

        ``spans=False`` leaves the span records out (``span_rollup`` is
        always there): what a ``/metrics`` scrape needs, at a cost that
        does not grow with the span buffer.
        """
        import repro

        counters = []
        gauges = []
        histograms = []
        with self._lock:
            for (kind, name, labels), m in self._series.items():
                entry = {"name": name, "labels": dict(labels)}
                if kind == "counter":
                    entry["value"] = m.value
                    counters.append(entry)
                elif kind == "gauge":
                    entry["value"] = m.value
                    gauges.append(entry)
                else:
                    entry.update(
                        buckets=list(m.buckets),
                        counts=list(m.counts),
                        count=m.count,
                        sum=m.sum,
                        min=m.min,
                        max=m.max,
                    )
                    histograms.append(entry)
            records = [s.to_dict() for s in self.spans] if spans else []
            rollup = {name: dict(agg)
                      for name, agg in self.span_rollup.items()}
        return {
            "meta": {
                "pid": os.getpid(),
                "epoch_ns": self.epoch_ns,
                "version": repro.__version__,
            },
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": records,
            "span_rollup": rollup,
        }

    def drain_snapshot(self) -> Dict[str, Any]:
        """Snapshot, then reset — the per-unit-of-work worker protocol."""
        snap = self.snapshot()
        epoch = self.epoch_ns
        self.reset()
        self.epoch_ns = epoch  # keep one time origin per process
        return snap

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold another process's snapshot into this registry.

        Counters and histogram cells add; gauges last-write-win; span
        rollups add; spans are appended verbatim (they carry their own
        pid, so a merged chrome export shows each worker as its own
        process track).
        """
        from repro.obs.spans import SpanRecord

        was_enabled = self.enabled
        self.enabled = True  # allow get-or-create during the merge
        try:
            for entry in snap.get("counters", ()):
                self.counter(entry["name"], **entry["labels"]).inc(
                    entry["value"]
                )
            for entry in snap.get("gauges", ()):
                self.gauge(entry["name"], **entry["labels"]).set(
                    entry["value"]
                )
            for entry in snap.get("histograms", ()):
                hist = self.histogram(
                    entry["name"],
                    buckets=tuple(entry["buckets"]),
                    **entry["labels"],
                )
                if list(hist.buckets) == list(entry["buckets"]):
                    for i, c in enumerate(entry["counts"]):
                        hist.counts[i] += c
                else:  # bucket mismatch: keep totals honest, lose shape
                    hist.counts[-1] += entry["count"]
                hist.count += entry["count"]
                hist.sum += entry["sum"]
                for bound, pick in ((entry["min"], min), (entry["max"], max)):
                    if bound is None:
                        continue
                    attr = "min" if pick is min else "max"
                    cur = getattr(hist, attr)
                    setattr(
                        hist, attr, bound if cur is None else pick(cur, bound)
                    )
            records = [SpanRecord.from_dict(e) for e in snap.get("spans", ())]
            with self._lock:
                self.spans.extend(records)
                for name, agg in span_rollup_of(snap).items():
                    _roll(self.span_rollup, name, agg["count"],
                          agg["total_ns"], agg["max_ns"])
        finally:
            self.enabled = was_enabled


def _roll(rollup: SpanRollup, name: str, count: int, total_ns: int,
          max_ns: int) -> None:
    agg = rollup.get(name)
    if agg is None:
        rollup[name] = {"count": count, "total_ns": total_ns,
                        "max_ns": max_ns}
        return
    agg["count"] += count
    agg["total_ns"] += total_ns
    if max_ns > agg["max_ns"]:
        agg["max_ns"] = max_ns


def span_rollup_of(snap: Dict[str, Any]) -> SpanRollup:
    """A snapshot's per-name span totals: its ``span_rollup``, or, for a
    capture written before rollups existed, the totals of its spans."""
    rollup = snap.get("span_rollup")
    if rollup is not None:
        return rollup
    out: SpanRollup = {}
    for s in snap.get("spans", ()):
        _roll(out, s["name"], 1, s["dur_ns"], s["dur_ns"])
    return out


#: The process-global default registry.  Starts disabled unless a parent
#: process exported the obs environment flag before spawning us.
REGISTRY = MetricsRegistry(enabled=bool(os.environ.get(OBS_ENV)))
