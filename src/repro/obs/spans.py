"""Pipeline spans: timed, nestable sections of the pipeline's own work.

A span measures one phase of the sim→trace→analyze stack — wall time
(``perf_counter_ns``), CPU time (``thread_time_ns``) and a peak-memory
reading (tracemalloc heap peak when tracing, ``ru_maxrss`` otherwise).
Spans nest through a per-thread stack, survive exceptions (the record is
emitted with ``error=True`` and the exception propagates), and work both as
context managers and as decorators::

    with obs.span("analysis", workload="AMG"):
        ...

    @obs.span("nesting")
    def build_activity_table(...): ...

Finished spans land in the registry's per-process buffer and in its
per-name rollup; pool workers serialize both and the parent merges them,
so one chrome-trace export shows every worker as its own process track.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.obs.metrics import REGISTRY, MetricsRegistry

_tls = threading.local()


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def _peak_memory_kb() -> Optional[int]:
    """Best available peak-memory reading, in KiB."""
    import tracemalloc

    if tracemalloc.is_tracing():
        return tracemalloc.get_traced_memory()[1] // 1024
    try:
        import resource

        return int(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )  # already KiB on Linux
    except (ImportError, ValueError):  # pragma: no cover - non-POSIX
        return None


@dataclass
class SpanRecord:
    """One finished span, as recorded in the registry buffer."""

    name: str
    start_ns: int          # absolute perf_counter_ns at entry
    dur_ns: int
    cpu_ns: int
    mem_peak_kb: Optional[int]
    depth: int
    pid: int
    tid: int
    labels: Dict[str, Any] = field(default_factory=dict)
    error: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "dur_ns": self.dur_ns,
            "cpu_ns": self.cpu_ns,
            "mem_peak_kb": self.mem_peak_kb,
            "depth": self.depth,
            "pid": self.pid,
            "tid": self.tid,
            "labels": self.labels,
            "error": self.error,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "SpanRecord":
        return SpanRecord(**data)


class span:
    """Context manager / decorator recording one :class:`SpanRecord`.

    Enabledness is sampled at ``__enter__``: a span opened while the
    registry is disabled costs two attribute reads and records nothing.
    """

    def __init__(
        self,
        name: str,
        registry: Optional[MetricsRegistry] = None,
        **labels: Any,
    ) -> None:
        self.name = name
        self.labels = labels
        self.registry = registry
        self._active = False
        self._t0 = 0
        self._c0 = 0
        self._depth = 0

    def __enter__(self) -> "span":
        reg = self.registry if self.registry is not None else REGISTRY
        self._reg = reg
        self._active = reg.enabled
        if not self._active:
            return self
        stack = _stack()
        self._depth = len(stack)
        stack.append(self)
        self._c0 = time.thread_time_ns()
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._active:
            return False
        dur = time.perf_counter_ns() - self._t0
        cpu = time.thread_time_ns() - self._c0
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # defensive: mis-nested exits
            stack.remove(self)
        self._reg.record_span(
            SpanRecord(
                name=self.name,
                start_ns=self._t0,
                dur_ns=dur,
                cpu_ns=cpu,
                mem_peak_kb=_peak_memory_kb(),
                depth=self._depth,
                pid=os.getpid(),
                tid=threading.get_ident(),
                labels=dict(self.labels),
                error=exc_type is not None,
            )
        )
        return False  # never swallow exceptions

    # ------------------------------------------------------------------
    def __call__(self, fn):
        """Decorator form: a fresh span per invocation (re-entrant safe)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(self.name, registry=self.registry, **self.labels):
                return fn(*args, **kwargs)

        return wrapper


def current_depth() -> int:
    """Nesting depth of the calling thread's open spans (testing aid)."""
    return len(_stack())
