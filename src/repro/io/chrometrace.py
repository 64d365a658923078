"""Chrome trace-event (Perfetto / chrome://tracing) export.

The paper's offline module targets Paraver because that is BSC's tool; it
notes "other formats can be generated relatively easily by performing a
different offline transformation of the original trace file".  This is that
other transformation: the Trace Event Format consumed by chrome://tracing,
Perfetto UI and speedscope.

Mapping:

* each CPU is a Chrome *process* (``pid`` = cpu index), so the timeline
  groups kernel activity per core, like the paper's figures;
* within a CPU, track 0 carries the kernel activities as complete ("X")
  events — nesting renders as stacked slices, exactly our frame stack;
* ``sched_switch`` / markers become instant ("i") events;
* per-task state intervals (optional) go to a separate "tasks" process.

Timestamps are microseconds (floats), per the format.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Union

from repro.core.model import (
    Activity,
    ActivityTable,
    CATEGORY_ORDER,
    NoiseCategory,
    TraceMeta,
)

#: Category -> Chrome color name (close to the paper's palette).
_COLOR = {
    NoiseCategory.PERIODIC: "black",
    NoiseCategory.PAGE_FAULT: "terrible",       # red
    NoiseCategory.SCHEDULING: "bad",            # orange
    NoiseCategory.PREEMPTION: "good",           # green
    NoiseCategory.IO: "thread_state_runnable",  # blue
    NoiseCategory.SERVICE: "grey",
    NoiseCategory.TRACER: "grey",
    NoiseCategory.OTHER: "yellow",
}


def activities_to_events(
    activities: Union[ActivityTable, Sequence[Activity]],
    meta: Optional[TraceMeta] = None,
) -> List[dict]:
    """Convert activities (table or sequence) into Trace Event Format dicts."""
    meta = meta if meta is not None else TraceMeta()
    events: List[dict] = []
    if isinstance(activities, ActivityTable):
        d = activities.data
        names = activities.names().tolist()
        context_of: Dict[int, str] = {}
        rows = zip(
            names,
            d["category"].tolist(),
            d["start"].tolist(),
            d["total_ns"].tolist(),
            d["cpu"].tolist(),
            d["self_ns"].tolist(),
            d["pid"].tolist(),
            d["is_noise"].tolist(),
            d["depth"].tolist(),
        )
        for name, code, start, total, cpu, self_ns, pid, noise, depth in rows:
            category = CATEGORY_ORDER[code]
            context = context_of.get(pid)
            if context is None:
                context = context_of[pid] = meta.name_of(pid)
            events.append(
                {
                    "name": name,
                    "cat": category.value,
                    "ph": "X",
                    "ts": start / 1000.0,
                    "dur": total / 1000.0,
                    "pid": cpu,
                    "tid": 0,
                    "cname": _COLOR.get(category, "grey"),
                    "args": {
                        "self_ns": self_ns,
                        "context": context,
                        "noise": noise,
                        "depth": depth,
                    },
                }
            )
        return events
    for act in activities:
        events.append(
            {
                "name": act.name,
                "cat": act.category.value,
                "ph": "X",
                "ts": act.start / 1000.0,
                "dur": act.total_ns / 1000.0,
                "pid": act.cpu,
                "tid": 0,
                "cname": _COLOR.get(act.category, "grey"),
                "args": {
                    "self_ns": act.self_ns,
                    "context": meta.name_of(act.pid),
                    "noise": act.is_noise,
                    "depth": act.depth,
                },
            }
        )
    return events


def timeline_to_events(timeline, meta: Optional[TraceMeta] = None) -> List[dict]:
    """Per-task state intervals as slices in a synthetic 'tasks' process."""
    from repro.simkernel.task import TaskState

    meta = meta if meta is not None else TraceMeta()
    state_names = {
        TaskState.RUNNING: "running",
        TaskState.RUNNABLE: "ready",
        TaskState.BLOCKED: "blocked",
    }
    events: List[dict] = []
    for pid in timeline.pids():
        for interval in timeline.intervals(pid):
            name = state_names.get(interval.state)
            if name is None:
                continue
            events.append(
                {
                    "name": name,
                    "cat": "task-state",
                    "ph": "X",
                    "ts": interval.start / 1000.0,
                    "dur": interval.duration_ns / 1000.0,
                    "pid": 1_000_000,  # synthetic "tasks" process
                    "tid": pid,
                }
            )
    return events


def chrome_trace_events(
    activities: Union[ActivityTable, Sequence[Activity]],
    meta: Optional[TraceMeta] = None,
    timeline=None,
    ncpus: Optional[int] = None,
) -> List[dict]:
    """Every event of one exported trace, process/thread names included."""
    meta = meta if meta is not None else TraceMeta()
    events = activities_to_events(activities, meta)
    if timeline is not None:
        events += timeline_to_events(timeline, meta)
    # Process/thread naming metadata.
    if ncpus is not None:
        cpus = range(ncpus)
    elif isinstance(activities, ActivityTable):
        cpus = sorted(set(activities.data["cpu"].tolist()))
    else:
        cpus = sorted({a.cpu for a in activities})
    for cpu in cpus:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": int(cpu),
                "args": {"name": f"cpu{cpu}"},
            }
        )
    if timeline is not None:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1_000_000,
                "args": {"name": "tasks"},
            }
        )
        for pid in timeline.pids():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1_000_000,
                    "tid": pid,
                    "args": {"name": meta.name_of(pid)},
                }
            )
    return events


def analysis_chrome_events(analysis, meta: Optional[TraceMeta] = None
                           ) -> List[dict]:
    """The full export of one analyzed run: its activities on one track
    per CPU plus every task's state intervals, as ``lttng-noise export
    --chrome`` and the service's ``chrome`` render both write it."""
    from repro.core.timeline import TaskTimeline

    timeline = TaskTimeline(
        analysis.records, meta=meta, end_ts=analysis.end_ts
    )
    return chrome_trace_events(
        analysis.table, meta, timeline=timeline, ncpus=analysis.ncpus
    )


def chrome_trace_bytes(events: List[dict]) -> bytes:
    """The JSON document loadable in chrome://tracing / Perfetto."""
    payload = {"traceEvents": events, "displayTimeUnit": "ns"}
    return json.dumps(payload).encode("ascii")


def read_chrome_trace(path: str) -> List[dict]:
    """Load back an exported trace (validation aid)."""
    with open(path) as fp:
        data = json.load(fp)
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError("not a Chrome trace-event file")
    return data["traceEvents"]
