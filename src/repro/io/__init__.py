"""Trace exporters: Paraver, Chrome trace-event, Matlab-style numeric data."""

from repro.io.chrometrace import (
    activities_to_events,
    analysis_chrome_events,
    chrome_trace_bytes,
    read_chrome_trace,
)
from repro.io.matlabfmt import (
    activities_to_csv,
    activity_arrays,
    export_npz,
    read_activities_csv,
)
from repro.io.paraver import ParaverWriter, PrvRecord, parse_prv

__all__ = [
    "activities_to_events",
    "analysis_chrome_events",
    "chrome_trace_bytes",
    "read_chrome_trace",
    "activities_to_csv",
    "activity_arrays",
    "export_npz",
    "read_activities_csv",
    "ParaverWriter",
    "PrvRecord",
    "parse_prv",
]
