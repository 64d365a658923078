"""Noise-analysis-as-a-service: async multi-client analysis server.

The batch pipeline (trace → nesting → classify → analyze → report) is
wrapped in a long-running HTTP/JSON service so one warm process serves
many clients off the shared result store:

* :mod:`repro.service.http` — a dependency-free asyncio HTTP/1.1 server
  core: routing-agnostic request parsing (Content-Length and chunked
  bodies, pull-based so TCP flow control backpressures uploads),
  keep-alive, bounded header/body sizes, graceful drain;
* :mod:`repro.service.jobs` — the job table: content-hash job keys so
  identical specs dedup to one execution, states
  ``queued → running → done/failed``, bounded concurrency, the
  :class:`~repro.exec.store.ShardedStore` as the cross-request cache and
  a :class:`~repro.exec.backend.DispatchBackend` for cold runs;
* :mod:`repro.service.handlers` — the endpoint surface
  (``/v1/jobs``, ``/v1/traces``, ``/v1/jobs/<id>/render/<kind>``,
  ``/healthz``, ``/metrics``) with per-request obs spans, counters and
  latency histograms — the service profiles itself through the same
  telemetry stack it serves — and the response memo that serves repeat
  renders and results without re-analyzing;
* :mod:`repro.service.client` — a stdlib client used by tests and the
  ``lttng-noise submit`` subcommand.

Entry points: ``lttng-noise serve`` / ``lttng-noise submit``; see
``docs/service.md`` for the endpoint reference and job lifecycle.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.handlers import ServiceApp, run_server
from repro.service.http import HttpError, HttpServer, Request, Response
from repro.service.jobs import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    Job,
    JobTable,
    analysis_payload,
)

__all__ = [
    "HttpError", "HttpServer", "Job", "JobTable", "Request", "Response",
    "ServiceApp", "ServiceClient", "ServiceError", "analysis_payload",
    "run_server", "JOB_DONE", "JOB_FAILED", "JOB_QUEUED", "JOB_RUNNING",
]
