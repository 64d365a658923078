"""Tests for the analysis service (repro.service).

The service is exercised over real sockets: a fixture runs the asyncio
server on a background thread and tests talk to it with the stdlib
:class:`~repro.service.client.ServiceClient` — the same path the
``lttng-noise submit`` subcommand and any third-party client take.

Covers: the submit → poll → result happy path; duplicate-spec dedup
under concurrent clients; bit-identical parity between service renders
and the batch CLI; streaming trace-upload parity with batch analysis;
400/404/405/409/413 error paths; Prometheus ``/metrics`` exposition;
the response memo (byte-identical bodies, single flight, byte budget,
no memoized errors) and the bounded span buffer; and graceful drain (no
queued or running jobs survive shutdown, including over a real SIGTERM
against a ``lttng-noise serve`` subprocess).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro import obs
from repro.exec.spec import RunSpec
from repro.exec.store import ShardedStore
from repro.service.client import ServiceClient, ServiceError
from repro.service.handlers import ServiceApp
from repro.service.http import HttpServer, parse_hostport
from repro.service.jobs import JobTable
from repro.util.units import MSEC

SHORT = 50 * MSEC


def spec(seed=0, **kw):
    return RunSpec.make("FTQ", SHORT, seed, 2, **kw)


class ServerHandle:
    """One service instance on a background thread, plus its innards."""

    def __init__(self, port, app, table, server, stop, loop, thread):
        self.port = port
        self.app = app
        self.table = table
        self.server = server
        self._stop = stop
        self._loop = loop
        self._thread = thread

    def client(self, timeout_s=30.0) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout_s=timeout_s)

    def get_raw(self, path):
        """``(status, body bytes)`` of one GET, undecoded."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def shutdown(self) -> None:
        """Trigger the drain path and wait for the server thread."""
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "server failed to drain"


def start_server(store_root, max_concurrency=4, max_body_bytes=None,
                 use_pool=False) -> ServerHandle:
    """Run the service in a thread; in-process backend keeps tests fast
    (results are bit-identical to the pool path by construction)."""
    ready = threading.Event()
    box = {}

    async def main():
        kwargs = {}
        if max_body_bytes is not None:
            kwargs["max_body_bytes"] = max_body_bytes
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        table = JobTable(ShardedStore(store_root),
                         max_concurrency=max_concurrency,
                         use_pool=use_pool)
        app = ServiceApp(table)
        server = HttpServer(app.handle, port=0, **kwargs)
        await server.start()
        box.update(port=server.port, app=app, table=table, server=server,
                   stop=stop, loop=loop)
        ready.set()
        await stop.wait()
        await server.drain()
        await table.drain()
        table.close()

    thread = threading.Thread(target=lambda: asyncio.run(main()),
                              daemon=True)
    thread.start()
    assert ready.wait(timeout=30), "server did not start"
    return ServerHandle(box["port"], box["app"], box["table"],
                        box["server"], box["stop"], box["loop"], thread)


@pytest.fixture()
def server(tmp_path):
    obs.enable()
    handle = start_server(str(tmp_path / "store"))
    yield handle
    handle.shutdown()
    obs.disable()
    obs.reset()


# ----------------------------------------------------------------------
# Happy path
# ----------------------------------------------------------------------

class TestSubmitPollResult:
    def test_submit_poll_result_roundtrip(self, server):
        with server.client() as client:
            health = client.healthz()
            assert health["status"] == "ok"
            submitted = client.submit(spec())
            assert submitted["created"] is True
            job = submitted["job"]
            assert job["state"] in ("queued", "running", "done")
            final = client.wait(job["id"])
            assert final["state"] == "done"
            assert final["cached"] is False  # cold store: a real run
            result = client.result(job["id"])["result"]
            assert result["span_ns"] > 0
            assert result["ncpus"] == 2
            assert 0 < result["noise_fraction"] < 1
            assert set(result["breakdown"])  # categories present
            assert result["analyze_text"].startswith("span ")

    def test_job_id_is_the_store_token(self, server):
        """Dedup is identity: the job id doubles as the cache key, so a
        client can predict it from the spec alone."""
        with server.client() as client:
            job = client.submit(spec())["job"]
            assert job["id"] == server.table.store.token(spec())

    def test_result_before_done_is_409_style(self, server):
        """A job that is not done yet answers 409, not a broken body."""
        with server.client() as client:
            job = client.submit(spec(seed=5))["job"]
            try:
                client.result(job["id"])
            except ServiceError as exc:
                assert exc.status == 409
            else:  # the tiny job may already have finished: also fine
                assert client.status(job["id"])["job"]["state"] == "done"

    def test_warm_store_serves_cache_hit(self, tmp_path):
        """A fresh server over an already-populated store answers from
        the store: cached=True, no re-simulation."""
        obs.enable()
        try:
            root = str(tmp_path / "store")
            first = start_server(root)
            try:
                with first.client() as client:
                    job = client.submit(spec())["job"]
                    client.wait(job["id"])
            finally:
                first.shutdown()
            second = start_server(root)
            try:
                with second.client() as client:
                    job = client.submit(spec())["job"]
                    final = client.wait(job["id"])
                    assert final["state"] == "done"
                    assert final["cached"] is True
            finally:
                second.shutdown()
        finally:
            obs.disable()
            obs.reset()


# ----------------------------------------------------------------------
# Dedup under concurrency
# ----------------------------------------------------------------------

class TestDedup:
    def test_resubmit_dedups_onto_the_finished_job(self, server):
        with server.client() as client:
            first = client.submit(spec())
            client.wait(first["job"]["id"])
            again = client.submit(spec())
            assert again["created"] is False
            assert again["job"]["id"] == first["job"]["id"]
            # kwargs order must not defeat dedup (canonical spec hash).
            reordered = {
                "workload": "FTQ", "duration_ns": SHORT, "seed": 0,
                "ncpus": 2,
            }
            assert client.submit(reordered)["created"] is False

    def test_eight_concurrent_clients_share_one_execution(self, server):
        """Eight clients race the same spec; exactly one execution
        happens and every client reads the identical result."""
        n = 8
        barrier = threading.Barrier(n)
        outcomes = []
        errors = []

        def one_client(i):
            try:
                with server.client() as client:
                    barrier.wait()
                    submitted = client.submit(spec(seed=9))
                    client.wait(submitted["job"]["id"])
                    result = client.result(submitted["job"]["id"])
                    outcomes.append(
                        (submitted["created"],
                         result["result"]["analyze_text"])
                    )
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=one_client, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(outcomes) == n
        assert sum(1 for created, _ in outcomes if created) == 1
        texts = {text for _, text in outcomes}
        assert len(texts) == 1  # everyone saw the same analysis
        counts = server.table.counts()
        assert counts["done"] == 1 and counts["failed"] == 0


# ----------------------------------------------------------------------
# Batch parity
# ----------------------------------------------------------------------

class TestBatchParity:
    def test_render_analyze_is_bit_identical_to_batch(self, server):
        """The service's analyze render equals the ``lttng-noise
        analyze`` stdout body for the same run, byte for byte."""
        from repro.core import NoiseAnalysis
        from repro.core.report import render_analysis_summary

        s = spec()
        trace, meta = s.execute()
        expected = render_analysis_summary(NoiseAnalysis(trace, meta=meta))
        with server.client() as client:
            job = client.submit(s)["job"]
            client.wait(job["id"])
            assert client.render(job["id"], "analyze") == expected + "\n"

    def test_trace_upload_matches_batch_analysis(self, server):
        """Streaming an uploaded trace through the service produces the
        same numbers as batch-analyzing it locally."""
        from repro.core import NoiseAnalysis

        s = spec(seed=3)
        trace, meta = s.execute()
        batch = NoiseAnalysis(trace)  # upload carries no meta sidecar
        blob = trace.to_bytes(compress=True)
        with server.client() as client:
            # Chunked (iterator) upload: the service reads as it analyzes.
            pieces = (blob[i:i + 8192] for i in range(0, len(blob), 8192))
            out = client.upload(pieces)
            assert out["job"]["state"] == "done"
            result = out["result"]
            assert result["total_noise_ns"] == batch.total_noise_ns()
            assert result["noise_fraction"] == batch.noise_fraction()
            assert result["per_cpu_noise_ns"] == [
                int(v) for v in batch.per_cpu_noise_ns()
            ]

    def test_upload_with_meta_sidecar_matches_batch_with_meta(self, server):
        """``X-Trace-Meta`` carries the ``.meta.json`` sidecar, so the
        upload classifies tasks (preemption vs daemon) exactly like
        ``lttng-noise analyze`` with the sidecar next to the trace —
        down to the rendered analyze text."""
        from repro.core import NoiseAnalysis
        from repro.core.report import render_analysis_summary

        s = spec(seed=3)
        trace, meta = s.execute()
        expected = render_analysis_summary(NoiseAnalysis(trace, meta=meta))
        with server.client() as client:
            out = client.upload(trace.to_bytes(compress=True),
                                meta_json=meta.to_json())
            assert out["job"]["state"] == "done"
            assert out["result"]["analyze_text"] == expected

    def test_upload_with_window_matches_unwindowed(self, server):
        s = spec(seed=4)
        trace, _meta = s.execute()
        blob = trace.to_bytes(compress=True)
        with server.client() as client:
            plain = client.upload(blob)["result"]
            windowed = client.upload(blob, window_ns=10 * MSEC)["result"]
            assert windowed["total_noise_ns"] == plain["total_noise_ns"]
            assert windowed["events"] == plain["events"]

    def test_spec_job_renders_cover_the_cli_surface(self, server):
        with server.client() as client:
            job = client.submit(spec())["job"]
            client.wait(job["id"])
            report = client.render(job["id"], "report")
            assert "Per-event statistics" in report
            chart = client.render(job["id"], "chart", top=5)
            assert "interruptions" in chart
            timeline = client.render(job["id"], "timeline", width=40)
            assert "cpu0:" in timeline and "legend:" in timeline
            chrome = client.render(job["id"], "chrome")
            assert chrome["traceEvents"]  # decoded application/json


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------

class TestErrorPaths:
    def test_bad_submissions_are_400(self, server):
        bad_bodies = [
            b"not json at all",
            json.dumps(["a", "list"]).encode(),
            json.dumps({"workload": "FTQ"}).encode(),  # missing fields
            json.dumps({"workload": "NOSUCH", "duration_ns": 1,
                        "seed": 0}).encode(),
            json.dumps({"workload": "FTQ", "duration_ns": -5,
                        "seed": 0}).encode(),
            json.dumps({"workload": "FTQ", "duration_ns": 1, "seed": 0,
                        "ncpus": 0}).encode(),
        ]
        with server.client() as client:
            for body in bad_bodies:
                with pytest.raises(ServiceError) as err:
                    client.request("POST", "/v1/jobs", body=body)
                assert err.value.status == 400
            # Validation rejected everything before job creation.
            assert client.healthz()["submitted"] == 0

    def test_unknown_routes_and_jobs_are_404(self, server):
        with server.client() as client:
            for path in ("/nope", "/v1/jobs/ffff", "/v1/jobs/ffff/result",
                         "/v1/nothing"):
                with pytest.raises(ServiceError) as err:
                    client.request("GET", path)
                assert err.value.status == 404

    def test_unknown_render_kind_is_404(self, server):
        with server.client() as client:
            job = client.submit(spec())["job"]
            client.wait(job["id"])
            with pytest.raises(ServiceError) as err:
                client.render(job["id"], "svg")
            assert err.value.status == 404

    def test_wrong_method_is_405(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as err:
                client.request("DELETE", "/v1/jobs")
            assert err.value.status == 405

    def test_garbage_upload_is_400_not_a_crash(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as err:
                client.upload(b"definitely not a trace")
            assert err.value.status == 400
            # The failure is recorded as a failed job, not hidden.
            assert server.table.counts()["failed"] == 1
            # And the server still works afterwards.
            assert client.healthz()["status"] == "ok"

    def test_malformed_meta_header_is_400(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as err:
                client.upload(b"irrelevant", meta_json="{broken json")
            assert err.value.status == 400
            assert "X-Trace-Meta" in str(err.value)

    def test_oversized_upload_is_413(self, tmp_path):
        obs.enable()
        handle = start_server(str(tmp_path / "store"),
                              max_body_bytes=4096)
        try:
            with handle.client() as client:
                with pytest.raises(ServiceError) as err:
                    client.upload(b"x" * 8192)  # sized: rejected up front
                assert err.value.status == 413
                with pytest.raises(ServiceError) as err:
                    # Chunked: no declared length; rejected mid-stream
                    # as soon as the streamed size crosses the cap.
                    client.upload(iter([b"x" * 5000, b"x" * 5000]))
                assert err.value.status == 413
        finally:
            handle.shutdown()
            obs.disable()
            obs.reset()

    def test_timeline_wider_than_the_limit_is_400(self, server):
        """The width sizes the render's memory, so the cap is checked
        before any render or memo work."""
        from repro.service.handlers import MAX_TIMELINE_WIDTH

        with server.client() as client:
            job = client.submit(spec())["job"]
            client.wait(job["id"])
        status, body = server.get_raw(
            f"/v1/jobs/{job['id']}/render/timeline"
            f"?width={MAX_TIMELINE_WIDTH + 1}"
        )
        assert status == 400
        assert b"must be <= 10000" in body
        assert server.app.memo.stats()["misses"] == 0

    def test_upload_jobs_serve_only_the_analyze_render(self, server):
        s = spec()
        trace, _meta = s.execute()
        with server.client() as client:
            job = client.upload(trace.to_bytes(compress=True))["job"]
            assert client.render(job["id"], "analyze").startswith("span ")
            with pytest.raises(ServiceError) as err:
                client.render(job["id"], "report")
            assert err.value.status == 400


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

class TestMetrics:
    def test_metrics_expose_service_series_and_parse(self, server):
        with server.client() as client:
            job = client.submit(spec())["job"]
            client.wait(job["id"])
            text = client.metrics()
        assert text.startswith("#") or "lttng_noise" in text
        names = set()
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            float(value)  # every sample line ends in a number
            names.add(name.split("{", 1)[0])
        assert "lttng_noise_service_requests_total" in names
        assert "lttng_noise_service_jobs_submitted_total" in names
        assert "lttng_noise_service_queue_depth" in names
        assert "lttng_noise_service_active_jobs" in names
        # Latency histogram exposes the full triplet.
        assert "lttng_noise_service_request_ms_bucket" in names
        assert "lttng_noise_service_request_ms_count" in names
        assert "lttng_noise_service_request_ms_sum" in names


    def test_span_buffer_is_bounded_and_span_counts_stay_exact(self,
                                                                server):
        """A long-lived server keeps only recent span records, while the
        per-name totals that ``/metrics`` exposes count every request."""
        n, cap = 40, 8
        obs.REGISTRY.keep_recent_spans(cap)
        try:
            obs.reset()
            with server.client() as client:
                for _ in range(n):
                    client.healthz()
                text = client.metrics()
            assert len(obs.REGISTRY.spans) <= cap
            assert obs.REGISTRY.span_rollup["service.request"]["count"] \
                == n + 1  # the scrape's own span closed after its body
            assert f'lttng_noise_span_count{{name="service.request"}} {n}' \
                in text.splitlines()
        finally:
            obs.REGISTRY.keep_recent_spans(None)


# ----------------------------------------------------------------------
# Response memo
# ----------------------------------------------------------------------

def _batch_bodies(s, tmp_path, capsys):
    """What the batch CLI writes for spec ``s``'s run, per memo key."""
    from repro.cli import main

    trace, meta = s.execute()
    base = str(tmp_path / f"batch-{s.seed}")
    trace.to_file(base + ".lttnz")
    meta.to_file(base + ".meta.json")
    path = base + ".lttnz"
    out = {}
    for key, argv in (
        (("report", None), ["report", path]),
        (("chart", 5), ["chart", path, "--top", "5"]),
        (("chart", 20), ["chart", path, "--top", "20"]),
        (("timeline", 40), ["timeline", path, "--width", "40"]),
    ):
        capsys.readouterr()
        assert main(argv) == 0
        out[key] = capsys.readouterr().out.encode("utf-8")
    # ``lttng-noise report`` ends with a "records: N, span S, C cpus"
    # footer after a blank line; the render is the report alone.
    body, footer = out[("report", None)].rsplit(b"\n\n", 1)
    assert footer.startswith(b"records: ")
    out[("report", None)] = body + b"\n"
    assert main(["export", path, "--chrome", base + ".json"]) == 0
    with open(base + ".json", "rb") as fp:
        out[("chrome", None)] = fp.read()
    return out


def _render_path(job_id, kind, param):
    query = {"chart": "top", "timeline": "width"}.get(kind)
    suffix = f"?{query}={param}" if param is not None else ""
    return f"/v1/jobs/{job_id}/render/{kind}{suffix}"


class TestResponseMemo:
    def test_first_and_memoized_bodies_match_the_batch_cli(
            self, server, tmp_path, capsys):
        s = spec(seed=2)
        expected = _batch_bodies(s, tmp_path, capsys)
        with server.client() as client:
            job_id = client.submit(s)["job"]["id"]
            client.wait(job_id)
        for round_no in (1, 2):
            for (kind, param), want in expected.items():
                status, body = server.get_raw(
                    _render_path(job_id, kind, param))
                assert status == 200, (kind, param, body[:200])
                assert body == want, (round_no, kind, param)
        stats = server.app.memo.stats()
        assert stats["misses"] == len(expected)  # one entry per key
        assert stats["hits"] == len(expected)
        assert stats["entries"] == len(expected)
        assert stats["bytes"] == sum(len(b) for b in expected.values())
        # No ``top`` is the default ``top=20``: the same entry.
        status, body = server.get_raw(f"/v1/jobs/{job_id}/render/chart")
        assert body == expected[("chart", 20)]
        assert server.app.memo.stats()["entries"] == len(expected)
        with server.client() as client:
            health = client.healthz()
        assert health["render_memo"]["hits"] == len(expected) + 1

    def test_result_body_is_identical_before_and_after_memoization(
            self, server):
        with server.client() as client:
            job_id = client.submit(spec())["job"]["id"]
            client.wait(job_id)
        first = server.get_raw(f"/v1/jobs/{job_id}/result")
        again = server.get_raw(f"/v1/jobs/{job_id}/result")
        assert first[0] == again[0] == 200
        assert again[1] == first[1]
        assert server.app.memo.stats()["hits"] == 1
        # Still the Response.json shape the handler built before.
        decoded = json.loads(first[1])
        assert first[1] == (json.dumps(decoded, indent=2, sort_keys=True)
                            + "\n").encode("utf-8")

    def test_evicted_store_entry_404_is_not_memoized(self, server):
        """A miss after eviction is a 404 every time; a body memoized
        before the eviction is still served."""
        with server.client() as client:
            kept = client.submit(spec(seed=1))["job"]["id"]
            gone = client.submit(spec(seed=2))["job"]["id"]
            client.wait(kept)
            client.wait(gone)
        status, before = server.get_raw(f"/v1/jobs/{kept}/render/report")
        assert status == 200
        server.table.store.clear()
        for _ in range(2):
            status, body = server.get_raw(f"/v1/jobs/{gone}/render/report")
            assert status == 404 and b"evicted" in body
        stats = server.app.memo.stats()
        assert stats["entries"] == 1 and stats["misses"] == 3
        assert server.get_raw(f"/v1/jobs/{kept}/render/report") \
            == (200, before)

    def test_concurrent_identical_misses_analyze_once(self, server):
        with server.client() as client:
            job_id = client.submit(spec(seed=6))["job"]["id"]
            client.wait(job_id)
        app = server.app
        release = threading.Event()
        render_body = app._render_body

        def gated(*args):
            assert release.wait(timeout=30)
            return render_body(*args)

        app._render_body = gated
        analyses = obs.REGISTRY.span_rollup["analysis"]["count"]
        bodies = []
        threads = [
            threading.Thread(target=lambda: bodies.append(server.get_raw(
                f"/v1/jobs/{job_id}/render/report")))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        # Both requests are in the server before the render may finish.
        deadline = time.monotonic() + 30
        while app.memo.stats()["hits"] + app.memo.stats()["misses"] < 2:
            assert time.monotonic() < deadline, "requests never arrived"
            time.sleep(0.01)
        release.set()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert len(bodies) == 2 and bodies[0] == bodies[1]
        assert bodies[0][0] == 200
        assert app.memo.stats()["misses"] == 1
        assert obs.REGISTRY.span_rollup["analysis"]["count"] == analyses + 1

    def test_byte_budget_holds_over_more_jobs_than_fit(self, tmp_path):
        from repro.core import NoiseAnalysis
        from repro.core.report import full_report

        specs = [spec(seed=seed) for seed in range(6)]
        sizes = []
        for s in specs:
            trace, meta = s.execute()
            text = full_report(NoiseAnalysis(trace, meta=meta), meta=meta)
            sizes.append(len(text.encode("utf-8")) + 1)
        budget = 4 * max(sizes)  # every report fits; all six do not
        assert sum(sizes) > budget
        obs.enable()
        handle = start_server(str(tmp_path / "store"))
        handle.app.memo.max_bytes = budget
        try:
            with handle.client() as client:
                ids = [client.submit(s)["job"]["id"] for s in specs]
                for job_id in ids:
                    client.wait(job_id)
            for job_id in ids:
                status, _body = handle.get_raw(
                    f"/v1/jobs/{job_id}/render/report")
                assert status == 200
                assert handle.app.memo.nbytes <= budget
            stats = handle.app.memo.stats()
            assert 4 <= stats["entries"] < len(ids)
            # The newest entry stayed, the oldest was evicted.
            handle.get_raw(f"/v1/jobs/{ids[-1]}/render/report")
            assert handle.app.memo.stats()["hits"] == 1
            handle.get_raw(f"/v1/jobs/{ids[0]}/render/report")
            assert handle.app.memo.stats()["misses"] == len(ids) + 1
            # A body over a quarter of the budget is served, not kept.
            entries = handle.app.memo.stats()["entries"]
            status, body = handle.get_raw(f"/v1/jobs/{ids[0]}/render/chrome")
            assert status == 200 and len(body) > budget // 4
            assert handle.app.memo.stats()["entries"] == entries
            assert handle.app.memo.nbytes <= budget
        finally:
            handle.shutdown()
            obs.disable()
            obs.reset()


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------

class TestGracefulDrain:
    def test_drain_runs_every_accepted_job_to_completion(self, tmp_path):
        """Shutdown with queued work: every accepted job reaches a
        terminal state before the server exits (zero lost jobs)."""
        obs.enable()
        handle = start_server(str(tmp_path / "store"), max_concurrency=1)
        try:
            with handle.client() as client:
                ids = [client.submit(spec(seed=s))["job"]["id"]
                       for s in range(4)]
        finally:
            handle.shutdown()  # returns only after table.drain()
            obs.disable()
            obs.reset()
        counts = handle.table.counts()
        assert counts["queued"] == 0 and counts["running"] == 0
        assert counts["done"] == len(set(ids))

    def test_sigterm_drains_the_serve_subprocess(self, tmp_path):
        """The real thing: ``lttng-noise serve`` under SIGTERM finishes
        its work, reports the drain, and exits 0."""
        import re
        import signal
        import subprocess
        import sys
        import time

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--listen", "127.0.0.1:0", "--serial",
             "--store", str(tmp_path / "store")],
            stderr=subprocess.PIPE, text=True,
        )
        try:
            # The announce line carries the picked port.
            line = proc.stderr.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            assert match, f"no listen line: {line!r}"
            port = int(match.group(1))
            with ServiceClient("127.0.0.1", port) as client:
                job = client.submit(spec())["job"]
                proc.send_signal(signal.SIGTERM)
                # The in-flight job still completes during drain.
            deadline = time.monotonic() + 60
            while proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert proc.returncode == 0
            rest = proc.stderr.read()
            assert "drained:" in rest
            assert "done=1" in rest
            assert job["id"]  # accepted before the signal
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stderr.close()


# ----------------------------------------------------------------------
# Odds and ends
# ----------------------------------------------------------------------

class TestHelpers:
    def test_parse_hostport(self):
        assert parse_hostport("127.0.0.1:8787", 1) == ("127.0.0.1", 8787)
        assert parse_hostport("myhost", 42) == ("myhost", 42)
        assert parse_hostport(":9000", 1) == ("127.0.0.1", 9000)
        with pytest.raises(ValueError):
            parse_hostport("host:notaport", 1)

    def test_list_jobs_reflects_submissions(self, server):
        with server.client() as client:
            client.wait(client.submit(spec())["job"]["id"])
            client.wait(client.submit(spec(seed=1))["job"]["id"])
            listing = client.jobs()
            assert len(listing["jobs"]) == 2
            assert listing["counts"]["done"] == 2
            assert all(j["spec"]["workload"] == "FTQ"
                       for j in listing["jobs"])
