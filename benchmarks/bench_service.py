"""Performance of the analysis service: cache-hit serving and repeat renders.

Not a paper experiment — engineering numbers for the ``lttng-noise
serve`` subsystem.  ``service_render_memo_speedup`` (recorded, not
gated) is the first ``report`` render of a stored run over the median
repeat, which the response memo serves.  The gated metric is
``service_hit_rps``: cache-hit
request throughput with 8 concurrent clients relative to 1 client, over
the same warmed store.  It is a machine-independent ratio (both sides
run on the same box in the same session) that CI gates through ``obs
diff`` against ``benchmarks/baselines/BENCH_9.json`` — a drop means
concurrent requests started serializing somewhere (event loop blocked on
store reads, lock contention in the job table, handler doing analysis
work inline).
"""

from __future__ import annotations

import asyncio
import statistics
import threading
import time

import pytest

from repro import obs
from repro.exec.spec import RunSpec
from repro.exec.store import ShardedStore
from repro.service.client import ServiceClient
from repro.service.handlers import ServiceApp
from repro.service.http import HttpServer
from repro.service.jobs import JobTable
from repro.util.units import MSEC

from trajectory import record_metric

SPEC = RunSpec.make("FTQ", 60 * MSEC, 0, 2)


class _Server:
    def __init__(self, store_root: str) -> None:
        ready = threading.Event()
        self._box = {}

        async def main():
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            table = JobTable(ShardedStore(store_root), max_concurrency=4,
                             use_pool=False)
            server = HttpServer(ServiceApp(table).handle, port=0)
            await server.start()
            self._box.update(port=server.port, stop=stop, loop=loop)
            ready.set()
            await stop.wait()
            await server.drain()
            await table.drain()
            table.close()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(main()), daemon=True
        )
        self._thread.start()
        assert ready.wait(timeout=30)
        self.port = self._box["port"]

    def shutdown(self) -> None:
        self._box["loop"].call_soon_threadsafe(self._box["stop"].set)
        self._thread.join(timeout=60)


@pytest.fixture(scope="module")
def warm_server(tmp_path_factory):
    """A running service whose store already holds SPEC's result, so
    every benchmark request is a cache hit."""
    obs.enable()
    server = _Server(str(tmp_path_factory.mktemp("svc-store")))
    with ServiceClient("127.0.0.1", server.port) as client:
        job = client.submit(SPEC)["job"]
        client.wait(job["id"])
    yield server
    server.shutdown()
    obs.disable()
    obs.reset()


def _hit_round_trip(client: ServiceClient, job_id: str) -> None:
    """One cache-hit request pair: idempotent re-submit + result fetch."""
    assert client.submit(SPEC)["created"] is False
    assert client.result(job_id)["result"]["span_ns"] > 0


def _hit_rps(port: int, nclients: int, requests_per_client: int) -> float:
    """Cache-hit round trips per second with nclients concurrent
    keep-alive clients (each round trip is two requests)."""
    job_id = None
    with ServiceClient("127.0.0.1", port) as probe:
        job_id = probe.submit(SPEC)["job"]["id"]
    barrier = threading.Barrier(nclients + 1)
    errors = []

    def body():
        try:
            with ServiceClient("127.0.0.1", port) as client:
                client.healthz()  # connection warm before the clock
                barrier.wait()
                for _ in range(requests_per_client):
                    _hit_round_trip(client, job_id)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    threads = [threading.Thread(target=body) for _ in range(nclients)]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    assert errors == [], errors[:1]
    return nclients * requests_per_client / elapsed


def test_service_cache_hit_round_trip(benchmark, warm_server):
    """Single-client latency of one idempotent submit + result fetch."""
    with ServiceClient("127.0.0.1", warm_server.port) as client:
        job_id = client.submit(SPEC)["job"]["id"]
        benchmark.pedantic(
            lambda: _hit_round_trip(client, job_id), rounds=20, iterations=1
        )


def test_service_hit_rps_scales_with_clients(warm_server):
    """8 concurrent clients vs 1 over the same warm store.

    The ratio gates the service's concurrency story: responses are built
    on the event loop but jobs resolve from the table without touching
    the executor, so more clients must not *reduce* aggregate hit
    throughput (ratio well below 1.0 would mean added clients serialize
    and then some)."""
    single = _hit_rps(warm_server.port, 1, 40)
    concurrent = _hit_rps(warm_server.port, 8, 15)
    ratio = concurrent / single
    print(f"\nservice cache-hit throughput: 1 client {single:.0f} rt/s, "
          f"8 clients {concurrent:.0f} rt/s ({ratio:.2f}x)")
    record_metric("service_hit_rps", ratio)
    assert single > 50, f"warm round trips too slow: {single:.0f}/s"
    assert ratio > 0.5, (
        f"8-client hit throughput collapsed to {ratio:.2f}x of 1 client"
    )


def test_service_repeat_render(warm_server):
    """First ``report`` render of a stored run vs repeats of it.

    The first render reads the run from the store and analyzes it; every
    repeat is the same immutable body, served from the response memo."""
    with ServiceClient("127.0.0.1", warm_server.port) as client:
        job_id = client.submit(SPEC)["job"]["id"]
        t0 = time.perf_counter()
        first = client.render(job_id, "report")
        first_s = time.perf_counter() - t0
        repeats = []
        for _ in range(30):
            t0 = time.perf_counter()
            body = client.render(job_id, "report")
            repeats.append(time.perf_counter() - t0)
            assert body == first
        memo = client.healthz()["render_memo"]
    speedup = first_s / statistics.median(repeats)
    print(f"\nservice report render: first {1e3 * first_s:.2f} ms, "
          f"repeat median {1e3 * statistics.median(repeats):.3f} ms "
          f"({speedup:.1f}x)")
    record_metric("service_render_memo_speedup", speedup)
    assert memo["hits"] >= len(repeats)
