"""``serve-mixed``: two keep-alive clients against ``lttng-noise serve``.

Set-up starts ``python -m repro.cli serve --serial --max-concurrency 2``
on a fresh store, warms it with four 250 ms AMG specs (submitted cold
through the server), records one 1 s UMT trace for uploads and computes
every expected response in-process.  Two closed-loop clients then run at
once, each on its own seeded schedule of whole blocks:

* the *reader*, in blocks of 17 ops: 5 hits (re-submit a stored spec,
  which must dedup, and fetch its result), 6 ``report`` and 4 ``chart``
  renders, which re-read the store and re-analyze, and 2 ``analyze``
  renders, served from the job's result;
* the *writer*, in blocks of 3 ops: 2 cold submits of new 150 ms specs,
  polled to completion, and 1 upload of the recorded trace,
  stream-analyzed by the server.

The reader's requests share the event loop with the writer's simulations
and uploads nearly all the time, so a change that speeds one request class
at the cost of another shows as p50 against p90.  Giving each client one
role keeps that sharing the same from op to op.  With one mixed schedule
for both clients a render would wait on a cold job or not by the luck of
the draw, and the median would swing between the two cases from run to
run.  Server-side layer times come from the server's own ``repro.obs``
spans, read through ``GET /metrics``.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

import common
from common import Run

NCPUS = 8
#: Hits and renders spread over four stored AMG runs, cold submits are new
#: AMG runs: one app per class keeps each class's latency homogeneous.
HIT_RUNS = 4
HIT_NS = 250_000_000
COLD_NS = 150_000_000
UPLOAD_NS = 1_000_000_000
TINY_NS = 20_000_000
WINDOW_NS = 100_000_000
#: One block of each client's schedule.  By latency the classes sort as
#: analyze < hit < report < chart < cold < upload, and the writer
#: completes about 30 % of all ops.  Anywhere from 20 % to 35 % the median
#: falls among the report and chart renders and p90 among the cold
#: submits and uploads, whose latencies overlap, so neither percentile
#: sits in a gap between two classes.
BLOCKS = {
    "reader": ["analyze"] * 2 + ["hit"] * 5 + ["report"] * 6 + ["chart"] * 4,
    "writer": ["cold"] * 2 + ["upload"],
}
CLIENTS = len(BLOCKS)
CHART_TOP = 20
#: Metrics this workload does not exercise; they report 0.  The server
#: runs no sweep driver, and its upload memory is part of its own RSS.
IDLE = ("exec.driver_self_ms", "stream.peak_rss_mb")


def schedule(seed: int, role: str, cold_ns: int
             ) -> Iterator[Tuple[str, Any]]:
    """One client's endless ``(class, argument)`` ops: a hit-spec index
    for hits and renders, a never-seen spec for cold submits."""
    from repro.exec import RunSpec

    block = BLOCKS[role]
    rng = random.Random(f"serve-mixed:{role}:{seed}")
    cold = 0
    while True:
        for cls in rng.sample(block, len(block)):
            if cls == "cold":
                cold += 1
                yield cls, RunSpec.make("AMG", cold_ns,
                                        1_000_000 + seed * 100_000 + cold,
                                        NCPUS)
            elif cls == "upload":
                yield cls, None
            else:
                yield cls, rng.randrange(HIT_RUNS)


def chart_text(analysis: Any) -> str:
    """What ``GET .../render/chart`` serves for a run."""
    from repro.core import SyntheticNoiseChart
    from repro.core.report import format_interruptions

    chart = SyntheticNoiseChart(analysis)
    return (f"{len(chart.interruptions)} interruptions\n"
            "largest interruptions:\n"
            + format_interruptions(chart.largest(CHART_TOP), limit=CHART_TOP,
                                   t_origin=analysis.start_ts))


class Server:
    """A ``lttng-noise serve --serial`` child on an ephemeral port.

    ``--serial`` runs cold jobs on the server's own job threads.  The
    default pool mode forks a fresh worker per cold job; the worker
    inherits the server's telemetry registry and sends all of it back, so
    the server's span list doubles with every cold job and its memory
    grows exponentially (over 2 GB after ~20 cold jobs)."""

    def __init__(self, root: str, store: str, env: Dict[str, str]) -> None:
        self.log_path = os.path.join(root, "serve.log")
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--listen", "127.0.0.1:0", "--store", store,
             "--max-concurrency", str(CLIENTS), "--serial"],
            stdout=subprocess.DEVNULL, stderr=self.log, env=env)
        self.port = 0
        deadline = time.monotonic() + 60
        while not self.port:
            with open(self.log_path, encoding="utf-8",
                      errors="replace") as fp:
                for line in fp:
                    if line.startswith("listening on http://"):
                        self.port = int(line.split()[2].rsplit(":", 1)[1])
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError(f"serve did not start; see {self.log_path}")
            time.sleep(0.005)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def client(port: int) -> Any:
    from repro.service.client import ServiceClient

    return ServiceClient("127.0.0.1", port, timeout_s=60.0)


class Setup:
    def __init__(self, run: Run) -> None:
        self.root = common.fresh_dir("runs", f"{run.workload}-seed{run.seed}")
        self.store_dir = os.path.join(self.root, "store")
        self.env = common.child_env(self.root)
        self.server = Server(self.root, self.store_dir, self.env)
        try:
            self._inputs(run)
        except BaseException:
            self.server.close()
            raise

    def _inputs(self, run: Run) -> None:
        from repro.core.analysis import NoiseAnalysis
        from repro.core.report import full_report, render_analysis_summary
        from repro.exec import RunSpec, ShardedStore

        hit_ns = TINY_NS if run.tiny else HIT_NS
        self.cold_ns = TINY_NS if run.tiny else COLD_NS
        self.hit_specs = [RunSpec.make("AMG", hit_ns, run.seed * 10 + i,
                                       NCPUS) for i in range(HIT_RUNS)]
        with client(self.server.port) as c:
            self.job_ids = [c.submit(s)["job"]["id"] for s in self.hit_specs]
            for job_id in self.job_ids:
                if c.wait(job_id, poll_s=0.01)["state"] != "done":
                    raise RuntimeError(f"warm-up job {job_id} failed")
        # Expected responses, computed the batch way from the stored runs.
        store = ShardedStore(self.store_dir)
        self.analyze: List[str] = []
        self.report: List[str] = []
        self.chart: List[str] = []
        #: seconds each in-process render took (the core layer's cost)
        self.render_s: List[float] = []
        self.report_s: List[float] = []
        self.traces: List[Any] = []
        for spec in self.hit_specs:
            trace, meta = store.get(spec)
            analysis = NoiseAnalysis(trace, meta=meta)
            t0 = time.perf_counter()
            self.analyze.append(render_analysis_summary(analysis))
            t1 = time.perf_counter()
            self.report.append(full_report(analysis, meta=meta))
            t2 = time.perf_counter()
            self.chart.append(chart_text(analysis))
            self.render_s.append(t1 - t0)
            self.report_s.append(t2 - t1)
            self.traces.append(trace)
        upload = RunSpec.make("UMT", TINY_NS if run.tiny else UPLOAD_NS,
                              run.seed * 10 + 9, NCPUS)
        trace, meta = upload.execute()
        self.upload_path = os.path.join(self.root, "upload.lttnz")
        trace.to_file(self.upload_path)
        meta.to_file(os.path.join(self.root, "upload.meta.json"))
        self.upload_expected = render_analysis_summary(
            NoiseAnalysis(trace, meta=meta))
        self.upload_records = sum(p.n_records for p in trace.packets)
        self.traces.append(trace)
        self.ops = {role: schedule(run.seed, role, self.cold_ns)
                    for role in BLOCKS}

    def close(self) -> None:
        self.server.close()


@dataclass
class OpResult:
    cls: str
    latency_s: float
    ok: bool
    message: str = ""
    http_error: bool = False
    cold_spec: Any = None
    cold_text: str = ""
    queue_wait_s: float = 0.0


def do_op(setup: Setup, c: Any, cls: str, arg: Any) -> OpResult:
    """One op, timed from the caller's side; checks are string compares
    against responses computed during set-up (cold runs are checked
    against the store after the run)."""
    from repro import obs
    from repro.service.client import ServiceError

    t0 = time.perf_counter()
    try:
        with obs.span("service.http", cls=cls):
            if cls == "hit":
                sub = c.submit(setup.hit_specs[arg])
                body = c.result(sub["job"]["id"])
                ok = (not sub["created"] and body["result"]["analyze_text"]
                      == setup.analyze[arg])
            elif cls in ("report", "chart", "analyze"):
                body = c.render(setup.job_ids[arg], cls)
                want = getattr(setup, cls)[arg]
                ok = body == want + "\n"
            elif cls == "cold":
                sub = c.submit(arg)
                final = c.wait(sub["job"]["id"], poll_s=0.01)
                done = time.perf_counter()
                body = c.result(sub["job"]["id"])
                result = OpResult(
                    cls, time.perf_counter() - t0,
                    sub["created"] and final["state"] == "done"
                    and not final["cached"],
                    cold_spec=arg,
                    cold_text=body["result"]["analyze_text"],
                    queue_wait_s=(done - t0) - final["elapsed_s"])
                if not result.ok:
                    result.message = f"cold {arg.describe()}: {final}"
                return result
            else:
                body = c.upload_file(setup.upload_path, window_ns=WINDOW_NS)
                ok = body["result"]["analyze_text"] == setup.upload_expected
    except ServiceError as exc:
        return OpResult(cls, time.perf_counter() - t0, False,
                        f"{cls}: {exc}", http_error=True)
    except (OSError, TimeoutError, KeyError, TypeError) as exc:
        # a dropped connection, a stuck job or a malformed response body
        return OpResult(cls, time.perf_counter() - t0, False,
                        f"{cls}: {type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    return OpResult(cls, latency, ok, "" if ok else f"{cls} {arg}: mismatch")


def drive(run: Run, setup: Setup) -> Tuple[List[OpResult], float]:
    """Run both clients, each over its own schedule; returns the op
    results in completion order and the wall time of the whole loop.

    Each client runs whole blocks: until ``--seconds`` have passed, or,
    with ``--ops N``, as many blocks as N ops of the two blocks together
    make, so that exact-count runs do the same ops every time."""
    from repro import obs

    lock = threading.Lock()
    results: List[OpResult] = []
    start = time.perf_counter()
    per_round = sum(len(block) for block in BLOCKS.values())
    rounds = (None if run.max_ops is None
              else -(-run.max_ops // per_round))

    def worker(role: str) -> None:
        size = len(BLOCKS[role])
        done = 0
        with client(setup.server.port) as c:
            while (done < rounds * size if rounds is not None
                   else run.budget_left(time.perf_counter() - start, done,
                                        round_len=size)):
                cls, arg = next(setup.ops[role])
                done += 1
                with obs.span("op", op=f"{role}{done}", cls=cls):
                    res = do_op(setup, c, cls, arg)
                with lock:
                    results.append(res)

    threads = [threading.Thread(target=worker, args=(role,))
               for role in BLOCKS]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, time.perf_counter() - start


def main(run: Run) -> None:
    setup, setup_s, setup_all = common.measure_setup(
        lambda: Setup(run))
    try:
        _measure(run, setup, setup_s)
        run.details["setup_all_s"] = setup_all
    finally:
        setup.close()


def _measure(run: Run, setup: Setup, setup_s: float) -> None:
    from repro import obs

    pid = setup.server.proc.pid
    before: Dict[str, Any] = {}
    overhead = healthz_ms = 0.0
    if run.trace:
        overhead = _trace_overhead(setup)
        healthz_ms = _healthz_floor(setup)
        before = _server_counters(setup)
        obs.reset()
        obs.enable()
    cpu0 = common.proc_cpu_s(pid) + common.self_cpu_s()
    results, wall = drive(run, setup)
    cpu = common.proc_cpu_s(pid) + common.self_cpu_s() - cpu0
    rss = common.proc_peak_rss_mb(pid)

    by_cls: Dict[str, List[float]] = {}
    for res in results:
        run.attempted += 1
        run.latencies_s.append(res.latency_s)
        by_cls.setdefault(res.cls, []).append(1e3 * res.latency_s)
        if not res.ok:
            run.fail(1, res.message)
    # Cold runs: the served analysis must equal the batch analysis of the
    # trace the server stored.
    from repro.core.analysis import NoiseAnalysis
    from repro.core.report import render_analysis_summary
    from repro.exec import ShardedStore

    store = ShardedStore(setup.store_dir)
    cold_traces = []
    for res in results:
        if res.cls != "cold" or not res.ok:
            continue
        hit = store.get(res.cold_spec)
        if hit is None or render_analysis_summary(
                NoiseAnalysis(hit[0], meta=hit[1])) != res.cold_text:
            run.fail(1, f"cold {res.cold_spec.describe()}: differs from "
                        f"the batch analysis of its stored trace")
        else:
            cold_traces.append((res.cold_spec, hit[0]))
    run.details["p50_ms_by_class"] = {
        k: common.median(v) for k, v in sorted(by_cls.items())}
    run.details["ops_by_class"] = {k: len(v) for k, v in by_cls.items()}
    run.details["op_classes"] = [res.cls for res in results]
    common.end_to_end(run, wall, cpu, rss, setup_s)
    if run.trace:
        _layers(run, setup, results, by_cls, before, cold_traces,
                overhead, healthz_ms)


def _server_counters(setup: Setup) -> Dict[str, Any]:
    """The server's own telemetry: ``/healthz`` counts plus the
    ``/metrics`` exposition (counters and span rollups) as a flat dict."""
    with client(setup.server.port) as c:
        health = c.healthz()
        text = c.metrics()
    flat: Dict[str, float] = {
        "submitted": health["submitted"],
        "deduped": health["deduped"],
        "store_hits": health["cache"]["hits"],
        "store_misses": health["cache"]["misses"],
    }
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            flat[key] = float(value)
    return flat


def _healthz_floor(setup: Setup, n: int = 200) -> float:
    """Median ``GET /healthz`` round trip: the HTTP floor."""
    samples = []
    with client(setup.server.port) as c:
        for _ in range(n):
            t0 = time.perf_counter()
            c.healthz()
            samples.append(time.perf_counter() - t0)
    return 1e3 * common.median(samples)


def _trace_overhead(setup: Setup) -> float:
    """Traced over untraced wall of the same ``report`` renders, ABBA."""
    from repro import obs

    walls = {False: 0.0, True: 0.0}
    with client(setup.server.port) as c:
        for traced in (False, True, True, False) * 4:
            (obs.enable if traced else obs.disable)()
            t0 = time.perf_counter()
            with obs.span("op", op="calibrate", cls="report"):
                do_op(setup, c, "report", 0)
            walls[traced] += time.perf_counter() - t0
    obs.disable()
    return walls[True] / walls[False]


def _layers(run: Run, setup: Setup, results: List[OpResult],
            by_cls: Dict[str, List[float]], before: Dict[str, Any],
            cold_traces: List[Tuple[Any, Any]], overhead: float,
            healthz_ms: float) -> None:
    from repro import obs
    from repro.exec import ShardedStore

    after = _server_counters(setup)
    delta = {k: v - before.get(k, 0.0) for k, v in after.items()}

    def span_total(name: str) -> Tuple[float, float]:
        label = '{name="' + name + '"}'
        return (delta.get("lttng_noise_span_count" + label, 0.0),
                delta.get("lttng_noise_span_total_ms" + label, 0.0))

    codec = common.CodecProbe()
    for trace in setup.traces + [t for _, t in cold_traces]:
        codec.add(trace)
    codec.report(run)
    snap = obs.snapshot()
    obs.disable()
    nodes = common.span_forest(obs.REGISTRY.spans)
    common.record_ledgers(run, nodes, ("op",))
    run.details["span_files"] = common.export_spans(run, snap)
    # Server-side ledger: each layer's share of the time the server spent
    # in requests and jobs (spans the server emits itself).
    server_names = ("run", "analysis", "trace-decode", "service.upload")
    busy = span_total("service.request")[1] + span_total("service.job")[1]
    run.details["server_busy_ms"] = busy
    run.details["server_shares"] = {
        name: span_total(name)[1] / busy if busy else 0.0
        for name in server_names}

    calls, busy_ms = span_total("run")
    records = sum(sum(p.n_records for p in t.packets) for _, t in cold_traces)
    sim_s = sum(s.duration_ns for s, _ in cold_traces) / 1e9
    run.put("simkernel.calls", calls, "count")
    run.put("simkernel.busy_ms", busy_ms, "ms")
    run.put("simkernel.sim_s_per_host_s",
            sim_s / (busy_ms / 1e3) if busy_ms else 0.0, "ratio")
    run.put("simkernel.records_per_s",
            records / (busy_ms / 1e3) if busy_ms else 0.0, "1/s")
    run.put("simkernel.records", records, "count")

    # The server has no store span: time the same public calls on the same
    # entries here, and charge them per call the server made.
    gets = delta["store_hits"] + delta["store_misses"]
    puts = delta.get("lttng_noise_cache_put_total", 0.0)
    store = ShardedStore(setup.store_dir)
    t0 = time.perf_counter()
    for spec in setup.hit_specs:
        store.get(spec)
    get_s = (time.perf_counter() - t0) / len(setup.hit_specs)
    scratch = ShardedStore(common.fresh_dir("runs", "serve-put-replay"))
    t0 = time.perf_counter()
    for spec, trace in cold_traces[:8]:
        scratch.put(spec, trace, store.get(spec)[1])
    put_s = (time.perf_counter() - t0) / max(1, len(cold_traces[:8]))
    run.put("exec.store_get_calls", gets, "count")
    run.put("exec.store_get_ms", 1e3 * get_s * gets, "ms")
    run.put("exec.store_put_calls", puts, "count")
    run.put("exec.store_put_ms", 1e3 * put_s * puts, "ms")
    run.put("exec.store_hit_ratio",
            delta["store_hits"] / gets if gets else 0.0, "ratio")
    run.put("exec.store_bytes", store.total_bytes(), "bytes")

    _n, analysis_ms = span_total("analysis")
    run.put("core.analysis_ms", analysis_ms, "ms")
    run.put("core.records_per_s",
            delta.get("lttng_noise_decode_records_total", 0.0)
            / (analysis_ms / 1e3) if analysis_ms else 0.0, "1/s")
    run.put("core.activities",
            delta.get("lttng_noise_classify_activities_total", 0.0), "count")
    counts = {k: len(v) for k, v in by_cls.items()}
    render_once = common.median(setup.render_s)
    run.put("core.render_ms", 1e3 * render_once * (
        counts.get("cold", 0) + counts.get("upload", 0)), "ms")
    run.put("core.report_ms",
            1e3 * common.median(setup.report_s) * counts.get("report", 0),
            "ms")
    _n, upload_ms = span_total("service.upload")
    run.put("stream.analysis_ms", upload_ms, "ms")
    uploaded = setup.upload_records * sum(
        1 for r in results if r.cls == "upload" and r.ok)
    run.put("stream.records_per_s",
            uploaded / (upload_ms / 1e3) if upload_ms else 0.0, "1/s")
    run.put("stream.windows",
            delta.get("lttng_noise_stream_windows_total", 0.0), "count")

    run.put("service.hit_ms", common.median(by_cls.get("hit", [])), "ms")
    run.put("service.render_report_ms",
            common.median(by_cls.get("report", [])), "ms")
    run.put("service.cold_ms", common.median(by_cls.get("cold", [])), "ms")
    run.put("service.upload_ms", common.median(by_cls.get("upload", [])),
            "ms")
    run.put("service.queue_wait_ms", 1e3 * common.median(
        r.queue_wait_s for r in results if r.cls == "cold" and r.ok), "ms")
    submits = delta["submitted"] + delta["deduped"]
    run.put("service.dedup_ratio",
            delta["deduped"] / submits if submits else 0.0, "ratio")
    run.put("service.http_errors", sum(r.http_error for r in results),
            "count")
    run.put("service.healthz_ms", healthz_ms, "ms")
    run.put("harness.trace_overhead_ratio", overhead, "ratio")
    common.floors(run, setup.env)
