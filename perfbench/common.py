"""Shared machinery for the perfbench workloads.

Everything here runs from the root of a source checkout: the program under
test is imported from ``src/`` and every file the benchmark writes lives
under ``.perfbench/`` in that checkout (stores, plan directories, recorded
traces, span exports).  Nothing reads or writes outside it.

Timing conventions:

* an *op* is one user-visible operation of a workload; its latency is the
  wall time the caller waits for it (``time.perf_counter``);
* percentiles are linear-interpolated over all completed ops of the run;
* CPU time is user + system time of every process that did the op's work;
* set-up is repeated :data:`SETUP_REPEATS` times per run (more where it is
  short) and its median is reported, so a slow first set-up (imports, cold
  page cache) does not dominate.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: How many times a run builds its inputs by default; ``setup_s`` is
#: their median.
SETUP_REPEATS = 3


def require_checkout() -> None:
    """Exit 2 (no result) unless cwd is a checkout holding ``src/repro``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: {ROOT} holds no src/repro package; run from the "
              f"root of a source checkout", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_spec() -> Dict[str, Any]:
    """The benchmark definition (``BENCHMARK.json`` at the checkout root)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def fresh_dir(*parts: str) -> str:
    """An empty directory under ``.perfbench/`` (removed first if present)."""
    path = os.path.join(OUT, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child_env(tmp_dir: str) -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` on the
    path, temporary files and any default result store inside the run
    directory, and the telemetry switch off (traced runs time children
    from outside, never by enabling obs in them)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = tmp_dir
    env["LTTNG_NOISE_CACHE"] = os.path.join(tmp_dir, "default-store")
    for var in ("LTTNG_NOISE_OBS", "LTTNG_NOISE_BENCH_CACHE",
                "LTTNG_NOISE_OBS_SAMPLE_MS", "LTTNG_NOISE_OBS_SPILL"):
        env.pop(var, None)
    return env


def percentile(values: Iterable[float], q: float) -> float:
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else 0.0


def self_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def proc_cpu_s(pid: int) -> float:
    """User + system CPU of a live process plus its reaped children."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fp:
        fields = fp.read().rsplit(")", 1)[1].split()
    ticks = sum(int(v) for v in fields[11:15])  # utime stime cutime cstime
    return ticks / os.sysconf("SC_CLK_TCK")


def reset_peak_rss() -> None:
    """Reset this process's peak resident set (``VmHWM``) to its current
    size, so a later :func:`proc_peak_rss_mb` covers only what follows."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fp:
        fp.write("5")


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: str


def run_child(args: List[str], env: Dict[str, str],
              stderr_path: str, timeout_s: float = 120.0) -> ChildResult:
    """Run one child interpreter to completion and account for it exactly:
    wall from spawn to reap, and that child's own rusage (CPU, peak RSS)."""
    t0 = time.perf_counter()
    with open(stderr_path, "ab") as err:
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err,
                                env=env)
        try:
            out = proc.stdout.read() if proc.stdout else b""
            deadline = time.monotonic() + timeout_s
            while True:
                pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, ru = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.0005)
        finally:
            if proc.stdout:
                proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        wall_s=wall,
        cpu_s=ru.ru_utime + ru.ru_stime,
        rss_mb=ru.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        stdout=out.decode("utf-8", errors="replace"),
    )


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------

@dataclass
class Run:
    """One benchmark run: its arguments, op samples and failures."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    max_ops: Optional[int] = None
    tiny: bool = False
    latencies_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Conditions that void the whole run (e.g. a store hit in sweep-cold).
    invalid: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def dir(self) -> str:
        return os.path.join(OUT, "runs", f"{self.workload}-seed{self.seed}")

    def budget_left(self, timed_s: float, ops_done: int,
                    round_len: int = 1) -> bool:
        """Keep going?  ``--ops`` caps the op count (exact-count runs);
        otherwise the timed region runs for ``--seconds`` and then to the
        end of the current round of the schedule, so every run executes
        whole rounds and the op mix is the same in every run."""
        if self.max_ops is not None:
            return ops_done < self.max_ops
        return timed_s < self.seconds or ops_done % round_len != 0

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def measure_setup(build: Callable[[], Any], repeats: int = SETUP_REPEATS
                  ) -> Tuple[Any, float, List[float]]:
    """Build the inputs ``repeats`` times; keep the last build.

    ``build()`` must start from nothing each time (fresh directories,
    fresh server).  Returns ``(last_result, median_s, all_s)``; earlier
    results are closed through their ``close()`` when they have one.
    """
    times: List[float] = []
    result: Any = None
    for _ in range(repeats):
        if result is not None and hasattr(result, "close"):
            result.close()
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return result, median(times), times


def end_to_end(run: Run, wall_s: float, cpu_s: float, peak_rss_mb: float,
               setup_s: float) -> None:
    """The user-visible metrics every workload reports."""
    done = len(run.latencies_s)
    ms = [1e3 * v for v in run.latencies_s]
    run.put("ops_per_s", done / wall_s if wall_s > 0 else 0.0, "1/s")
    run.put("latency_p50_ms", percentile(ms, 50), "ms")
    run.put("latency_p90_ms", percentile(ms, 90), "ms")
    run.put("cpu_ms_per_op", 1e3 * cpu_s / max(done, 1), "ms")
    run.put("peak_rss_mb", peak_rss_mb, "MB")
    run.put("success_ratio",
            (run.attempted - run.failed) / max(run.attempted, 1), "ratio")
    run.put("fail_ratio", run.failed / max(run.attempted, 1), "ratio")
    run.put("setup_s", setup_s, "s")
    run.details["samples"] = done
    run.details["latencies_s"] = run.latencies_s
    # p90 has at least ten samples beyond it only from 100 ops on.
    run.details["p90_valid"] = done >= 100


# ----------------------------------------------------------------------
# Tracing: spans through repro.obs, self time per layer
# ----------------------------------------------------------------------

#: Span name -> layer.  ``run``, ``trace-decode``, ``sweep``, ``shard``,
#: ``analysis``, ``nesting``, ``preemption``, ``classify`` and
#: ``stream.window`` are spans the program already emits through
#: ``repro.obs`` when telemetry is on; the rest are the benchmark's own
#: spans around public calls.
LAYER_OF = {
    "op": "harness",
    "cli.import": "cli",
    "run": "simkernel",
    "tracing.decode": "tracing",
    "tracing.encode": "tracing",
    "trace-decode": "tracing",
    "exec.sweep": "exec",
    "sweep": "exec",
    "shard": "exec",
    "exec.store.get": "exec",
    "exec.store.put": "exec",
    "analysis": "core",
    "nesting": "core",
    "preemption": "core",
    "classify": "core",
    "core.analysis": "core",
    "core.render": "core",
    "stream.analysis": "stream",
    "stream.window": "stream",
    "service.http": "service",
}


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, "other")


@dataclass
class SpanNode:
    record: Any
    children: List["SpanNode"] = field(default_factory=list)
    op: Optional[str] = None

    @property
    def start(self) -> int:
        return self.record.start_ns

    @property
    def end(self) -> int:
        return self.record.start_ns + self.record.dur_ns

    @property
    def self_ns(self) -> int:
        return self.record.dur_ns - sum(c.record.dur_ns for c in self.children)


def span_forest(records: Iterable[Any]) -> List[SpanNode]:
    """Nest span records by time containment per (pid, thread).

    A span's parent is the innermost span of the same thread that contains
    it; a span's op id is its own ``op`` label or its parent's.  Returns
    every node (roots have no parent)."""
    nodes: List[SpanNode] = []
    by_thread: Dict[Tuple[int, int], List[SpanNode]] = {}
    for rec in records:
        node = SpanNode(rec)
        nodes.append(node)
        by_thread.setdefault((rec.pid, rec.tid), []).append(node)
    for thread_nodes in by_thread.values():
        thread_nodes.sort(key=lambda n: (n.start, -n.record.dur_ns))
        stack: List[SpanNode] = []
        for node in thread_nodes:
            while stack and stack[-1].end <= node.start:
                stack.pop()
            parent = stack[-1] if stack and node.end <= stack[-1].end else None
            if parent is not None:
                parent.children.append(node)
            label = node.record.labels.get("op")
            node.op = str(label) if label is not None else (
                parent.op if parent is not None else None)
            stack.append(node)
    return nodes


def op_ledgers(nodes: List[SpanNode], root_names: Tuple[str, ...]
               ) -> Dict[str, Dict[str, Any]]:
    """Per traced op: its wall and each layer's self time (ns).

    An op is a root span (no parent) named in ``root_names``; every span
    beneath it charges its self time to its layer."""
    child_ids = {id(c) for n in nodes for c in n.children}
    ledgers: Dict[str, Dict[str, Any]] = {}

    def walk(node: SpanNode, into: Dict[str, int]) -> None:
        layer = layer_of(node.record.name)
        into[layer] = into.get(layer, 0) + node.self_ns
        for child in node.children:
            walk(child, into)

    for node in nodes:
        if id(node) in child_ids or node.record.name not in root_names:
            continue
        layers: Dict[str, int] = {}
        walk(node, layers)
        ledgers[node.op or f"span{len(ledgers)}"] = {
            "wall_ns": node.record.dur_ns,
            "labels": dict(node.record.labels),
            "self_ns": layers,
        }
    return ledgers


def ledger_problems(nodes: List[SpanNode], root_names: Tuple[str, ...]
                    ) -> List[str]:
    """What would make the per-op ledgers of :func:`op_ledgers` wrong.

    Every op tree must nest the way the spans were opened: each child
    lies inside its parent, siblings do not overlap (so no self time is
    negative and no time is charged twice), each span sits at the depth
    ``repro.obs`` recorded for it, and every span of the op's thread that
    starts inside the op belongs to the op's tree (so none is left out).
    """
    child_ids = {id(c) for n in nodes for c in n.children}
    by_thread: Dict[Tuple[int, int], List[SpanNode]] = {}
    for node in nodes:
        by_thread.setdefault((node.record.pid, node.record.tid),
                             []).append(node)
    problems: List[str] = []
    for root in nodes:
        if id(root) in child_ids or root.record.name not in root_names:
            continue
        where = f"op {root.op or root.record.name}"
        members = set()
        todo = [(root, root.record.depth)]
        while todo:
            node, depth = todo.pop()
            members.add(id(node))
            name = node.record.name
            if node.record.depth != depth:
                problems.append(f"{where}: {name} at depth "
                                f"{node.record.depth}, nested at {depth}")
            if node.self_ns < 0:
                problems.append(f"{where}: {name} self time "
                                f"{node.self_ns} ns")
            kids = sorted(node.children, key=lambda c: c.start)
            for kid in kids:
                if kid.start < node.start or kid.end > node.end:
                    problems.append(f"{where}: {kid.record.name} outside "
                                    f"{name}")
                todo.append((kid, depth + 1))
            for a, b in zip(kids, kids[1:]):
                if b.start < a.end:
                    problems.append(f"{where}: {a.record.name} and "
                                    f"{b.record.name} overlap")
        for other in by_thread[(root.record.pid, root.record.tid)]:
            if id(other) not in members and root.start <= other.start < root.end:
                problems.append(f"{where}: {other.record.name} starts "
                                f"inside the op but is not in its tree")
    return problems


def record_ledgers(run: Run, nodes: List[SpanNode],
                   root_names: Tuple[str, ...]) -> Dict[str, Dict[str, Any]]:
    """:func:`op_ledgers` into the run's details; a ledger that
    :func:`ledger_problems` faults voids the run."""
    ledgers = op_ledgers(nodes, root_names)
    problems = ledger_problems(nodes, root_names)
    run.details["ledgers"] = ledgers
    run.details["ledger_problems"] = problems
    if problems:
        run.invalid.append(f"{len(problems)} span ledger problems, "
                           f"first: {problems[0]}")
    return ledgers


def sum_spans(nodes: List[SpanNode], name: str, self_time: bool = False
              ) -> Tuple[int, float]:
    """``(count, total_ms)`` of spans called ``name`` (self or full time)."""
    picked = [n for n in nodes if n.record.name == name]
    total = sum(n.self_ns if self_time else n.record.dur_ns for n in picked)
    return len(picked), total / 1e6


def layer_shares(ledgers: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Each layer's share of the summed wall of the given ops."""
    wall = sum(l["wall_ns"] for l in ledgers.values())
    totals: Dict[str, int] = {}
    for ledger in ledgers.values():
        for layer, ns in ledger["self_ns"].items():
            totals[layer] = totals.get(layer, 0) + ns
    return {k: v / wall for k, v in sorted(totals.items())} if wall else {}


def core_metrics(run: Run, nodes: List[SpanNode],
                 snap: Dict[str, Any]) -> None:
    """The core layer from the program's own ``analysis`` spans (one per
    ``NoiseAnalysis``), its ``classify.activities`` counter and the
    benchmark's ``core.render`` spans."""
    _n, analysis_ms = sum_spans(nodes, "analysis")
    analyzed = sum(int(n.record.labels.get("records", 0))
                   for n in nodes if n.record.name == "analysis")
    run.put("core.analysis_ms", analysis_ms, "ms")
    run.put("core.records_per_s",
            analyzed / (analysis_ms / 1e3) if analysis_ms else 0.0, "1/s")
    counters = {c["name"]: c["value"] for c in snap["counters"]
                if not c["labels"]}
    run.put("core.activities", counters.get("classify.activities", 0),
            "count")
    run.put("core.render_ms", sum_spans(nodes, "core.render")[1], "ms")


def export_spans(run: Run, snap: Dict[str, Any]) -> Dict[str, str]:
    """Write the traced run's spans as a Chrome trace and JSON lines."""
    from repro import obs

    out = os.path.join(OUT, "traces")
    os.makedirs(out, exist_ok=True)
    base = os.path.join(out, f"{run.workload}-seed{run.seed}")
    obs.write_chrome_trace(base + ".chrome.json", snap)
    with open(base + ".spans.jsonl", "w", encoding="utf-8") as fp:
        for span in snap["spans"]:
            fp.write(json.dumps(span, sort_keys=True) + "\n")
    return {"chrome": base + ".chrome.json", "jsonl": base + ".spans.jsonl"}


# ----------------------------------------------------------------------
# Measurement floors (reported beside the results, never subtracted)
# ----------------------------------------------------------------------

def noop_loop_us(n: int = 20000, repeats: int = 5) -> float:
    """The op loop's own cost per iteration, with a no-op operation."""
    probe = Run("noop", 0, 0.0, False, max_ops=n)
    per_iter = []
    for _ in range(repeats):
        probe.latencies_s.clear()
        timed = 0.0
        t_start = time.perf_counter()
        while probe.budget_left(timed, len(probe.latencies_s)):
            t0 = time.perf_counter()
            dt = time.perf_counter() - t0
            probe.latencies_s.append(dt)
            timed += dt
        per_iter.append((time.perf_counter() - t_start) / n)
    return 1e6 * median(per_iter)


def span_cost_ns(n: int = 20000, repeats: int = 5) -> float:
    """One enabled ``repro.obs.span`` enter/exit, on a private registry."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import span

    reg = MetricsRegistry(enabled=True)
    costs = []
    for _ in range(repeats):
        reg.spans.clear()
        t0 = time.perf_counter_ns()
        for _ in range(n):
            with span("floor", registry=reg):
                pass
        costs.append((time.perf_counter_ns() - t0) / n)
    return median(costs)


IMPORT_PROBE = (
    "import sys, repro.cli; "
    "print(sum(1 for m in sys.modules if m == 'repro' or "
    "m.startswith('repro.')))"
)


def interpreter_floors(run: Run, env: Dict[str, str], repeats: int = 5
                       ) -> Tuple[float, float, int]:
    """``(python_floor_ms, import_ms, repro_modules)``: a bare interpreter,
    and a fresh ``import repro.cli`` minus that floor."""
    err = os.path.join(run.dir, "probe.stderr")
    bare = [run_child([sys.executable, "-c", "pass"], env, err).wall_s
            for _ in range(repeats)]
    probes = [run_child([sys.executable, "-c", IMPORT_PROBE], env, err)
              for _ in range(repeats)]
    modules = int(probes[-1].stdout.strip() or 0)
    floor_ms = 1e3 * median(bare)
    import_ms = 1e3 * median(p.wall_s for p in probes) - floor_ms
    return floor_ms, import_ms, modules


class CodecProbe:
    """Encode (compressed, the store's format) and decode traces with
    spans around the public calls; tallies the tracing-layer metrics."""

    def __init__(self) -> None:
        self.enc_ns = self.dec_ns = self.nbytes = self.nrecords = 0

    def add(self, trace: Any) -> None:
        from repro import obs
        from repro.tracing.ctf import Trace

        t0 = time.perf_counter_ns()
        with obs.span("tracing.encode"):
            blob = trace.to_bytes(compress=True)
        t1 = time.perf_counter_ns()
        with obs.span("tracing.decode"):
            records = Trace.from_bytes(blob).records()
        t2 = time.perf_counter_ns()
        self.enc_ns += t1 - t0
        self.dec_ns += t2 - t1
        self.nbytes += len(blob)
        self.nrecords += len(records)

    def report(self, run: Run) -> None:
        enc_s, dec_s = self.enc_ns / 1e9, self.dec_ns / 1e9
        run.put("tracing.encode_ms", 1e3 * enc_s, "ms")
        run.put("tracing.encode_mb_per_s",
                self.nbytes / 1e6 / enc_s if enc_s else 0.0, "MB/s")
        run.put("tracing.decode_ms", 1e3 * dec_s, "ms")
        run.put("tracing.decode_records_per_s",
                self.nrecords / dec_s if dec_s else 0.0, "1/s")
        run.put("tracing.bytes", self.nbytes, "bytes")


def floors(run: Run, env: Dict[str, str]) -> None:
    """The four floors every traced run reports."""
    floor_ms, import_ms, modules = interpreter_floors(run, env)
    run.put("cli.python_floor_ms", floor_ms, "ms")
    run.put("cli.import_ms", import_ms, "ms")
    run.put("cli.repro_modules", modules, "count")
    run.put("harness.noop_us", noop_loop_us(), "us")
    run.put("obs.span_ns", span_cost_ns(), "ns")


def is_idle(name: str, idle: Iterable[str]) -> bool:
    """Is metric ``name`` one of, or in a layer of, the ``idle`` names?"""
    return any(name == x or name.startswith(x + ".") for x in idle)


def fill_idle(run: Run, names_units: Iterable[Tuple[str, str]],
              idle: Tuple[str, ...]) -> None:
    """Report 0 (no calls, no time) for the metrics of the layers, or the
    single metrics, that a workload does not exercise.  Any other metric
    the workload failed to compute stays missing, and the run stops."""
    for name, unit in names_units:
        if is_idle(name, idle):
            run.metrics.setdefault(name, (0.0, unit))


def result_line(run: Run, names: Iterable[Tuple[str, str]]) -> Dict[str, Any]:
    """The final JSON object: exactly the requested metrics, in order."""
    metrics = {}
    for name, unit in names:
        if name not in run.metrics:
            raise RuntimeError(f"{run.workload}: {name} was not measured")
        value, got_unit = run.metrics[name]
        if got_unit != unit:
            raise RuntimeError(f"{name}: unit {got_unit} != {unit}")
        metrics[name] = {"value": value, "unit": unit}
    correct = run.failed == 0 and not run.invalid
    return {
        "correct": correct,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": metrics,
    }
