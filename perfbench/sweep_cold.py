"""``sweep-cold``: fresh specs through the planned serial sweep driver.

The driver is the one ``lttng-noise sweep --serial --plan DIR`` uses:
``SeedSweep.run`` with a saved ``SweepPlan``, serial dispatch and an empty
``ShardedStore`` created for this run.  Ops are specs; each call to the
driver runs one Sequoia app for two seeds, apps rotate in a seeded order,
and the sweep's closing summary table counts in the timed wall.  A spec's
latency is its share of its call's wall.

The simulator does most of the work here and the store only writes, so
this is where simulator events/s and run-driver changes show.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Dict, Iterator, List, Set, Tuple

import common
from common import Run

APPS = ("AMG", "IRS", "LAMMPS", "SPHOT", "UMT")
NCPUS = 8
DURATION_NS = 250_000_000
TINY_DURATION_NS = 20_000_000
WARMUP_NS = 25_000_000
SEEDS_PER_CALL = 2
#: The summary table the CLI prints by default (``--events``).
SUMMARY_EVENTS = ("timer_interrupt",)
#: Layers (or single metrics) this workload does not exercise; they
#: report 0.  No upload, server or full report is involved.
IDLE = ("stream", "service", "core.report_ms")


def schedule(seed: int) -> Iterator[Tuple[str, List[int]]]:
    """Endless ``(app, simulation seeds)`` calls; each round visits every
    app once in a seeded order, and no simulation seed repeats."""
    rng = random.Random(f"sweep-cold:{seed}")
    used = set()
    while True:
        for app in rng.sample(APPS, len(APPS)):
            seeds = []
            while len(seeds) < SEEDS_PER_CALL:
                s = rng.randrange(1, 2**31)
                if s not in used:
                    used.add(s)
                    seeds.append(s)
            yield app, seeds


def _classes(traced: bool):
    """The store and backend the sweep runs on.

    Both behave exactly like the stock ``ShardedStore`` and
    ``SerialBackend``; the backend also keeps each produced trace for the
    readback check, and traced runs wrap the store calls in spans (the
    backend's own ``run`` span times the simulation)."""
    from repro import obs
    from repro.exec import RunSpec, SerialBackend, ShardedStore

    class Store(ShardedStore):
        def get(self, spec: RunSpec):
            with obs.span("exec.store.get"):
                return super().get(spec)

        def put(self, spec: RunSpec, trace: Any, meta: Any) -> None:
            with obs.span("exec.store.put"):
                super().put(spec, trace, meta)

    class Backend(SerialBackend):
        def __init__(self) -> None:
            self.produced: List[Tuple[Any, Any, Any]] = []

        def execute(self, specs):
            for item in super().execute(specs):
                self.produced.append(item[:3])
                yield item

    return (Store, Backend) if traced else (ShardedStore, Backend)


class Setup:
    def __init__(self, run: Run) -> None:
        from repro.exec import RunSpec

        self.root = common.fresh_dir("runs", f"{run.workload}-seed{run.seed}")
        self.store_dir = os.path.join(self.root, "store")
        self.plans_dir = os.path.join(self.root, "plans")
        os.makedirs(self.plans_dir)
        self.duration_ns = TINY_DURATION_NS if run.tiny else DURATION_NS
        self.calls = schedule(run.seed)
        # Let lazy imports and first-call set-up finish before timing:
        # one short simulation per app, never stored.
        for app in APPS:
            RunSpec.make(app, WARMUP_NS, 1, NCPUS).execute()


def _check_reference(analysis: Any, trace: Any, meta: Any) -> List[str]:
    """The columnar analysis must equal the frozen reference exactly."""
    from repro.core.reference import ReferenceAnalysis

    ref = ReferenceAnalysis(trace, meta=meta)
    bad = []
    probes = {
        "stats": lambda a: a.stats_by_event(noise_only=True),
        "stats_all": lambda a: a.stats_by_event(noise_only=False),
        "breakdown": lambda a: a.breakdown_ns(),
        "total": lambda a: a.total_noise_ns(),
        "fraction": lambda a: a.noise_fraction(),
        "per_cpu": lambda a: a.per_cpu_noise_ns().tolist(),
    }
    for name, probe in probes.items():
        if probe(analysis) != probe(ref):
            bad.append(name)
    return bad


def _check_call(store: Any, app: str, specs: List[Any], sweep: Any,
                summary: str, backend: Any, referenced: Set[str],
                codec: Any, tally: Dict[str, int]) -> List[str]:
    """The checks of one driver call, outside the timed region: every
    spec simulated and stored, the stored bytes equal to the produced
    trace, and the first spec of each app equal to the reference
    analysis.  Adds the produced records and simulated time to ``tally``
    and, in traced runs, the traces to ``codec``."""
    problems = []
    stats = sweep.exec_stats or {}
    if int(stats.get("simulated", -1)) != len(specs) or stats.get("cached"):
        problems.append(f"sweep stats {stats}")
    if not summary.strip():
        problems.append("empty summary")
    for spec, trace, meta in backend.produced:
        paths = store.locate(store.token(spec))
        if paths is None:
            problems.append(f"{spec.describe()}: not stored")
            continue
        with open(paths[0], "rb") as fp:
            if fp.read() != trace.to_bytes(compress=True):
                problems.append(f"{spec.describe()}: readback differs")
        tally["records"] += sum(p.n_records for p in trace.packets)
        tally["sim_ns"] += spec.duration_ns
        if app not in referenced:
            referenced.add(app)
            analysis = sweep.analyses[specs.index(spec)]
            bad = _check_reference(analysis, trace, meta)
            if bad:
                problems.append(f"{spec.describe()}: reference {bad}")
        if codec is not None:
            codec.add(trace)
    return problems


def main(run: Run) -> None:
    from repro import obs
    from repro.core.sweep import SeedSweep
    from repro.exec import RunSpec, SweepPlan

    # Set-up is short here (~60 ms), so take the median of more builds.
    setup, setup_s, setup_all = common.measure_setup(
        lambda: Setup(run), repeats=15)
    run.details["setup_all_s"] = setup_all
    Store, Backend = _classes(run.trace)
    store = Store(setup.store_dir)
    env = common.child_env(setup.root)

    overhead = None
    if run.trace:
        overhead = _trace_overhead(setup, Store, Backend)
        obs.reset()
        obs.enable()

    referenced: Set[str] = set()
    timed = cpu = peak = 0.0
    calls = 0
    tally = {"records": 0, "sim_ns": 0}
    codec = common.CodecProbe()
    while run.budget_left(timed, run.attempted,
                          round_len=len(APPS) * SEEDS_PER_CALL):
        app, seeds = next(setup.calls)
        specs = [RunSpec.make(app, setup.duration_ns, s, NCPUS)
                 for s in seeds]
        run.attempted += len(specs)
        calls += 1
        backend = Backend()
        plan_dir = os.path.join(setup.plans_dir, f"call{calls:04d}")
        # Peak RSS covers the driver calls only, not the checks between
        # them (the previous call's objects are released by now).
        common.reset_peak_rss()
        c0 = common.self_cpu_s()
        t0 = time.perf_counter()
        try:
            with obs.span("exec.sweep", op=f"call{calls}", app=app):
                plan = SweepPlan(specs, plan_dir=plan_dir)
                plan.save()
                sweep = SeedSweep.run(
                    app, setup.duration_ns, seeds, ncpus=NCPUS,
                    parallel=False, cache=store, backend=backend, plan=plan,
                )
                with obs.span("core.render"):
                    summary = sweep.summary_table(SUMMARY_EVENTS)
        except Exception as exc:  # a failed call is data, keep measuring
            sweep = summary = None
            run.fail(len(specs), f"{app} {seeds}: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        timed += wall
        cpu += common.self_cpu_s() - c0
        peak = max(peak, common.proc_peak_rss_mb(os.getpid()))
        if sweep is None:
            continue
        # A call runs its specs, their analyses and the summary as one
        # unit, so each spec's latency is its share of the call's wall.
        run.latencies_s.extend([wall / len(specs)] * len(specs))
        problems = _check_call(store, app, specs, sweep, summary, backend,
                               referenced, codec if run.trace else None,
                               tally)
        if problems:
            run.fail(len(specs), "; ".join(problems))
        plan = sweep = summary = backend = None
    if store.hits:
        run.invalid.append(f"store served {store.hits} hits; sweep-cold "
                           f"needs an empty store")

    common.end_to_end(run, timed, cpu, peak, setup_s)
    run.details["driver_calls"] = calls
    if run.trace:
        _layers(run, store, codec, tally["records"], tally["sim_ns"],
                overhead, env)


def _trace_overhead(setup: Setup, Store, Backend) -> float:
    """Traced over untraced wall of the same one-spec sweep, in ABBA
    order, each in its own fresh store so nothing hits."""
    from repro import obs
    from repro.core.sweep import SeedSweep

    walls: Dict[bool, List[float]] = {False: [], True: []}
    for i, traced in enumerate((False, True, True, False) * 2):
        (obs.enable if traced else obs.disable)()
        root = common.fresh_dir("runs", "overhead", str(i))
        t0 = time.perf_counter()
        with obs.span("calibrate"):
            SeedSweep.run("AMG", setup.duration_ns, [7], ncpus=NCPUS,
                          parallel=False, cache=Store(root),
                          backend=Backend(), progress=lambda *a: None)
        walls[traced].append(time.perf_counter() - t0)
    obs.disable()
    return sum(walls[True]) / sum(walls[False])


def _layers(run: Run, store: Any, codec: Any, records: int,
            sim_ns: int, overhead: float, env: Dict[str, str]) -> None:
    from repro import obs

    codec.report(run)
    snap = obs.snapshot()
    obs.disable()
    nodes = common.span_forest(obs.REGISTRY.spans)
    ledgers = common.record_ledgers(run, nodes, ("exec.sweep",))
    run.details["ledger_shares"] = common.layer_shares(ledgers)
    run.details["span_files"] = common.export_spans(run, snap)

    calls, busy_ms = common.sum_spans(nodes, "run")
    run.put("simkernel.calls", calls, "count")
    run.put("simkernel.busy_ms", busy_ms, "ms")
    run.put("simkernel.sim_s_per_host_s",
            (sim_ns / 1e9) / (busy_ms / 1e3) if busy_ms else 0.0, "ratio")
    run.put("simkernel.records_per_s",
            records / (busy_ms / 1e3) if busy_ms else 0.0, "1/s")
    run.put("simkernel.records", records, "count")

    puts, put_ms = common.sum_spans(nodes, "exec.store.put")
    gets, get_ms = common.sum_spans(nodes, "exec.store.get")
    run.put("exec.store_put_calls", puts, "count")
    run.put("exec.store_put_ms", put_ms, "ms")
    run.put("exec.store_get_calls", gets, "count")
    run.put("exec.store_get_ms", get_ms, "ms")
    run.put("exec.store_hit_ratio", store.hits / gets if gets else 0.0,
            "ratio")
    run.put("exec.store_bytes", store.total_bytes(), "bytes")
    driver = sum(common.sum_spans(nodes, name, self_time=True)[1]
                 for name in ("exec.sweep", "sweep", "shard"))
    run.put("exec.driver_self_ms", driver, "ms")

    common.core_metrics(run, nodes, snap)
    run.put("harness.trace_overhead_ratio", overhead, "ratio")
    common.floors(run, env)
