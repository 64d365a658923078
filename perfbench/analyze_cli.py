"""``analyze-cli``: ``lttng-noise analyze`` child processes, one at a time.

Set-up records four traces from the run seed: two small ones (FTQ and
LAMMPS, where interpreter start-up and ``import repro.cli`` are most of an
op) and two large ones (AMG and UMT, ~90k-130k records, where decode and
analysis are).  Each op runs ``python -m repro.cli analyze FILE`` on one of
them, batch or ``--stream``, in rounds that visit every (file, mode) pair
in a seeded order.  The op's stdout must equal the
in-process ``render_analysis_summary`` computed during set-up (after the
one header line ``--stream`` adds).

The traced run replays each op in-process under spans (``Trace.from_file``,
``NoiseAnalysis``, ``StreamingAnalysis.analyze_file``,
``render_analysis_summary``) after a subprocess import probe, so the
ledger charges start-up to ``cli`` and the rest to the engine layers.
"""

from __future__ import annotations

import os
import random
import sys
import time
from typing import Any, Dict, Iterator, List, Tuple

import common
from common import Run

NCPUS = 8
#: (label, workload, simulated ns); the first two are the small traces.
FILES = (
    ("ftq", "FTQ", 1_000_000_000),
    ("lammps", "LAMMPS", 1_000_000_000),
    ("amg", "AMG", 2_000_000_000),
    ("umt", "UMT", 2_000_000_000),
)
TINY_NS = 50_000_000
MODES = ("batch", "stream")
#: One round of the schedule: every (file, mode) pair once, plus a second
#: UMT ``--stream`` op.  With nine ops the median falls inside the AMG
#: batch ops and p90 inside the UMT stream ops, not on the boundary
#: between two op classes, so neither percentile jumps between runs.
ROUND = [(label, mode) for label, _, _ in FILES for mode in MODES] + [
    ("umt", "stream")]
#: ``--stream`` ops seal a window every 100 simulated ms (bounded memory).
WINDOW_NS = 100_000_000
#: Layers (or single metrics) this workload does not exercise; they
#: report 0.  The traces are recorded in set-up, so nothing simulates,
#: touches a store or a server, or renders a full report while measured.
IDLE = ("simkernel", "exec", "service", "core.report_ms")


def schedule(seed: int) -> Iterator[Tuple[str, str]]:
    rng = random.Random(f"analyze-cli:{seed}")
    while True:
        yield from rng.sample(ROUND, len(ROUND))


class Setup:
    """Recorded trace files plus the expected ``analyze`` body of each."""

    def __init__(self, run: Run) -> None:
        from repro.core.analysis import NoiseAnalysis
        from repro.core.report import render_analysis_summary
        from repro.exec import RunSpec

        self.root = common.fresh_dir("runs", f"{run.workload}-seed{run.seed}")
        self.paths: Dict[str, str] = {}
        self.metas: Dict[str, Any] = {}
        self.expected: Dict[str, str] = {}
        self.records: Dict[str, int] = {}
        for i, (label, workload, ns) in enumerate(FILES):
            spec = RunSpec.make(workload, TINY_NS if run.tiny else ns,
                                run.seed * 10 + i, NCPUS)
            trace, meta = spec.execute()
            base = os.path.join(self.root, label)
            trace.to_file(base + ".lttnz")
            meta.to_file(base + ".meta.json")
            self.paths[label] = base + ".lttnz"
            self.metas[label] = meta
            self.records[label] = sum(p.n_records for p in trace.packets)
            self.expected[label] = render_analysis_summary(
                NoiseAnalysis(trace, meta=meta))
        self.ops = schedule(run.seed)


def command(path: str, mode: str) -> List[str]:
    args = [sys.executable, "-m", "repro.cli", "analyze", path]
    if mode == "stream":
        args += ["--stream", "--window-ns", str(WINDOW_NS)]
    return args


def check_stdout(out: str, expected: str, mode: str) -> bool:
    if mode == "stream":
        header, _, out = out.partition("\n")
        if not header.startswith("analyzed "):
            return False
    return out == expected + "\n"


def main(run: Run) -> None:
    setup, setup_s, setup_all = common.measure_setup(
        lambda: Setup(run))
    run.details["setup_all_s"] = setup_all
    run.details["records"] = setup.records
    env = common.child_env(setup.root)
    err = os.path.join(setup.root, "children.stderr")
    # Compile the package's bytecode once, so the first op of a fresh
    # checkout does not pay for it.
    common.run_child([sys.executable, "-c", "import repro.cli"], env, err)
    if run.trace:
        _traced(run, setup, env, err, setup_s)
        return

    timed = cpu = 0.0
    peak = 0.0
    per_class: Dict[str, List[float]] = {}
    while run.budget_left(timed, run.attempted, round_len=len(ROUND)):
        label, mode = next(setup.ops)
        run.attempted += 1
        child = common.run_child(command(setup.paths[label], mode), env, err)
        timed += child.wall_s
        cpu += child.cpu_s
        peak = max(peak, child.rss_mb)
        run.latencies_s.append(child.wall_s)
        per_class.setdefault(f"{label}-{mode}", []).append(1e3 * child.wall_s)
        if child.exit_code != 0:
            run.fail(1, f"{label} {mode}: exit {child.exit_code}")
        elif not check_stdout(child.stdout, setup.expected[label], mode):
            run.fail(1, f"{label} {mode}: stdout differs from batch render")
    run.details["p50_ms_by_class"] = {
        k: common.median(v) for k, v in sorted(per_class.items())}
    common.end_to_end(run, timed, cpu, peak, setup_s)


def replay(setup: Setup, label: str, mode: str) -> Tuple[str, Any]:
    """The op's in-process calls, each under its layer's span; returns
    the rendered text and the analysis."""
    from repro import obs
    from repro.core.analysis import NoiseAnalysis
    from repro.core.report import render_analysis_summary
    from repro.stream import StreamingAnalysis
    from repro.tracing.ctf import Trace

    path, meta = setup.paths[label], setup.metas[label]
    if mode == "stream":
        with obs.span("stream.analysis"):
            analysis = StreamingAnalysis.analyze_file(
                path, meta=meta, window_ns=WINDOW_NS)
    else:
        with obs.span("tracing.decode"):
            trace = Trace.from_file(path)
        with obs.span("core.analysis"):
            analysis = NoiseAnalysis(trace, meta=meta)
    with obs.span("core.render"):
        text = render_analysis_summary(analysis)
    return text, analysis


def _trace_overhead(setup: Setup) -> float:
    """Traced over untraced wall of the same replayed ops, ABBA order."""
    from repro import obs

    walls: Dict[bool, float] = {False: 0.0, True: 0.0}
    for traced in (False, True, True, False) * 2:
        (obs.enable if traced else obs.disable)()
        for label, _, _ in FILES:
            for mode in MODES:
                t0 = time.perf_counter()
                replay(setup, label, mode)
                walls[traced] += time.perf_counter() - t0
    obs.disable()
    return walls[True] / walls[False]


def _traced(run: Run, setup: Setup, env: Dict[str, str], err: str,
            setup_s: float) -> None:
    from repro import obs
    from repro.tracing.ctf import Trace

    overhead = _trace_overhead(setup)
    obs.reset()
    obs.enable()
    timed = 0.0
    windows = stream_records = 0
    op = 0
    while run.budget_left(timed, run.attempted, round_len=len(ROUND)):
        label, mode = next(setup.ops)
        op += 1
        run.attempted += 1
        t0 = time.perf_counter()
        with obs.span("op", op=f"op{op}", file=label, mode=mode):
            with obs.span("cli.import"):
                probe = common.run_child(
                    [sys.executable, "-c", common.IMPORT_PROBE], env, err)
            text, analysis = replay(setup, label, mode)
        wall = time.perf_counter() - t0
        timed += wall
        run.latencies_s.append(wall)
        if mode == "stream":
            windows += analysis.windows_emitted
            stream_records += analysis.records_processed
        if probe.exit_code != 0 or text != setup.expected[label]:
            run.fail(1, f"{label} {mode}: replay differs from batch render")
    spans = list(obs.REGISTRY.spans)
    codec = common.CodecProbe()
    for label, _, _ in FILES:
        codec.add(Trace.from_file(setup.paths[label]))
    codec.report(run)
    snap = obs.snapshot()
    obs.disable()

    # Peak RSS of the real --stream child on each file.
    stream_rss = max(
        common.run_child(command(setup.paths[label], "stream"), env,
                         err).rss_mb
        for label, _, _ in FILES)

    nodes = common.span_forest(spans)
    ledgers = common.record_ledgers(run, nodes, ("op",))
    small = {k: v for k, v in ledgers.items()
             if v["labels"]["file"] in ("ftq", "lammps")}
    large = {k: v for k, v in ledgers.items() if k not in small}
    run.details["ledger_shares"] = common.layer_shares(ledgers)
    run.details["ledger_shares_small"] = common.layer_shares(small)
    run.details["ledger_shares_large"] = common.layer_shares(large)
    run.details["span_files"] = common.export_spans(run, snap)
    common.end_to_end(run, timed, 0.0, 0.0, setup_s)

    common.core_metrics(run, nodes, snap)
    _n, stream_ms = common.sum_spans(nodes, "stream.analysis")
    run.put("stream.analysis_ms", stream_ms, "ms")
    run.put("stream.records_per_s",
            stream_records / (stream_ms / 1e3) if stream_ms else 0.0, "1/s")
    run.put("stream.windows", windows, "count")
    run.put("stream.peak_rss_mb", stream_rss, "MB")
    run.put("harness.trace_overhead_ratio", overhead, "ratio")
    common.floors(run, env)
