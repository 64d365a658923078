"""Self-test of the benchmark: every workload at a tiny size, twice.

Run from the checkout root (about a minute)::

    python -m pytest perfbench/tests -q

Each workload runs once untraced and twice traced with ``--tiny --ops``,
so the op set is fixed and the counts the program produces must repeat
exactly.  The span ledger check is also tried on crafted span sets that
must fail it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import common  # noqa: E402

SEED = 3
OPS = {"sweep-cold": 6, "analyze-cli": 8, "serve-mixed": 40}
EXACT = ("simkernel.records", "tracing.bytes", "exec.store_bytes",
         "core.activities", "stream.windows")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
    BENCHMARK = json.load(fp)


def bench(workload: str, trace: int) -> dict:
    """One tiny run; returns its printed result and its details file."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--trace", str(trace), "--ops", str(OPS[workload]), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    details_path = os.path.join(
        ROOT, ".perfbench", "results",
        f"{workload}-seed{SEED}-trace{trace}.json")
    with open(details_path, encoding="utf-8") as fp:
        details = json.load(fp)
    return {"result": json.loads(lines[-1]), "text": lines[:-1],
            "details": details["details"]}


@pytest.fixture(scope="module", params=sorted(OPS))
def runs(request):
    workload = request.param
    return workload, bench(workload, 0), [bench(workload, 1)
                                          for _ in range(2)]


def test_every_metric_printed_with_unit(runs):
    _workload, plain, traced = runs
    for section, out in (("end_to_end", plain), ("per_layer", traced[0])):
        want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {name: m["unit"] for name, m in out["result"]["metrics"].items()}
        assert got == want
        for name, unit in want.items():
            assert any(line.split()[:1] == [name] and line.endswith(unit)
                       for line in out["text"]), name


def test_exact_counts_repeat(runs):
    _workload, _plain, (first, second) = runs
    for name in EXACT:
        assert (first["result"]["metrics"][name]["value"]
                == second["result"]["metrics"][name]["value"]), name


def test_no_failures(runs):
    workload, plain, traced = runs
    for out in [plain] + traced:
        result = out["result"]
        assert result["correct"]
        assert result["failed"] == 0
        assert result["attempted"] >= OPS[workload]
    assert traced[0]["result"]["metrics"]["fail_ratio"]["value"] == 0
    assert plain["result"]["metrics"]["success_ratio"]["value"] == 1


def test_exercised_layers_measured(runs):
    """Only the layers a workload declares idle may read 0."""
    workload, _plain, traced = runs
    idle = traced[0]["details"]["idle"]
    metrics = traced[0]["result"]["metrics"]
    may_be_zero = {"fail_ratio", "service.http_errors"}
    if workload == "sweep-cold":
        assert metrics["exec.store_hit_ratio"]["value"] == 0
        may_be_zero.add("exec.store_hit_ratio")
    for name, metric in metrics.items():
        if common.is_idle(name, idle):
            assert metric["value"] == 0, name
        elif name not in may_be_zero:
            assert metric["value"] != 0, name


def test_ledgers_nest_cleanly(runs):
    _workload, _plain, traced = runs
    for out in traced:
        assert out["details"]["ledgers"]
        assert out["details"]["ledger_problems"] == []


def record(name, start, end, depth, tid=1):
    return SimpleNamespace(name=name, start_ns=start, dur_ns=end - start,
                           depth=depth, pid=1, tid=tid, labels={})


def test_ledger_check_accepts_clean_nesting():
    nodes = common.span_forest([
        record("op", 0, 100, 0), record("run", 10, 40, 1),
        record("analysis", 50, 90, 1), record("classify", 55, 60, 2),
        record("op", 20, 30, 0, tid=2)])
    assert common.ledger_problems(nodes, ("op",)) == []
    ledgers = common.op_ledgers(nodes, ("op",))
    assert sorted(ledger["self_ns"]["simkernel"] for ledger in ledgers.values()
                  if "simkernel" in ledger["self_ns"]) == [30]


def test_ledger_check_finds_straddling_span():
    # "b" starts inside "a" and ends after it: it nests under neither, so
    # its time would silently drop out of the op's ledger.
    nodes = common.span_forest([
        record("op", 0, 100, 0), record("a", 10, 50, 1),
        record("b", 40, 60, 1)])
    problems = common.ledger_problems(nodes, ("op",))
    assert any("b starts inside the op but is not in its tree" in p
               for p in problems)


def test_ledger_check_finds_wrong_depth():
    nodes = common.span_forest([record("op", 0, 100, 0),
                                record("a", 10, 50, 2)])
    assert common.ledger_problems(nodes, ("op",)) == [
        "op op: a at depth 2, nested at 1"]


def test_ledger_check_finds_overlapping_children():
    op = common.SpanNode(record("op", 0, 100, 0))
    op.children = [common.SpanNode(record(name, start, end, 1))
                   for name, start, end in
                   (("a", 10, 50), ("b", 40, 60), ("c", 20, 90))]
    problems = common.ledger_problems(
        [op] + op.children, ("op",))
    assert "op op: a and c overlap" in problems
    assert "op op: c and b overlap" in problems
    assert "op op: op self time -30 ns" in problems
