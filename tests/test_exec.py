"""Tests for the parallel run-execution layer (repro.exec).

Covers: RunSpec identity/serialization, the on-disk result store
(hit/miss, version invalidation, corruption recovery), the run driver's
(``SweepPlan.execute``) ordering/dedup/caching behaviour, and the
determinism contract — every execution path (serial or pool, planned or
not, named workload or live factory) produces bit-identical analyses.
"""

import os
import warnings

import pytest

from repro.core.sweep import SeedSweep
from repro.exec import (
    LocalPoolBackend,
    RunSpec,
    SerialBackend,
    ShardedStore,
    SweepPlan,
    dotted_path_of,
    register_workload,
    resolve_factory,
)
from repro.util.units import MSEC
from repro.workloads import FTQWorkload, SequoiaWorkload


SHORT = 80 * MSEC


def spec(seed=0, workload="FTQ", duration=SHORT, ncpus=2, **kw):
    return RunSpec.make(workload, duration, seed, ncpus, **kw)


def drive(specs, backend=None, store=None, progress=None):
    """Run specs through the driver; returns (plan, input-order results)."""
    plan = SweepPlan(specs)
    results = plan.execute(backend or SerialBackend(), store, progress)
    return plan, plan.results_for(specs, results)


class TestRunSpec:
    def test_hashable_and_equal(self):
        assert spec(1) == spec(1)
        assert spec(1) != spec(2)
        assert len({spec(0), spec(0), spec(1)}) == 2

    def test_kwargs_order_is_canonical(self):
        a = RunSpec.make("FTQ", SHORT, 0, 2, cpu=0, eventd_rate=2.0)
        b = RunSpec.make("FTQ", SHORT, 0, 2, eventd_rate=2.0, cpu=0)
        assert a == b
        assert a.cache_token() == b.cache_token()

    def test_dict_roundtrip(self):
        s = RunSpec.make("AMG", SHORT, 3, 4, nominal_ns=SHORT)
        assert RunSpec.from_dict(s.to_dict()) == s

    def test_cache_token_depends_on_fields_and_version(self):
        base = spec(0)
        assert base.cache_token() != spec(1).cache_token()
        assert base.cache_token() != base.cache_token(version="other")
        assert base.cache_token() == spec(0).cache_token()

    def test_non_scalar_kwargs_rejected(self):
        with pytest.raises(TypeError):
            RunSpec.make("FTQ", SHORT, 0, 2, bad=[1, 2])

    def test_build_workload_builtins(self):
        assert isinstance(spec().build_workload(), FTQWorkload)
        amg = spec(workload="AMG").build_workload()
        assert isinstance(amg, SequoiaWorkload)
        # Sequoia phase plans default to the simulated duration.
        assert amg.nominal_ns == SHORT

    def test_unknown_workload_raises(self):
        with pytest.raises(ValueError):
            resolve_factory("NOSUCH")

    def test_dotted_path_resolution(self):
        path = dotted_path_of(FTQWorkload)
        assert path == "repro.workloads.ftq:FTQWorkload"
        assert resolve_factory(path) is FTQWorkload
        assert dotted_path_of(lambda: None) is None

    def test_register_workload(self):
        register_workload("my-ftq", FTQWorkload)
        try:
            assert resolve_factory("MY-FTQ") is FTQWorkload
        finally:
            from repro.exec import spec as spec_mod

            spec_mod._REGISTRY.pop("MY-FTQ", None)


class TestResultCache:
    """The ShardedStore's hit/miss/invalidation/corruption contract."""

    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ShardedStore(str(tmp_path))
        s = spec(0)
        assert cache.get(s) is None
        trace, meta = s.execute()
        cache.put(s, trace, meta)
        assert cache.contains(s)
        hit = cache.get(s)
        assert hit is not None
        assert hit[0].to_bytes() == trace.to_bytes()
        assert hit[1].to_json() == meta.to_json()
        assert cache.hits == 1 and cache.misses == 1

    def test_version_change_invalidates(self, tmp_path):
        s = spec(0)
        old = ShardedStore(str(tmp_path), version="1.0.0")
        trace, meta = s.execute()
        old.put(s, trace, meta)
        assert old.get(s) is not None
        new = ShardedStore(str(tmp_path), version="2.0.0")
        assert new.get(s) is None  # different token -> re-simulate

    def test_corrupt_entry_is_a_miss_and_evicted(self, tmp_path):
        cache = ShardedStore(str(tmp_path))
        s = spec(0)
        trace, meta = s.execute()
        cache.put(s, trace, meta)
        trace_path = cache._paths(s)[0]
        with open(trace_path, "wb") as fp:
            fp.write(b"garbage")
        assert cache.get(s) is None
        assert not cache.contains(s)

    def test_clear(self, tmp_path):
        cache = ShardedStore(str(tmp_path))
        for seed in (0, 1):
            s = spec(seed)
            cache.put(s, *s.execute())
        assert cache.clear() == 2
        assert cache.get(spec(0)) is None


class TestParallelRunner:
    """The run driver (SweepPlan.execute) over a dispatch backend."""

    def test_results_in_input_order(self):
        specs = [spec(s) for s in (3, 1, 2)]
        results = SweepPlan(specs, shards=2).execute(SerialBackend())
        assert [r.spec.seed for r in results] == [3, 1, 2]

    def test_duplicate_specs_simulated_once(self, tmp_path):
        plan, results = drive([spec(7), spec(7)],
                              store=ShardedStore(str(tmp_path)))
        assert plan.last_stats["simulated"] == 1
        assert plan.last_stats["duplicates"] == 1
        assert results[0].trace.to_bytes() == results[1].trace.to_bytes()

    def test_cache_warm_second_run_skips_simulation(self, tmp_path):
        cache = ShardedStore(str(tmp_path))
        specs = [spec(s) for s in range(3)]
        _, first = drive(specs, store=cache)
        assert all(not r.cached for r in first)
        second, results = drive(specs, store=cache)
        assert all(r.cached for r in results)
        assert second.last_stats["simulated"] == 0
        assert second.last_stats["cached"] == 3

    def test_progress_callback_counts_every_run(self):
        seen = []
        drive(
            [spec(s) for s in range(3)],
            progress=lambda done, total, sp, cached, el:
                seen.append((done, total, sp.seed, cached)),
        )
        assert [s[0] for s in seen] == [1, 2, 3]
        assert sorted(s[2] for s in seen) == [0, 1, 2]
        assert all(total == 3 and not cached for _, total, _, cached in seen)

    def test_parallel_results_bit_identical_to_serial(self):
        specs = [spec(s) for s in range(4)]
        _, serial = drive(specs)
        pool, parallel = drive(specs, backend=LocalPoolBackend(2))
        assert pool.last_stats["used_processes"]
        assert pool.last_stats["workers"] == 2
        for a, b in zip(serial, parallel):
            assert a.trace.to_bytes() == b.trace.to_bytes()
            assert a.meta.to_json() == b.meta.to_json()

    def test_analysis_helper(self):
        _, (result,) = drive([spec(0)])
        analysis = result.analysis()
        assert analysis.span_ns > 0


def _assert_same_analyses(sweep, reference):
    assert list(sweep.noise_fraction().values) == \
        list(reference.noise_fraction().values)
    for a, b in zip(sweep.analyses, reference.analyses):
        assert a.span_ns == b.span_ns
        assert len(a.records) == len(b.records)
        assert a.total_noise_ns() == b.total_noise_ns()
        assert a.breakdown_ns() == b.breakdown_ns()
        assert a.per_cpu_noise_ns().tolist() == b.per_cpu_noise_ns().tolist()
        assert a.stats_by_event() == b.stats_by_event()


class TestSeedSweepIntegration:
    SEEDS = list(range(8))

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """The plain serial sweep every other path must reproduce."""
        store = ShardedStore(str(tmp_path_factory.mktemp("reference")))
        return SeedSweep.run("FTQ", SHORT, self.SEEDS, ncpus=2,
                             parallel=False, cache=store)

    @pytest.mark.parametrize("parallel", [False, True],
                             ids=["serial", "pool"])
    @pytest.mark.parametrize("plan_mode", ["no-plan", "memory", "saved"])
    def test_parallel_sweep_identical_to_serial(self, reference, plan_mode,
                                                parallel, tmp_path):
        specs = [spec(s) for s in self.SEEDS]
        plan = None
        if plan_mode == "memory":
            plan = SweepPlan(specs, shards=3)
        elif plan_mode == "saved":
            plan = SweepPlan(specs, shards=3, plan_dir=str(tmp_path / "p"))
            plan.save()
        sweep = SeedSweep.run("FTQ", SHORT, self.SEEDS, ncpus=2,
                              parallel=parallel, plan=plan,
                              cache=ShardedStore(str(tmp_path / "store")))
        _assert_same_analyses(sweep, reference)
        # One --summary-json schema, whichever path ran.
        assert set(sweep.exec_stats) == set(reference.exec_stats)
        assert sweep.exec_stats["simulated"] == len(self.SEEDS)

    def test_name_path_matches_legacy_factory_path(self):
        legacy = SeedSweep.run(FTQWorkload, SHORT, [0, 1], ncpus=2)
        named = SeedSweep.run("FTQ", SHORT, [0, 1], ncpus=2)
        assert list(legacy.noise_fraction().values) == \
            list(named.noise_fraction().values)

    def test_unnamed_factory_matches_named(self, reference):
        sweep = SeedSweep.run(lambda: FTQWorkload(), SHORT, self.SEEDS,
                              ncpus=2)
        _assert_same_analyses(sweep, reference)
        assert set(sweep.exec_stats) == \
            set(reference.exec_stats) - {"cache_hits", "cache_misses"}
        assert sweep.exec_summary.startswith(f"{len(self.SEEDS)} runs")

    def test_unpicklable_factory_falls_back_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep = SeedSweep.run(lambda: FTQWorkload(), SHORT, [0],
                                  ncpus=2, parallel=True)
        assert len(sweep.analyses) == 1
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)

    def test_sweep_uses_cache(self, tmp_path):
        cache = ShardedStore(str(tmp_path))
        SeedSweep.run("FTQ", SHORT, [0, 1], ncpus=2, cache=cache)
        assert cache.misses == 2
        SeedSweep.run("FTQ", SHORT, [0, 1], ncpus=2, cache=cache)
        assert cache.hits == 2


@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup needs >= 4 cores")
def test_parallel_speedup_on_multicore():
    """>= 2x wall-clock speedup fanning 8 runs over >= 4 cores."""
    import time

    specs = [RunSpec.make("AMG", 1000 * MSEC, s, 4) for s in range(8)]
    t0 = time.perf_counter()
    drive(specs)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    plan, _ = drive(specs, backend=LocalPoolBackend(4))
    parallel_s = time.perf_counter() - t0
    assert plan.last_stats["used_processes"]
    assert serial_s / parallel_s >= 2.0
