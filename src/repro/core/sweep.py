"""Seed sweeps: run-to-run variation of noise statistics.

One seeded run is one sample of a stochastic system.  Before reading
anything into a 10 % delta between two configurations, a developer needs to
know the natural spread of the metric — this module runs a workload across
seeds and summarizes any metric's distribution (mean, std, a normal-theory
confidence interval).  EXPERIMENTS.md's tolerances were picked with this.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.core.analysis import NoiseAnalysis
from repro.core.model import NoiseCategory


@dataclass(frozen=True)
class MetricSummary:
    name: str
    values: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        return float(self.values.std(ddof=1)) if len(self.values) > 1 else 0.0

    @property
    def cv(self) -> float:
        """Coefficient of variation (std/|mean|); 0 when mean is 0.

        The magnitude of the mean normalizes the spread — a negative-mean
        metric must not report a negative dispersion.
        """
        return self.std / abs(self.mean) if self.mean else 0.0

    def confidence_interval(self, z: float = 1.96) -> "tuple[float, float]":
        """Normal-approximation CI of the mean (default ~95 %).

        With a single sample the spread is unknowable, so the interval is
        infinitely wide — a one-run sweep must not masquerade as converged.
        """
        if len(self.values) < 2:
            return (-math.inf, math.inf)
        half = z * self.std / math.sqrt(len(self.values))
        return (self.mean - half, self.mean + half)

    def describe(self) -> str:
        low, high = self.confidence_interval()
        return (
            f"{self.name}: {self.mean:.4g} +- {self.std:.3g} "
            f"(cv {100 * self.cv:.1f} %, 95% CI [{low:.4g}, {high:.4g}], "
            f"n={len(self.values)})"
        )


class SeedSweep:
    """Analyses of the same workload under different seeds."""

    #: One-line execution report (runs, cache hits, wall time) set by
    #: :meth:`run` from :meth:`repro.exec.SweepPlan.summary`.
    exec_summary: Optional[str] = None
    #: Machine-readable version of :attr:`exec_summary` (``--summary-json``):
    #: the driver's :attr:`repro.exec.SweepPlan.last_stats`.
    exec_stats: Optional[dict] = None

    def __init__(self, analyses: List[NoiseAnalysis]) -> None:
        if not analyses:
            raise ValueError("sweep needs at least one run")
        self.analyses = analyses

    @staticmethod
    def run(
        workload_factory: Union[str, Callable[[], "object"]],
        duration_ns: int,
        seeds: Sequence[int],
        ncpus: int = 8,
        *,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        cache: Optional["object"] = None,
        progress: Optional[Callable] = None,
        backend: Optional["object"] = None,
        plan: Optional["object"] = None,
    ) -> "SeedSweep":
        """Run the workload once per seed and collect the analyses.

        ``workload_factory`` is a zero-arg callable (the historical API) or
        a workload name resolvable by :mod:`repro.exec` (``"FTQ"``, a
        Sequoia benchmark, ``"module:attr"``).  With ``parallel=True`` the
        runs fan out across a process pool; results are bit-identical to
        the serial path because each run is deterministic in its spec.
        ``cache`` (a :class:`repro.exec.ShardedStore`) lets repeat sweeps
        skip simulation entirely.

        Every sweep executes through :meth:`repro.exec.SweepPlan.execute`:
        ``plan`` (a saved :class:`repro.exec.SweepPlan`) journals the
        campaign so it can be interrupted and resumed — see
        ``docs/sweep-orchestration.md`` — and without one an in-memory
        plan is built.  ``backend`` (a :class:`repro.exec.DispatchBackend`)
        overrides how specs execute.  Every path produces bit-identical
        analyses.

        Factories that are not importable by name (lambdas, closures,
        bound instances) cannot cross a process boundary, be cached or be
        journaled; those run in-process (with a warning when
        ``parallel``) and ignore ``cache``.
        """
        from repro.exec import (
            FactoryBackend,
            LocalPoolBackend,
            RunSpec,
            SerialBackend,
            SweepPlan,
            dotted_path_of,
        )

        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if isinstance(workload_factory, str):
            name = workload_factory
        else:
            name = dotted_path_of(workload_factory)
            if name is None:
                if plan is not None:
                    raise ValueError(
                        "a planned sweep needs a named workload (factories "
                        "without an importable path cannot be journaled)"
                    )
                if parallel:
                    warnings.warn(
                        "workload factory has no importable path; running "
                        "the sweep serially in-process (pass a workload "
                        "name or a module-level factory to parallelize)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                name = getattr(workload_factory, "__qualname__", "factory")
                backend = FactoryBackend(workload_factory)
                cache = None
        specs = [
            RunSpec.make(name, duration_ns, int(seed), ncpus)
            for seed in seeds
        ]
        if plan is None:
            plan = SweepPlan(specs)
        elif not plan.matches(specs):
            raise ValueError(
                "plan does not match this sweep's specs; "
                "re-plan or fix the arguments"
            )
        if backend is None:
            workers = min(max_workers or os.cpu_count() or 1,
                          len(plan.specs))
            backend = (LocalPoolBackend(workers) if parallel and workers > 1
                       else SerialBackend())
        if progress is None and obs.enabled():
            # Observed long sweeps heartbeat by default (rate-limited).
            hb = obs.Heartbeat("runner", total=len(plan.specs))
            progress = lambda d, t, spec, cached, elapsed: hb.tick(d)
        with obs.span("sweep", workload=name, runs=len(specs)):
            results = plan.results_for(
                specs, plan.execute(backend, cache, progress)
            )
            sweep = SeedSweep([r.analysis() for r in results])
        sweep.exec_summary = plan.summary()
        sweep.exec_stats = dict(plan.last_stats)
        return sweep

    # ------------------------------------------------------------------
    def metric(
        self, name: str, fn: Callable[[NoiseAnalysis], float]
    ) -> MetricSummary:
        """Evaluate any scalar metric across the sweep."""
        values = np.array([fn(a) for a in self.analyses], dtype=np.float64)
        return MetricSummary(name, values)

    def stat_metric(
        self, event: str, field: str = "freq"
    ) -> MetricSummary:
        """Spread of one table cell, e.g. ``('page_fault', 'avg')``."""
        if field not in ("freq", "avg", "max", "min", "total", "count"):
            raise ValueError(f"unknown stats field: {field!r}")
        return self.metric(
            f"{event}.{field}",
            lambda a: float(getattr(a.stats(event), field)),
        )

    def breakdown_metric(self, category: NoiseCategory) -> MetricSummary:
        return self.metric(
            f"breakdown.{category.value}",
            lambda a: a.breakdown_fractions().get(category, 0.0),
        )

    def noise_fraction(self) -> MetricSummary:
        return self.metric("noise_fraction", lambda a: a.noise_fraction())

    def summary_table(self, events: Sequence[str]) -> str:
        lines = [self.noise_fraction().describe()]
        for event in events:
            lines.append(self.stat_metric(event, "freq").describe())
            lines.append(self.stat_metric(event, "avg").describe())
        return "\n".join(lines)
