"""Run specifications: pure-data descriptions of one simulated run.

A :class:`RunSpec` names everything that determines a traced run's output —
workload factory, factory kwargs, duration, seed, cpu count — as plain
hashable data.  Because the simulation is deterministic, a spec *is* its
result's identity: two equal specs produce bit-identical traces, which is
what makes process fan-out (pickle the spec, not the workload) and on-disk
result caching (hash the spec, not the trace) sound.

Workload factories are resolved by name: the built-ins (``"FTQ"`` and the
five Sequoia benchmarks) are always available, ``register_workload`` adds
project-local ones, and ``"package.module:attr"`` dotted paths reach any
importable zero-state factory.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, TYPE_CHECKING

import repro
from repro import obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.stream.analysis import StreamingAnalysis

#: Explicitly registered factories (name -> callable(**kwargs) -> Workload).
_REGISTRY: Dict[str, Callable[..., "object"]] = {}


def register_workload(name: str, factory: Callable[..., "object"]) -> None:
    """Register a workload factory under ``name`` (case-insensitive)."""
    _REGISTRY[name.upper()] = factory


def resolve_factory(name: str) -> Callable[..., "object"]:
    """Resolve a workload name to its factory callable.

    Resolution order: explicit registry, built-ins (FTQ / Sequoia),
    ``module:attr`` dotted path.
    """
    from repro.workloads import SEQUOIA_PROFILES, FTQWorkload, SequoiaWorkload

    key = name.upper()
    if key in _REGISTRY:
        return _REGISTRY[key]
    if key == "FTQ":
        return FTQWorkload
    if key in SEQUOIA_PROFILES:
        def make_sequoia(**kwargs: Any) -> "object":
            return SequoiaWorkload(key, **kwargs)

        return make_sequoia
    if ":" in name:
        mod_name, _, attr = name.partition(":")
        try:
            mod = importlib.import_module(mod_name)
            obj = mod
            for part in attr.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError) as exc:
            raise ValueError(f"cannot resolve workload factory {name!r}: {exc}")
        if not callable(obj):
            raise ValueError(f"workload factory {name!r} is not callable")
        return obj
    raise ValueError(
        f"unknown workload {name!r}; use FTQ, a Sequoia benchmark name, "
        f"a registered name, or a 'module:attr' dotted path"
    )


def dotted_path_of(factory: "object") -> Optional[str]:
    """The ``module:qualname`` path of a module-level factory, or None.

    Lambdas, closures and bound instances have no importable path; for those
    the caller must fall back to in-process execution.
    """
    mod = getattr(factory, "__module__", None)
    qualname = getattr(factory, "__qualname__", None)
    if not mod or not qualname or "<locals>" in qualname:
        return None
    path = f"{mod}:{qualname}"
    try:
        resolved = resolve_factory(path)
    except ValueError:
        return None
    return path if resolved is factory else None


def _canonical(value: Any) -> Any:
    """Reject spec kwargs that are not hashable scalar data.

    Scalars keep the spec hashable (dict keys, set members) and make the
    JSON content hash trivially canonical.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(
        f"workload kwarg value {value!r} is not a scalar; "
        f"RunSpec kwargs must be str/int/float/bool/None"
    )


@dataclass(frozen=True, order=True)
class RunSpec:
    """One deterministic traced run, as hashable data."""

    workload: str
    duration_ns: int
    seed: int
    ncpus: int = 8
    #: Factory kwargs as a sorted tuple of (name, value) pairs so that equal
    #: specs hash equal regardless of keyword order.
    workload_kwargs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls,
        workload: str,
        duration_ns: int,
        seed: int,
        ncpus: int = 8,
        **kwargs: Any,
    ) -> "RunSpec":
        items = tuple(sorted((k, _canonical(v)) for k, v in kwargs.items()))
        return cls(str(workload), int(duration_ns), int(seed), int(ncpus), items)

    def kwargs(self) -> Dict[str, Any]:
        return dict(self.workload_kwargs)

    # ------------------------------------------------------------------
    # Serialization + identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "duration_ns": self.duration_ns,
            "seed": self.seed,
            "ncpus": self.ncpus,
            "workload_kwargs": self.kwargs(),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "RunSpec":
        return RunSpec.make(
            data["workload"],
            data["duration_ns"],
            data["seed"],
            data.get("ncpus", 8),
            **data.get("workload_kwargs", {}),
        )

    def cache_token(self, version: Optional[str] = None) -> str:
        """Content hash of the spec, salted with the package version.

        A version bump invalidates every cached result, because the same
        spec may simulate differently under different code.
        """
        payload = dict(self.to_dict(), version=version or repro.__version__)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build_workload(self) -> "object":
        from repro.workloads import SEQUOIA_PROFILES

        kwargs = self.kwargs()
        if self.workload.upper() in SEQUOIA_PROFILES:
            # The phase plan scales to the intended run length by default.
            kwargs.setdefault("nominal_ns", self.duration_ns)
        return resolve_factory(self.workload)(**kwargs)

    def execute(self) -> Tuple["object", "object"]:
        """Simulate this run; returns ``(trace, meta)``."""
        from repro.core.model import TraceMeta

        workload = self.build_workload()
        node, trace = workload.run_traced(
            self.duration_ns, seed=self.seed, ncpus=self.ncpus
        )
        return trace, TraceMeta.from_node(node)

    def execute_streaming(self, **stream_kwargs: Any) -> "StreamingAnalysis":
        """Simulate this run analyze-while-simulating: packets are analyzed
        as the collection daemon drains them and no full trace is
        assembled, so peak memory stays bounded by the analysis window
        rather than the trace length.  Returns the finished
        :class:`~repro.stream.analysis.StreamingAnalysis`;
        ``stream_kwargs`` (``window_ns``, ``quanta``, ``on_chunk``, ...)
        are forwarded to it.
        """
        workload: Any = self.build_workload()
        with obs.span("run", workload=self.workload, seed=self.seed,
                      stream=True):
            streamed: Tuple[Any, "StreamingAnalysis"] = (
                workload.run_streaming(
                    self.duration_ns,
                    seed=self.seed,
                    ncpus=self.ncpus,
                    **stream_kwargs,
                )
            )
        return streamed[1]

    def describe(self) -> str:
        return (
            f"{self.workload} seed={self.seed} "
            f"duration={self.duration_ns}ns ncpus={self.ncpus}"
        )
