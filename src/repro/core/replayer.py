"""The ET replay configuration and results.

The replay implementation itself lives in :mod:`repro.core.pipeline` as a
sequence of first-class stage objects (select → reconstruct → materialise
tensors → assign streams → init comms → execute → measure); the public
entry point is the :mod:`repro.api` facade.  This module keeps:

* :class:`ReplayConfig` — everything that controls how a trace becomes a
  benchmark run (also the configuration point for the Section 7 use cases:
  subtrace replay, operator-type filtering, scaled-down emulation),
* :class:`ReplayResult` / :class:`ReplayResultSummary` — the measurements.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.selection import CoverageReport
from repro.core.tensors import EmbeddingValueConfig
from repro.hardware.counters import SystemMetrics
from repro.hardware.gpu import TimelineStats
from repro.hardware.network import InterconnectSpec
from repro.torchsim.kernel import KernelLaunch
from repro.torchsim.profiler import ProfilerTrace

logger = logging.getLogger(__name__)


@dataclass
class ReplayConfig:
    """Everything that controls how a trace is turned into a benchmark run."""

    device: str = "A100"
    power_limit_w: Optional[float] = None
    cost_model_mode: str = "roofline"
    iterations: int = 1
    warmup_iterations: int = 0
    skip_unsupported: bool = True
    subtrace_label: Optional[str] = None
    categories: Optional[Sequence[str]] = None
    #: Default values for embedding-lookup index tensors.  The paper sets
    #: these "empirically, derived by the operators in our production
    #: environment"; a Zipf-distributed default plays that role here, and
    #: users can refine it (or disable it by passing ``None`` explicitly).
    embedding_config: Optional[EmbeddingValueConfig] = field(default_factory=EmbeddingValueConfig)
    use_streams: bool = True
    #: World size of the replay's distributed context.  Defaults to the
    #: world size recorded in the trace metadata (1 for single-GPU traces).
    world_size: Optional[int] = None
    rank: int = 0
    interconnect: Optional[InterconnectSpec] = None
    #: Remap recorded process groups onto a smaller replay world; leave at
    #: ``None`` to keep the recorded groups (the scale-down emulation keeps
    #: them so collectives are priced at the original scale).
    remap_world_size: Optional[int] = None
    comm_delay_scale: float = 1.0
    comm_extra_delay_us: float = 0.0
    #: Hierarchical-fabric preset pricing the collectives (a key of
    #: :data:`repro.hardware.network.TOPOLOGY_PRESETS`, e.g.
    #: ``"nvlink-island"`` or ``"rail-spine"``).  ``None``/``"flat"`` keep
    #: the flat two-level model.  Changes collective durations, so it is
    #: part of the canonical form and the digest.
    topology: Optional[str] = None
    profile: bool = True
    #: Execution *strategy*, not replay semantics: group repeated operator
    #: invocations by (op, shape signature, dtype, stream) and replay each
    #: group from a captured program priced through the batched cost-model
    #: entry point, instead of one Python dispatch per op.  Results and
    #: cache digests are byte-identical either way (asserted by
    #: ``tests/test_vectorized_equivalence.py``), which is why this field
    #: is excluded from :meth:`to_dict` and :meth:`digest` — the two modes
    #: must share cache entries.  ``False`` forces the scalar reference
    #: path.
    vectorized: bool = True

    # ------------------------------------------------------------------
    # Serialisation / identity
    #
    # The batch-orchestration layer (``repro.service``) keys its result
    # cache on the pair (trace digest, config digest) and ships configs
    # across process boundaries, so the config must round-trip through a
    # canonical dict form and hash stably across interpreter runs.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form of this config.

        Derived from the dataclass fields (``asdict`` recurses into the
        nested embedding/interconnect dataclasses), so a field added later
        is automatically part of the serialised form and the digest.

        ``vectorized`` is deliberately *not* part of the canonical form:
        it selects an execution strategy with byte-identical results, and
        including it would split the service layer's result cache into two
        keys for one measurement.  :meth:`from_dict` still accepts it.
        """
        data = asdict(self)
        data.pop("vectorized", None)
        if data.get("categories") is not None:
            data["categories"] = list(data["categories"])
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any], strict: bool = False) -> "ReplayConfig":
        """Rebuild a config from :meth:`to_dict` output.

        *Absent* keys keep their dataclass defaults (so a partial dict never
        silently disables, say, the embedding-value default).  Unknown keys
        — typically typos in sweep axis names or provenance dicts from a
        newer version — are reported: with ``strict=True`` they raise
        ``ValueError``; otherwise they are ignored but logged as a warning
        naming every dropped key.
        """
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = sorted(key for key in data if key not in known)
        if unknown:
            if strict:
                raise ValueError(
                    f"unknown ReplayConfig keys: {unknown}; known fields are {sorted(known)}"
                )
            logger.warning(
                "ReplayConfig.from_dict: ignoring unknown keys %s (pass strict=True to raise)",
                unknown,
            )
        kwargs = {key: value for key, value in data.items() if key in known}
        if isinstance(kwargs.get("embedding_config"), dict):
            kwargs["embedding_config"] = EmbeddingValueConfig(**kwargs["embedding_config"])
        if isinstance(kwargs.get("interconnect"), dict):
            kwargs["interconnect"] = InterconnectSpec(**kwargs["interconnect"])
        if kwargs.get("categories") is not None:
            kwargs["categories"] = tuple(kwargs["categories"])
        return cls(**kwargs)

    def digest(self) -> str:
        """Stable content hash of this config (hex SHA-256).

        Nested dataclasses are encoded explicitly by :meth:`to_dict`
        (``asdict`` recurses into them), and any field value that does not
        canonicalise to JSON raises ``TypeError`` — a stringified ``repr``
        fallback could let two semantically different configs collide on
        one digest, which would poison the service layer's result cache.
        """
        try:
            canonical = json.dumps(self.to_dict(), sort_keys=True)
        except (TypeError, ValueError) as error:
            raise TypeError(
                "ReplayConfig.digest(): config holds a non-JSON-serialisable value "
                f"({error}); fields must be JSON scalars, sequences, mappings or "
                "dataclasses thereof"
            ) from None
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __hash__(self) -> int:
        return hash(self.digest())


@dataclass
class ReplayResult:
    """Measurements of one replay run."""

    iteration_times_us: List[float]
    coverage: CoverageReport
    replayed_ops: int
    skipped_ops: int
    timeline_stats: TimelineStats
    system_metrics: SystemMetrics
    profiler_trace: Optional[ProfilerTrace] = None
    kernel_launches: List[KernelLaunch] = field(default_factory=list)
    #: Simulated device-memory report (``repro.memory``), populated only
    #: when a ``track-memory`` stage ran; ``None`` otherwise.  Not part of
    #: :meth:`summarize`, so cached result digests are unaffected.
    memory_report: Optional[Any] = None
    #: Wall-clock profile of the replay itself (``repro.profiling``),
    #: populated only when the session ran ``.with_profiling()``; ``None``
    #: otherwise.  Not part of :meth:`summarize` either — profiling a
    #: replay never changes what it measures.
    profile_report: Optional[Any] = None

    @property
    def mean_iteration_time_us(self) -> float:
        if not self.iteration_times_us:
            return 0.0
        return sum(self.iteration_times_us) / len(self.iteration_times_us)

    @property
    def mean_iteration_time_ms(self) -> float:
        return self.mean_iteration_time_us / 1e3

    def summarize(self) -> "ReplayResultSummary":
        """Compact, JSON/pickle-friendly view of this result.

        The full :class:`ReplayResult` keeps the profiler trace and every
        kernel launch; the summary carries only the scalar measurements the
        batch layer caches and aggregates.
        """
        return ReplayResultSummary(
            iteration_times_us=list(self.iteration_times_us),
            replayed_ops=self.replayed_ops,
            skipped_ops=self.skipped_ops,
            count_coverage=self.coverage.count_coverage,
            time_coverage=self.coverage.time_coverage,
            execution_time_ms=self.system_metrics.execution_time_ms,
            sm_utilization_pct=self.system_metrics.sm_utilization_pct,
            hbm_bandwidth_gbps=self.system_metrics.hbm_bandwidth_gbps,
            gpu_power_w=self.system_metrics.gpu_power_w,
            kernel_count=self.timeline_stats.kernel_count,
        )


@dataclass
class ReplayResultSummary:
    """Scalar measurements of one replay, as cached/aggregated by the
    batch-orchestration layer (:mod:`repro.service`)."""

    iteration_times_us: List[float] = field(default_factory=list)
    replayed_ops: int = 0
    skipped_ops: int = 0
    count_coverage: float = 0.0
    time_coverage: float = 0.0
    execution_time_ms: float = 0.0
    sm_utilization_pct: float = 0.0
    hbm_bandwidth_gbps: float = 0.0
    gpu_power_w: float = 0.0
    kernel_count: int = 0

    @property
    def mean_iteration_time_us(self) -> float:
        if not self.iteration_times_us:
            return 0.0
        return sum(self.iteration_times_us) / len(self.iteration_times_us)

    @property
    def mean_iteration_time_ms(self) -> float:
        return self.mean_iteration_time_us / 1e3

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        # Derived, but included for human-readable cache entries / CLI JSON;
        # from_dict ignores it (not a field), so it can never diverge.
        data["mean_iteration_time_us"] = self.mean_iteration_time_us
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReplayResultSummary":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        return cls(**{key: value for key, value in data.items() if key in known})
