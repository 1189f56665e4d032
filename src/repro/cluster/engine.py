"""The multi-rank distributed replay engine.

:class:`ClusterReplayer` takes a *fleet* of per-rank execution traces (as
produced by :class:`repro.workloads.ddp.DistributedRunner` — one trace per
rank, captured from the same iteration) and co-replays them under the
virtual-time collective scheduler:

1. **Pre-flight match** (:func:`match_collectives`): every collective is
   matched across ranks by (process-group ranks, sequence number, operator
   name) *before* anything replays, so a malformed fleet fails with a
   precise report instead of a mid-replay stall.
2. **Event loop**: one :class:`~repro.cluster.replica.RankReplica` per
   trace, each running the standard stage pipeline (with the
   rendezvous-aware ``sync-collectives`` stage) as an op *cursor* advanced
   by the single-threaded
   :class:`~repro.cluster.scheduler.VirtualTimeScheduler` — a cursor parks
   when its next collective cannot resolve yet and is woken when the
   :class:`~repro.cluster.rendezvous.EventRendezvous` resolves the slot,
   so fleets of thousands of ranks need no thread per rank.
3. **Aggregate**: per-rank results and the rendezvous's event log fold into
   a :class:`ClusterReport` — per-rank timelines, exposed-communication
   time, rendezvous stall, and the slowest-rank critical path.

A fleet of **one** trace degrades exactly to the single-rank pipeline: the
rendezvous has no peers to wait for, so every collective starts at its
local arrival time and is priced at the recorded group size — the same
schedule :func:`repro.core.pipeline.run_replay` produces (equivalence is
asserted in ``tests/test_cluster_replay.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.comms_replay import CommReplayManager
from repro.core.registry import ReplaySupport
from repro.core.replayer import ReplayConfig, ReplayResult, ReplayResultSummary
from repro.cluster.rendezvous import CollectiveKey, EventRendezvous, normalize_op
from repro.cluster.replica import RankReplica
from repro.et.trace import ExecutionTrace
from repro.hardware.network import CollectiveCostModel, InterconnectSpec
from repro.torchsim.profiler import ProfilerTrace

#: What :meth:`ClusterReplayer.replay` accepts per rank: a trace, a path to
#: a serialised trace, or a ``RankCapture``/``CaptureResult``-like object
#: carrying ``execution_trace`` (and optionally ``profiler_trace``).
TraceLike = Union[ExecutionTrace, str, Path, object]


class ClusterMatchError(ValueError):
    """The per-rank traces do not form a coherent fleet (duplicate ranks,
    or collectives that cannot be matched across ranks)."""


class ClusterReplayError(RuntimeError):
    """One or more rank replicas failed during the co-replay."""

    def __init__(self, errors: Dict[int, str]) -> None:
        self.errors = dict(errors)
        lines = ", ".join(f"rank {rank}: {msg}" for rank, msg in sorted(errors.items()))
        super().__init__(f"{len(errors)} rank replica(s) failed — {lines}")


# ----------------------------------------------------------------------
# Pre-flight collective matching
# ----------------------------------------------------------------------
@dataclass
class CollectiveMatchReport:
    """Result of matching every recorded collective across the fleet."""

    #: (key, seq) slots in which every replayed participant takes part.
    matched: int = 0
    #: Collective invocations that can never rendezvous (some replayed
    #: participant is missing the call); each entry is human-readable.
    unmatched: List[str] = field(default_factory=list)
    #: rank -> number of collective invocations recorded in its trace.
    per_rank_counts: Dict[int, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.unmatched


def _comm_keys(trace: ExecutionTrace) -> List[CollectiveKey]:
    """The collective call sequence of one trace, keyed for matching."""
    world_size = int(trace.metadata.get("world_size", 1))
    keys: List[CollectiveKey] = []
    for record in CommReplayManager.extract(trace):
        ranks = record.recorded_group.get("ranks")
        if not isinstance(ranks, (list, tuple)) or not ranks:
            # No recorded group means the default group over the full world.
            ranks = range(world_size)
        keys.append((tuple(sorted(int(r) for r in ranks)), normalize_op(record.name)))
    return keys


def match_collectives(traces: Sequence[ExecutionTrace]) -> CollectiveMatchReport:
    """Match collectives across the fleet before replaying anything.

    For every collective key (group ranks + op name) the replayed members
    of that group must record the *same number* of invocations; any
    shortfall is reported as unmatched, naming the key and the offending
    ranks.  Groups whose other members are not part of the fleet (a
    partial, symmetric-rank replay) only need agreement among the replayed
    members.
    """
    replayed = {int(trace.metadata.get("rank", 0)) for trace in traces}
    counts: Dict[int, Dict[CollectiveKey, int]] = {}
    report = CollectiveMatchReport()
    for trace in traces:
        rank = int(trace.metadata.get("rank", 0))
        per_key = counts.setdefault(rank, {})
        keys = _comm_keys(trace)
        report.per_rank_counts[rank] = len(keys)
        for key in keys:
            per_key[key] = per_key.get(key, 0) + 1

    all_keys = {key for per_key in counts.values() for key in per_key}
    for key in sorted(all_keys):
        participants = sorted(set(key[0]) & replayed)
        if len(participants) <= 1:
            report.matched += counts.get(participants[0], {}).get(key, 0) if participants else 0
            continue
        per_rank = {rank: counts.get(rank, {}).get(key, 0) for rank in participants}
        want = max(per_rank.values())
        have = min(per_rank.values())
        report.matched += have
        if want != have:
            short = sorted(rank for rank, count in per_rank.items() if count < want)
            report.unmatched.append(
                f"{key[1]} over ranks {list(key[0])}: rank(s) {short} record fewer "
                f"invocations than their peers ({per_rank})"
            )
    return report


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class RankReport:
    """One rank's measurements inside a cluster replay."""

    rank: int
    summary: ReplayResultSummary
    #: Total GPU time of communication kernels in the measured window.
    comm_time_us: float = 0.0
    #: Communication time not hidden behind compute (Section 3.3's
    #: "exposed GPU time" — the quantity comm/compute overlap minimises).
    exposed_comm_us: float = 0.0
    #: Virtual time this rank spent stalled in the rendezvous, waiting for
    #: slower peers to arrive at shared collectives.
    stall_us: float = 0.0
    #: Simulated memory footprint of this rank
    #: (:class:`~repro.memory.report.MemoryReport`); ``None`` unless the
    #: fleet was replayed with memory tracking enabled.
    memory: Optional[Any] = None
    #: Host wall-time profile of this rank's replay engine
    #: (:class:`~repro.profiling.ProfileReport`); ``None`` unless the fleet
    #: was replayed with profiling enabled.
    profile: Optional[Any] = None

    @property
    def mean_iteration_time_us(self) -> float:
        return self.summary.mean_iteration_time_us

    @property
    def peak_allocated_bytes(self) -> int:
        return self.memory.peak_allocated_bytes if self.memory is not None else 0

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "rank": self.rank,
            "summary": self.summary.to_dict(),
            "comm_time_us": self.comm_time_us,
            "exposed_comm_us": self.exposed_comm_us,
            "stall_us": self.stall_us,
            "mean_iteration_time_us": self.mean_iteration_time_us,
        }
        # Only present when memory tracking ran, so memory-less reports
        # serialise exactly as they did before the memory subsystem.
        if self.memory is not None:
            data["memory"] = self.memory.summary_dict()
        if self.profile is not None:
            data["profile"] = self.profile.to_dict()
        return data


@dataclass
class ClusterReport:
    """Aggregated outcome of one multi-rank co-replay."""

    device: str
    world_size: int
    ranks: List[RankReport] = field(default_factory=list)
    matched_collectives: int = 0
    unmatched_collectives: int = 0
    max_skew_us: float = 0.0
    mean_skew_us: float = 0.0

    # ------------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        return len(self.ranks)

    @property
    def critical_path_us(self) -> float:
        """The fleet's iteration time: the slowest rank bounds the step."""
        return max((rank.mean_iteration_time_us for rank in self.ranks), default=0.0)

    @property
    def straggler_rank(self) -> Optional[int]:
        """The rank on the critical path (slowest mean iteration time)."""
        if not self.ranks:
            return None
        return max(self.ranks, key=lambda r: r.mean_iteration_time_us).rank

    @property
    def mean_iteration_time_us(self) -> float:
        if not self.ranks:
            return 0.0
        return sum(r.mean_iteration_time_us for r in self.ranks) / len(self.ranks)

    @property
    def mean_exposed_comm_us(self) -> float:
        if not self.ranks:
            return 0.0
        return sum(r.exposed_comm_us for r in self.ranks) / len(self.ranks)

    def rank_report(self, rank: int) -> RankReport:
        for report in self.ranks:
            if report.rank == rank:
                return report
        raise KeyError(f"no rank {rank} in this report (ranks: {[r.rank for r in self.ranks]})")

    # ------------------------------------------------------------------
    # Memory aggregation (populated when the fleet replayed with memory
    # tracking; every accessor degrades gracefully without it).
    # ------------------------------------------------------------------
    @property
    def has_memory(self) -> bool:
        return any(rank.memory is not None for rank in self.ranks)

    @property
    def peak_allocated_bytes(self) -> int:
        """The fleet's worst-rank allocated peak (device sizing bound)."""
        return max((rank.peak_allocated_bytes for rank in self.ranks), default=0)

    @property
    def max_memory_rank(self) -> Optional[int]:
        """The rank with the largest simulated footprint — per-rank skew
        (e.g. unbalanced embedding shards) makes this differ from the
        straggler rank."""
        tracked = [rank for rank in self.ranks if rank.memory is not None]
        if not tracked:
            return None
        return max(tracked, key=lambda r: r.peak_allocated_bytes).rank

    @property
    def oom_ranks(self) -> List[int]:
        """Ranks whose simulated footprint exceeded their budget."""
        return sorted(
            rank.rank for rank in self.ranks
            if rank.memory is not None and not rank.memory.fits
        )

    # ------------------------------------------------------------------
    @property
    def has_profiles(self) -> bool:
        return any(rank.profile is not None for rank in self.ranks)

    @property
    def profile_reports(self) -> Dict[int, Any]:
        """Per-rank :class:`~repro.profiling.ProfileReport` objects, for
        fleets replayed with profiling enabled (empty dict otherwise)."""
        return {
            rank.rank: rank.profile
            for rank in self.ranks
            if rank.profile is not None
        }

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "device": self.device,
            "world_size": self.world_size,
            "num_replicas": self.num_replicas,
            "ranks": [rank.to_dict() for rank in self.ranks],
            "matched_collectives": self.matched_collectives,
            "unmatched_collectives": self.unmatched_collectives,
            "max_skew_us": self.max_skew_us,
            "mean_skew_us": self.mean_skew_us,
            "critical_path_us": self.critical_path_us,
            "straggler_rank": self.straggler_rank,
            "mean_iteration_time_us": self.mean_iteration_time_us,
            "mean_exposed_comm_us": self.mean_exposed_comm_us,
        }
        if self.has_memory:
            data["memory"] = {
                "peak_allocated_bytes": self.peak_allocated_bytes,
                "max_memory_rank": self.max_memory_rank,
                "oom_ranks": self.oom_ranks,
            }
        return data


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ClusterReplayer:
    """Co-replays a fleet of per-rank traces under the shared scheduler.

    Parameters
    ----------
    config:
        Base :class:`ReplayConfig` every replica runs under; each replica
        gets its ``rank`` pinned to its trace's recorded rank.  The
        interconnect / comm-delay / topology fields also parameterise the
        shared collective cost model.
    strict_match:
        Raise :class:`ClusterMatchError` when the pre-flight match finds
        unmatched collectives (default); pass ``False`` to attempt the
        replay anyway (mismatched collectives then fail at rendezvous
        time).
    """

    def __init__(
        self,
        config: Optional[ReplayConfig] = None,
        strict_match: bool = True,
        support: Optional[ReplaySupport] = None,
        track_memory: bool = False,
        memory_budget: Optional[Any] = None,
        profile_hook_factory: Optional[Callable[[int], Any]] = None,
    ) -> None:
        self.config = config if config is not None else ReplayConfig()
        self.strict_match = strict_match
        self.support = support
        #: Optional scheduler pick function: chooses which runnable cursor
        #: advances next.  Reports are pick-order independent; the property
        #: suite injects randomised picks here.
        self.scheduler_pick: Optional[Callable[[List[int], int], int]] = None
        #: Optional scheduler interrupt callback, polled at every scheduling
        #: step; a truthy return pauses the co-replay by raising
        #: :class:`~repro.cluster.scheduler.ClusterPaused`.  The daemon's
        #: executor uses this to pause cluster jobs at rendezvous
        #: boundaries; resume re-runs the fleet deterministically.
        self.scheduler_interrupt: Optional[Callable[[], bool]] = None
        #: Per-rank memory footprints (``repro.memory``): simulate each
        #: replica's device memory and aggregate the per-rank reports plus
        #: the max-rank summary onto the :class:`ClusterReport`.
        self.track_memory = track_memory
        self.memory_budget = memory_budget
        #: rank -> :class:`~repro.profiling.ProfileHook` factory.  When set,
        #: every replica runs with its own profiling hook and the aggregated
        #: :class:`~repro.profiling.ProfileReport` lands on its
        #: :class:`RankReport` — one hook per rank so per-rank attribution
        #: stays separate while the scheduler interleaves ranks.  With a
        #: tracer set, each hook records its rank's stage spans there
        #: (``ProfileHook.share``) in place of a separate TelemetryHook.
        self.profile_hook_factory = profile_hook_factory
        #: Optional :class:`~repro.telemetry.Tracer` (set by
        #: ``ClusterSession.with_telemetry()`` or the ``--trace-out`` CLI
        #: path).  When enabled, every replica gets a per-rank
        #: :class:`~repro.telemetry.TelemetryHook`, the scheduler emits
        #: park/wake/rendezvous events, and :meth:`replay` records the
        #: per-rank virtual-time Gantt (compute / comms / exposed-comms /
        #: stall lanes) onto the tracer.  ``None`` keeps every replay path
        #: telemetry-free.
        self.tracer = None

    # ------------------------------------------------------------------
    @staticmethod
    def load_fleet(directory: Union[str, Path]) -> List[ExecutionTrace]:
        """Load every serialised trace under ``directory`` as one fleet,
        ordered by recorded rank."""
        from repro.service.repository import TraceRepository

        repository = TraceRepository(directory)
        records = repository.discover()
        if not records:
            raise ClusterMatchError(
                f"no execution traces found under {directory!r}"
                + (f" (skipped: {len(repository.invalid)} invalid file(s))" if repository.invalid else "")
            )
        traces = [ExecutionTrace.load(record.path) for record in records]
        return sorted(traces, key=lambda trace: int(trace.metadata.get("rank", 0)))

    # ------------------------------------------------------------------
    def replay(
        self,
        traces: Sequence[TraceLike],
        profiler_traces: Optional[Sequence[Optional[ProfilerTrace]]] = None,
        rank_overrides: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> ClusterReport:
        """Co-replay the fleet and aggregate the :class:`ClusterReport`.

        ``rank_overrides`` maps a rank to :class:`ReplayConfig` field
        overrides for that replica only (e.g. ``{0: {"power_limit_w":
        250.0}}`` to model a power-capped straggler).
        """
        fleet, profilers = self._normalize(traces, profiler_traces)
        ranks = [int(trace.metadata.get("rank", 0)) for trace in fleet]
        if len(set(ranks)) != len(ranks):
            raise ClusterMatchError(f"duplicate ranks in fleet: {sorted(ranks)}")
        unknown = set(rank_overrides or {}) - set(ranks)
        if unknown:
            raise ClusterMatchError(
                f"rank_overrides for rank(s) {sorted(unknown)} not present in the fleet "
                f"(fleet ranks: {sorted(ranks)})"
            )
        if self.config.world_size is not None and self.config.world_size <= max(ranks):
            # A replica's runtime clamps its rank into the configured world
            # (rank = min(rank, world_size - 1)); clamped replicas would
            # collide in the rendezvous and deadlock the fleet.  To shrink
            # a replay, fold the groups instead (remap_world_size) or
            # replay a subset of the per-rank traces.
            raise ClusterMatchError(
                f"world_size {self.config.world_size} cannot cover fleet ranks "
                f"{sorted(ranks)}; a cluster world must be larger than the highest "
                "replayed rank"
            )

        match = match_collectives(fleet)
        if self.strict_match and not match.ok:
            raise ClusterMatchError(
                "collectives cannot be matched across the fleet:\n  "
                + "\n  ".join(match.unmatched)
            )

        rendezvous = EventRendezvous(
            cost_model=self._cost_model(),
            participants=ranks,
        )
        tracer = self.tracer if self.tracer is not None and self.tracer.enabled else None
        profile_hooks: Dict[int, Any] = {}
        replicas = []
        for trace, profiler in zip(fleet, profilers):
            rank = int(trace.metadata.get("rank", 0))
            hooks: Tuple[Any, ...] = ()
            profile_hook = None
            if self.profile_hook_factory is not None:
                profile_hook = profile_hooks[rank] = self.profile_hook_factory(rank)
                hooks = (profile_hook,)
            if tracer is not None:
                # One stage timer per rank: a ProfileHook is a TelemetryHook,
                # so it records the rank's stage spans onto the shared
                # tracer; any other factory hook gets a TelemetryHook beside it.
                from repro.profiling import ProfileHook
                from repro.telemetry import TelemetryHook

                if isinstance(profile_hook, ProfileHook):
                    profile_hook.share(tracer, rank=rank)
                else:
                    hooks += (TelemetryHook(tracer, rank=rank),)
            replicas.append(
                RankReplica.from_trace(
                    trace,
                    rendezvous,
                    self.config,
                    profiler_trace=profiler,
                    overrides=(rank_overrides or {}).get(rank),
                    support=self.support,
                    hooks=hooks,
                    track_memory=self.track_memory,
                    memory_budget=self.memory_budget,
                )
            )

        results = self._execute(replicas)
        return self._aggregate(fleet, replicas, results, rendezvous, match, profile_hooks)

    # ------------------------------------------------------------------
    def _normalize(
        self,
        traces: Sequence[TraceLike],
        profiler_traces: Optional[Sequence[Optional[ProfilerTrace]]],
    ) -> Tuple[List[ExecutionTrace], List[Optional[ProfilerTrace]]]:
        if not traces:
            raise ClusterMatchError("cannot replay an empty fleet")
        fleet: List[ExecutionTrace] = []
        profilers: List[Optional[ProfilerTrace]] = []
        for index, source in enumerate(traces):
            profiler = None
            if isinstance(source, ExecutionTrace):
                trace = source
            elif isinstance(source, (str, Path)):
                trace = ExecutionTrace.load(source)
            else:
                # RankCapture / CaptureResult-like: duck-typed, as in the api
                # facade, so cluster does not force the workloads import.
                trace = getattr(source, "execution_trace", None)
                profiler = getattr(source, "profiler_trace", None)
                if not isinstance(trace, ExecutionTrace):
                    raise TypeError(
                        f"fleet entry {index} is not an ExecutionTrace, a path, or a "
                        f"capture carrying one (got {type(source).__name__})"
                    )
            fleet.append(trace)
            profilers.append(profiler)
        if profiler_traces is not None:
            if len(profiler_traces) != len(fleet):
                raise ValueError(
                    f"profiler_traces has {len(profiler_traces)} entries for a fleet of {len(fleet)}"
                )
            profilers = list(profiler_traces)
        order = sorted(
            range(len(fleet)), key=lambda i: int(fleet[i].metadata.get("rank", 0))
        )
        return [fleet[i] for i in order], [profilers[i] for i in order]

    def _cost_model(self) -> CollectiveCostModel:
        """The shared pricing model — built exactly the way each replica's
        own runtime builds it, so a one-replica cluster replay prices every
        collective identically to the single-rank pipeline."""
        from repro.core.pipeline import make_collective_cost_model

        return make_collective_cost_model(self.config)

    # ------------------------------------------------------------------
    def _execute(self, replicas: List[RankReplica]) -> List[ReplayResult]:
        from repro.cluster.scheduler import VirtualTimeScheduler

        scheduler = VirtualTimeScheduler(
            replicas,
            replicas[0].rendezvous,
            pick=self.scheduler_pick,
            interrupt=self.scheduler_interrupt,
            telemetry=self.tracer,
        )
        errors = scheduler.run()
        if errors:
            raise ClusterReplayError(errors)
        return [replica.result for replica in replicas]

    # ------------------------------------------------------------------
    def _aggregate(
        self,
        fleet: List[ExecutionTrace],
        replicas: List[RankReplica],
        results: List[ReplayResult],
        rendezvous: EventRendezvous,
        match: CollectiveMatchReport,
        profile_hooks: Optional[Dict[int, Any]] = None,
    ) -> ClusterReport:
        stats = rendezvous.stats(
            measure_start_by_rank={
                replica.rank: replica.measure_start_us for replica in replicas
            }
        )
        world_size = self.config.world_size
        if world_size is None:
            world_size = max(
                (int(trace.metadata.get("world_size", 1)) for trace in fleet), default=1
            )
        report = ClusterReport(
            device=self.config.device,
            world_size=int(world_size),
            matched_collectives=stats.matched,
            unmatched_collectives=len(match.unmatched),
            max_skew_us=stats.max_skew_us,
            mean_skew_us=stats.mean_skew_us,
        )
        for replica, result in zip(replicas, results):
            timeline = result.timeline_stats
            profile = None
            hook = (profile_hooks or {}).get(replica.rank)
            if hook is not None:
                profile = hook.report(
                    trace_name=str(replica.trace.metadata.get("workload", "")),
                    device=replica.config.device,
                    vectorized=getattr(replica.config, "vectorized", True),
                )
            report.ranks.append(
                RankReport(
                    rank=replica.rank,
                    summary=result.summarize(),
                    comm_time_us=timeline.category_kernel_time_us.get("comms", 0.0),
                    exposed_comm_us=timeline.category_exposed_time_us.get("comms", 0.0),
                    stall_us=stats.stall_us_by_rank.get(replica.rank, 0.0),
                    memory=result.memory_report,
                    profile=profile,
                )
            )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            from repro.telemetry import record_cluster_timeline

            record_cluster_timeline(
                tracer,
                {replica.rank: result for replica, result in zip(replicas, results)},
                collective_events=getattr(rendezvous, "events", ()),
                measure_start_by_rank={
                    replica.rank: replica.measure_start_us for replica in replicas
                },
            )
        return report
