"""The replay stage pipeline.

One replay (Section 4 of the paper) is a sequence of well-defined steps:
select the operators to replay, reconstruct a callable per operator,
materialise the tensors they need, re-create the recorded stream placement,
initialise the (possibly distributed) runtime, execute the operators in the
recorded order, and measure the run.  This module makes them first-class
stage objects with a common protocol, composed by a :class:`ReplayPipeline`
that threads a typed :class:`ReplayContext` between them.

The pipeline is the single replay implementation in the package; the
public entry point is the :mod:`repro.api` facade.

Why stages?  Every consumer can now

* *observe* a replay (register :class:`ReplayHook` objects for stage
  lifecycle events and per-operator callbacks — progress bars, tracing,
  metric taps),
* *customise* a replay (insert, replace or skip stages without touching
  core internals), and
* *reuse* the build phase (run only the build stages to get a plan, then
  execute it many times).

Determinism note: the stages replay operators in recorded order,
operation for operation; results (and therefore the service layer's
cached result digests) depend on that order, so stage edits must keep it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.core.comms_replay import CommReplayManager
from repro.core.reconstruction import OperatorReconstructor, ReconstructionError, ReconstructedOp
from repro.core.registry import ReplaySupport
from repro.core.selection import OperatorSelector, SelectionResult
from repro.core.streams import StreamAssigner, StreamAssignment
from repro.core.tensors import TensorManager
from repro.core.vectorize import replay_entries_vectorized
from repro.hardware.counters import compute_system_metrics
from repro.hardware.network import CollectiveCostModel, InterconnectSpec
from repro.torchsim.distributed import DistributedContext, RankBlocked, attempt_collective
from repro.torchsim.profiler import Profiler
from repro.torchsim.runtime import Runtime
from repro.et.trace import ExecutionTrace


class ReplayPipelineError(RuntimeError):
    """A stage was run against a context missing its prerequisites, or the
    pipeline finished without producing a result."""


#: What a stage's or pipeline's :meth:`~ReplayStage.steps` generator is:
#: it yields :class:`RankBlocked` whenever a collective waits on a
#: cross-rank rendezvous and returns when the stage (or pipeline) is done.
ReplaySteps = Generator[RankBlocked, None, Any]


def _drain(steps: ReplaySteps) -> Any:
    """Run a :data:`ReplaySteps` generator to completion; return its value.

    Only a cooperative scheduler (:mod:`repro.cluster`) can resolve a
    collective that waits on other ranks, so a yield here is an error, not
    a wait: it is thrown back into the generator (so ``on_error`` hooks
    see it) as a :class:`ReplayPipelineError` naming the collective.
    """
    try:
        blocked = next(steps)
    except StopIteration as done:
        return done.value
    error = ReplayPipelineError(
        f"{blocked} outside a cooperative scheduler: a blocking replay cannot "
        "wait for other ranks — co-replay the fleet with repro.cluster instead"
    )
    steps.throw(error)
    raise error


class CheckpointError(RuntimeError):
    """A resume was attempted against a checkpoint that does not match the
    replay (different trace/config, or the re-executed prefix diverged from
    the recorded clock fingerprint — the code or inputs changed)."""


#: Bumped whenever the serialized checkpoint shape changes; a version
#: mismatch fails the resume instead of silently misreading the token.
CHECKPOINT_SCHEMA_VERSION = 1


@dataclass
class ReplayCheckpoint:
    """Progress token of a paused replay, captured at an iteration boundary.

    Replay is a pure function of (trace, config): the virtual runtime is
    deterministic, so a paused replay *resumes by re-execution* — the build
    stages re-run (cheap), the completed warm-up/measured iterations replay
    again, and the checkpoint's :attr:`clock_fingerprint` (the runtime's
    :meth:`~repro.torchsim.runtime.Runtime.clock_state` at the pause point)
    is verified before execution continues.  That discipline is what makes
    the resumed result **byte-identical** to an uninterrupted run: nothing
    is approximated or spliced, and any drift (a changed trace, config or
    cost model) is caught as a :class:`CheckpointError` instead of
    producing silently different numbers.

    The token is JSON-serialisable (``to_dict``/``from_dict``) so the
    daemon can snapshot it to disk and resume across process restarts.
    """

    trace_digest: str
    config_digest: str
    completed_warmup: int
    completed_iterations: int
    #: ``Runtime.clock_state()`` at the pause boundary, normalised to JSON
    #: primitives: ``[clocks dict, next node id, next correlation id,
    #: current thread]``.
    clock_fingerprint: List[Any] = field(default_factory=list)
    iteration_times_us: List[float] = field(default_factory=list)
    replayed_ops: int = 0
    skipped_ops: int = 0
    measure_start_us: float = 0.0
    schema_version: int = CHECKPOINT_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "trace_digest": self.trace_digest,
            "config_digest": self.config_digest,
            "completed_warmup": self.completed_warmup,
            "completed_iterations": self.completed_iterations,
            "clock_fingerprint": list(self.clock_fingerprint),
            "iteration_times_us": list(self.iteration_times_us),
            "replayed_ops": self.replayed_ops,
            "skipped_ops": self.skipped_ops,
            "measure_start_us": self.measure_start_us,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReplayCheckpoint":
        version = int(data.get("schema_version", 0))
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint schema version {version} does not match this build's "
                f"{CHECKPOINT_SCHEMA_VERSION}; the job must be re-run from scratch"
            )
        return cls(
            trace_digest=str(data["trace_digest"]),
            config_digest=str(data["config_digest"]),
            completed_warmup=int(data["completed_warmup"]),
            completed_iterations=int(data["completed_iterations"]),
            clock_fingerprint=list(data.get("clock_fingerprint", [])),
            iteration_times_us=[float(t) for t in data.get("iteration_times_us", [])],
            replayed_ops=int(data.get("replayed_ops", 0)),
            skipped_ops=int(data.get("skipped_ops", 0)),
            measure_start_us=float(data.get("measure_start_us", 0.0)),
        )


def _clock_fingerprint(runtime: Runtime) -> List[Any]:
    """``Runtime.clock_state()`` normalised to JSON primitives so the
    fingerprint survives a ``json.dumps``/``loads`` round-trip intact."""
    clocks, next_node_id, next_correlation_id, current_thread = runtime.clock_state()
    return [
        {str(k): float(v) for k, v in clocks.items()},
        int(next_node_id),
        int(next_correlation_id),
        str(current_thread),
    ]


class ReplayPaused(BaseException):
    """Control-flow signal: the replay honoured a pause request at an
    iteration boundary and captured a :class:`ReplayCheckpoint`.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so generic
    job-error handling — e.g. the batch layer's per-job ``except
    Exception`` — cannot mistake a cooperative pause for a failure.
    """

    def __init__(self, checkpoint: ReplayCheckpoint) -> None:
        super().__init__(
            f"replay paused after {checkpoint.completed_warmup} warm-up and "
            f"{checkpoint.completed_iterations} measured iteration(s)"
        )
        self.checkpoint = checkpoint


# ----------------------------------------------------------------------
# Context
# ----------------------------------------------------------------------
@dataclass
class ReplayContext:
    """Everything one replay reads and produces, threaded between stages.

    The build stages fill the middle block (selection, reconstructed ops,
    tensors, streams); the execution stages fill the measurement block and
    finally :attr:`result`.  ``extras`` is a scratch dict for user stages
    and hooks — core stages never touch it.
    """

    trace: ExecutionTrace
    config: "ReplayConfig" = None  # type: ignore[assignment]
    profiler_trace: Optional[Any] = None
    support: Optional[ReplaySupport] = None
    runtime: Optional[Runtime] = None
    hooks: List["ReplayHook"] = field(default_factory=list)

    # Build products.
    selection: Optional[SelectionResult] = None
    reconstructed: Dict[int, ReconstructedOp] = field(default_factory=dict)
    reconstruction_failures: Dict[int, str] = field(default_factory=dict)
    tensor_manager: Optional[TensorManager] = None
    stream_assignment: Optional[StreamAssignment] = None

    # Execution products.
    profiler: Optional[Profiler] = None
    iteration_times_us: List[float] = field(default_factory=list)
    replayed_ops: int = 0
    skipped_ops: int = 0
    measure_start_us: float = 0.0
    measure_end_us: float = 0.0
    #: True while a *measured* iteration is replaying (False during warm-up),
    #: so per-op hooks can tell the two apart.
    measuring: bool = False

    # Final product.
    result: Optional["ReplayResult"] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.core.replayer import ReplayConfig

        if self.config is None:
            self.config = ReplayConfig()
        if self.support is None:
            self.support = ReplaySupport()

    # ------------------------------------------------------------------
    def require(self, attribute: str, stage: "ReplayStage") -> Any:
        """Fetch a context attribute a stage depends on, or fail clearly."""
        value = getattr(self, attribute)
        if value is None:
            raise ReplayPipelineError(
                f"stage {stage.name!r} requires context.{attribute}, which no earlier "
                f"stage produced — check the pipeline's stage order"
            )
        return value

    def emit_op_replayed(self, entry, output) -> None:
        """Notify every registered hook that one operator was replayed."""
        for hook in self.hooks:
            hook.on_op_replayed(self, entry, output)


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------
class ReplayHook:
    """Observer of a replay's lifecycle.

    Subclass and override any subset; every method is a no-op by default.
    Hooks must not mutate the context's build/measurement products — use
    ``context.extras`` for hook-owned state.
    """

    def on_stage_start(self, context: ReplayContext, stage: "ReplayStage") -> None:
        """Called immediately before ``stage.run(context)``."""

    def on_stage_end(self, context: ReplayContext, stage: "ReplayStage") -> None:
        """Called after ``stage.run(context)`` returned normally."""

    def on_op_replayed(self, context: ReplayContext, entry, output) -> None:
        """Called after each replayed operator (warm-up and measured
        iterations alike; check ``context.measuring`` to tell them apart)."""

    def on_error(self, context: ReplayContext, stage: "ReplayStage", error: BaseException) -> None:
        """Called when ``stage.run(context)`` raised; the error re-raises."""

    def on_resume(self, context: ReplayContext) -> None:
        """Called when a cooperative scheduler hands control back to this
        replay after running other work (the event-driven cluster engine
        interleaves many ranks on one thread).  Wall-clock observers should
        re-anchor their marks here so time spent replaying *other* ranks is
        not attributed to this replay's next operator.  Never called in
        single-replay (non-interleaved) runs."""


# ----------------------------------------------------------------------
# Stage protocol and the seven core stages
# ----------------------------------------------------------------------
class ReplayStage:
    """One step of a replay: reads and mutates the :class:`ReplayContext`.

    Stages are identified by :attr:`name` for pipeline composition
    (insert/replace/skip).  A stage must be reusable across contexts — keep
    per-replay state on the context, not on the stage.
    """

    name: str = "stage"

    def run(self, context: ReplayContext) -> None:
        raise NotImplementedError

    def steps(self, context: ReplayContext) -> ReplaySteps:
        """The stage as a :data:`ReplaySteps` generator, which is how
        :class:`ReplayPipeline` runs it.  Only a stage that can wait on a
        cross-rank collective (:class:`ExecuteStage`) yields; every other
        stage just runs."""
        self.run(context)
        yield from ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class SelectStage(ReplayStage):
    """Choose which trace nodes to replay (subtrace labels, categories,
    parent/child deduplication) — Section 4.2."""

    name = "select"

    def run(self, context: ReplayContext) -> None:
        selector = OperatorSelector(context.support)
        context.selection = selector.select(
            context.trace,
            profiler_trace=context.profiler_trace,
            subtrace_label=context.config.subtrace_label,
            categories=context.config.categories,
        )


class ReconstructStage(ReplayStage):
    """Turn each selected ET node back into a callable — Section 4.3.

    Communication nodes optionally have their recorded process group
    remapped onto a smaller replay world first."""

    name = "reconstruct"

    def run(self, context: ReplayContext) -> None:
        selection = context.require("selection", self)
        reconstructor = OperatorReconstructor(context.support.registry)
        group_mapper = CommReplayManager(None, context.config.remap_world_size)
        context.reconstructed = {}
        context.reconstruction_failures = {}
        for entry in selection.supported_entries():
            node = entry.node
            if context.config.remap_world_size is not None and entry.category == "comms":
                node = _with_remapped_group(node, group_mapper)
            try:
                context.reconstructed[entry.node.id] = reconstructor.reconstruct(node)
            except ReconstructionError as error:
                entry.supported = False
                entry.reason = str(error)
                context.reconstruction_failures[entry.node.id] = str(error)


class MaterializeTensorsStage(ReplayStage):
    """Classify recorded tensors as intermediate vs external and prepare
    their materialisation — Section 4.4."""

    name = "materialize-tensors"

    def run(self, context: ReplayContext) -> None:
        selection = context.require("selection", self)
        context.tensor_manager = TensorManager(embedding_config=context.config.embedding_config)
        context.tensor_manager.classify(selection.entries)


class AssignStreamsStage(ReplayStage):
    """Re-create the recorded operator-to-stream placement — Section 4.5."""

    name = "assign-streams"

    def run(self, context: ReplayContext) -> None:
        profiler_trace = context.profiler_trace if context.config.use_streams else None
        context.stream_assignment = StreamAssigner().assign(context.trace, profiler_trace)


class InitCommsStage(ReplayStage):
    """Create the runtime (and distributed context) the replay runs on and
    re-create the recorded process groups — Section 4.6.

    A runtime already present on the context (injected by the caller) is
    kept; only the communication groups are ensured on it."""

    name = "init-comms"

    def run(self, context: ReplayContext) -> None:
        if context.runtime is None:
            context.runtime = make_replay_runtime(context.trace, context.config)
        if context.runtime.dist is not None:
            comm_manager = CommReplayManager(context.runtime.dist, context.config.remap_world_size)
            comm_manager.ensure_groups(CommReplayManager.extract(context.trace))


class ExecuteStage(ReplayStage):
    """Replay the selected operators in the recorded order: warm-up
    iterations first (unmeasured, unprofiled), then the measured ones.

    The stage is the pipeline's checkpoint boundary.  ``pause_check`` (a
    zero-argument callable) is polled at every iteration boundary — the
    point where all of the iteration's op programs have completed — and a
    truthy return raises :class:`ReplayPaused` carrying a
    :class:`ReplayCheckpoint`.  ``resume_from`` replays a previously
    captured checkpoint: the completed iterations re-execute
    deterministically and the runtime's clock state is verified against the
    checkpoint's fingerprint at the recorded boundary (see
    :class:`ReplayCheckpoint` for why this yields byte-identical results).
    Both default to ``None``, leaving the stage's behaviour unchanged.
    """

    name = "execute"

    def __init__(
        self,
        pause_check: Optional[Any] = None,
        resume_from: Optional[ReplayCheckpoint] = None,
    ) -> None:
        self.pause_check = pause_check
        self.resume_from = resume_from

    def run(self, context: ReplayContext) -> None:
        _drain(self.steps(context))

    def steps(self, context: ReplayContext) -> ReplaySteps:
        """The execute loop.  It yields :class:`RankBlocked` only when a
        collective waits on a cross-rank rendezvous, so a cooperative
        scheduler can park this replay and resume it later (see
        :mod:`repro.cluster.scheduler`)."""
        runtime = context.require("runtime", self)
        context.require("selection", self)
        context.require("tensor_manager", self)
        context.require("stream_assignment", self)

        if self.resume_from is not None:
            self._check_resume_inputs(context, self.resume_from)

        profiler: Optional[Profiler] = None
        if context.config.profile:
            profiler = runtime.attach_profiler(Profiler())
        context.profiler = profiler

        warmup_total = context.config.warmup_iterations
        measured_total = max(1, context.config.iterations)

        context.measuring = False
        for index in range(warmup_total):
            yield from self._replay_once(context, runtime)
            self._boundary(context, runtime, index + 1, 0, warmup_total, measured_total)

        if profiler is not None:
            profiler.start()
        context.measure_start_us = runtime.synchronize()
        context.iteration_times_us = []
        context.replayed_ops = 0
        context.skipped_ops = 0
        context.measuring = True
        for index in range(measured_total):
            start = runtime.synchronize()
            replayed, skipped = yield from self._replay_once(context, runtime)
            end = runtime.synchronize()
            context.iteration_times_us.append(end - start)
            context.replayed_ops += replayed
            context.skipped_ops += skipped
            self._boundary(
                context, runtime, warmup_total, index + 1, warmup_total, measured_total
            )
        context.measuring = False
        context.measure_end_us = runtime.synchronize()
        if profiler is not None:
            profiler.stop()

    # ------------------------------------------------------------------
    # Checkpoint boundaries
    # ------------------------------------------------------------------
    def _boundary(
        self,
        context: ReplayContext,
        runtime: Runtime,
        warmup_done: int,
        measured_done: int,
        warmup_total: int,
        measured_total: int,
    ) -> None:
        """One iteration boundary: verify a resume fingerprint when this is
        the resumed checkpoint's position, then honour a pending pause
        request (never after the final iteration — the replay is done)."""
        resume = self.resume_from
        if (
            resume is not None
            and warmup_done == resume.completed_warmup
            and measured_done == resume.completed_iterations
        ):
            self._verify_fingerprint(context, runtime, resume)
        if self.pause_check is None or not self.pause_check():
            return
        if warmup_done >= warmup_total and measured_done >= measured_total:
            return  # all work done; finishing beats pausing
        raise ReplayPaused(self._capture(context, runtime, warmup_done, measured_done))

    def _capture(
        self,
        context: ReplayContext,
        runtime: Runtime,
        warmup_done: int,
        measured_done: int,
    ) -> ReplayCheckpoint:
        return ReplayCheckpoint(
            trace_digest=context.trace.digest(),
            config_digest=context.config.digest(),
            completed_warmup=warmup_done,
            completed_iterations=measured_done,
            clock_fingerprint=_clock_fingerprint(runtime),
            iteration_times_us=list(context.iteration_times_us),
            replayed_ops=context.replayed_ops,
            skipped_ops=context.skipped_ops,
            measure_start_us=context.measure_start_us,
        )

    @staticmethod
    def _check_resume_inputs(context: ReplayContext, resume: ReplayCheckpoint) -> None:
        trace_digest = context.trace.digest()
        if resume.trace_digest and trace_digest != resume.trace_digest:
            raise CheckpointError(
                f"checkpoint was captured for trace digest {resume.trace_digest[:12]}…, "
                f"but the replay is running trace digest {trace_digest[:12]}…"
            )
        config_digest = context.config.digest()
        if resume.config_digest and config_digest != resume.config_digest:
            raise CheckpointError(
                "checkpoint was captured under a different ReplayConfig "
                f"({resume.config_digest[:12]}… vs {config_digest[:12]}…)"
            )

    @staticmethod
    def _verify_fingerprint(
        context: ReplayContext, runtime: Runtime, resume: ReplayCheckpoint
    ) -> None:
        current = _clock_fingerprint(runtime)
        if resume.clock_fingerprint and current != resume.clock_fingerprint:
            raise CheckpointError(
                "re-executed replay prefix diverged from the checkpoint's clock "
                "fingerprint — the trace, config or cost model changed since the "
                f"pause (checkpoint at warmup={resume.completed_warmup}, "
                f"iteration={resume.completed_iterations})"
            )

    # ------------------------------------------------------------------
    def replay_once(self, context: ReplayContext, runtime: Runtime) -> tuple:
        """Replay every selected operator once and return ``(replayed,
        skipped)`` — one pass of the execute loop outside any iteration
        bookkeeping (the throughput benchmarks time exactly this)."""
        return _drain(self._replay_once(context, runtime))

    def _replay_once(self, context: ReplayContext, runtime: Runtime) -> ReplaySteps:
        """Replay every selected operator once, in execution order; returns
        ``(replayed, skipped)``.

        Dispatches to the vectorized executor (:mod:`repro.core.vectorize`)
        unless ``config.vectorized=False`` or an execution-graph observer is
        recording (the fast path reproduces clocks, kernels and profiler
        events, but not observer callbacks).  Both paths produce
        byte-identical replay results.
        """
        if getattr(context.config, "vectorized", True) and (
            runtime.observer is None or not runtime.observer.enabled
        ):
            return (yield from replay_entries_vectorized(context, runtime))
        return (yield from self._replay_once_scalar(context, runtime))

    def _replay_once_scalar(self, context: ReplayContext, runtime: Runtime) -> ReplaySteps:
        """The reference one-op-at-a-time loop (``vectorized=False``)."""
        replayed = 0
        skipped = 0
        notify = bool(context.hooks)
        context.tensor_manager.reset_intermediates()
        for entry in context.selection.entries:
            if not entry.supported:
                skipped += 1
                continue
            reconstructed = context.reconstructed.get(entry.node.id)
            if reconstructed is None:
                skipped += 1
                continue
            tensors = context.tensor_manager.gather_inputs(entry.node)
            stream = (
                context.stream_assignment.stream_for(entry.node.id)
                if context.config.use_streams
                else context.stream_assignment.default_stream
            )
            if entry.category == "comms":
                result = yield from attempt_collective(
                    runtime, lambda: reconstructed.function(runtime, *tensors, stream=stream)
                )
            else:
                result = reconstructed.function(runtime, *tensors, stream=stream)
            context.tensor_manager.register_outputs(entry.node, result)
            replayed += 1
            if notify:
                context.emit_op_replayed(entry, result)
        return replayed, skipped


class TrackMemoryStage(ReplayStage):
    """Simulate the replay's device-memory footprint (off by default).

    A purely observational stage: it runs the static caching-allocator
    simulation of :mod:`repro.memory` over the selected operators and
    stores the :class:`~repro.memory.report.MemoryReport` in
    ``context.extras["memory_report"]`` (the measure stage copies it onto
    the final result).  It never touches the runtime, the tensor manager
    or the measurement window, so enabling it leaves replay results and
    cache digests byte-identical — the equivalence contract
    ``tests/test_memory_subsystem.py`` asserts.

    ``budget`` bounds the simulated pool (bytes or ``"16GB"``-style
    string; default: the config device's capacity).  ``on_oom`` decides
    what a simulated OOM does: ``"record"`` (default) keeps it as data on
    the report, ``"raise"`` aborts the replay with
    :class:`~repro.memory.report.SimulatedOOMError` naming the failing
    operator.
    """

    name = "track-memory"

    #: Key under which the report is published on ``context.extras``.
    EXTRAS_KEY = "memory_report"

    def __init__(
        self,
        budget: Optional[Any] = None,
        on_oom: str = "record",
        keep_timeline: bool = True,
    ) -> None:
        if on_oom not in ("record", "raise"):
            raise ValueError(f"on_oom must be 'record' or 'raise', got {on_oom!r}")
        self.budget = budget
        self.on_oom = on_oom
        self.keep_timeline = keep_timeline

    def run(self, context: ReplayContext) -> None:
        from repro.memory.report import simulate_memory

        selection = context.require("selection", self)
        stream_for = None
        if context.stream_assignment is not None and context.config.use_streams:
            assignment = context.stream_assignment
            stream_for = lambda node_id: assignment.stream_for(node_id)  # noqa: E731
        report = simulate_memory(
            context.trace,
            device=context.config.device,
            budget=self.budget,
            entries=selection.entries,
            trace_name=str(context.trace.metadata.get("workload", "")),
            stream_for=stream_for,
            keep_timeline=self.keep_timeline,
        )
        context.extras[self.EXTRAS_KEY] = report
        if self.on_oom == "raise":
            report.raise_if_oom()


class MeasureStage(ReplayStage):
    """Resolve the measurement window into timeline stats, system metrics
    and the final :class:`~repro.core.replayer.ReplayResult`."""

    name = "measure"

    def run(self, context: ReplayContext) -> None:
        from repro.core.replayer import ReplayResult

        runtime = context.require("runtime", self)
        selection = context.require("selection", self)
        stats = runtime.timeline_stats(
            window_start=context.measure_start_us, window_end=context.measure_end_us
        )
        metrics = compute_system_metrics(stats, runtime.spec, context.config.power_limit_w)
        launches = [
            launch for launch in runtime.gpu.launches
            if launch.start is not None and launch.start >= context.measure_start_us
        ]
        context.result = ReplayResult(
            iteration_times_us=list(context.iteration_times_us),
            coverage=selection.coverage(),
            replayed_ops=context.replayed_ops,
            skipped_ops=context.skipped_ops,
            timeline_stats=stats,
            system_metrics=metrics,
            profiler_trace=context.profiler.trace if context.profiler is not None else None,
            kernel_launches=launches,
            memory_report=context.extras.get(TrackMemoryStage.EXTRAS_KEY),
        )


#: Names of the stages that make up the initialisation (build) phase.
BUILD_STAGE_NAMES = ("select", "reconstruct", "materialize-tensors", "assign-streams")


def make_collective_cost_model(config: "ReplayConfig") -> CollectiveCostModel:
    """The collective pricing model ``config`` describes: interconnect
    spec, comm-delay knobs and the optional hierarchical topology preset.
    Shared by the single-rank runtime and the cluster engine so a
    one-replica cluster replay prices collectives identically to the
    single-rank pipeline."""
    from repro.hardware.network import topology_from_name

    spec = config.interconnect or InterconnectSpec()
    return CollectiveCostModel(
        spec=spec,
        delay_scale=config.comm_delay_scale,
        extra_delay_us=config.comm_extra_delay_us,
        topology=topology_from_name(getattr(config, "topology", None), spec),
    )


def make_replay_runtime(trace: ExecutionTrace, config: "ReplayConfig") -> Runtime:
    """The runtime (and distributed context) a replay of ``trace`` under
    ``config`` runs on.  World size defaults to the trace metadata's."""
    world_size = config.world_size
    if world_size is None:
        world_size = int(trace.metadata.get("world_size", 1))
    dist: Optional[DistributedContext] = None
    if world_size > 1:
        collective_model = make_collective_cost_model(config)
        dist = DistributedContext(
            rank=min(config.rank, world_size - 1),
            world_size=world_size,
            collective_model=collective_model,
        )
    return Runtime(
        device=config.device,
        power_limit_w=config.power_limit_w,
        cost_model_mode=config.cost_model_mode,
        rank=config.rank,
        dist=dist,
    )


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
class ReplayPipeline:
    """An ordered list of stages threading one :class:`ReplayContext`.

    Composition methods mutate in place and return ``self`` so they chain::

        pipeline = (
            ReplayPipeline.default()
            .insert_after("execute", MyTapStage())
            .skip("measure")
            .add_hook(ProgressHook())
        )

    Hooks registered on the pipeline are merged (order-preserving, deduped)
    into ``context.hooks`` at :meth:`run` time, so per-op events reach them
    too.
    """

    def __init__(
        self,
        stages: Optional[Sequence[ReplayStage]] = None,
        hooks: Optional[Sequence[ReplayHook]] = None,
    ) -> None:
        self.stages: List[ReplayStage] = (
            list(stages) if stages is not None else self.default_stages()
        )
        self.hooks: List[ReplayHook] = list(hooks or [])

    @staticmethod
    def default_stages() -> List[ReplayStage]:
        """The seven canonical stages, in Section 4 order."""
        return [
            SelectStage(),
            ReconstructStage(),
            MaterializeTensorsStage(),
            AssignStreamsStage(),
            InitCommsStage(),
            ExecuteStage(),
            MeasureStage(),
        ]

    @classmethod
    def default(cls, hooks: Optional[Sequence[ReplayHook]] = None) -> "ReplayPipeline":
        return cls(hooks=hooks)

    @classmethod
    def build_only(cls) -> "ReplayPipeline":
        """Just the initialisation phase (select → … → assign-streams)."""
        pipeline = cls()
        pipeline.stages = [s for s in pipeline.stages if s.name in BUILD_STAGE_NAMES]
        return pipeline

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def _index_of(self, name: str) -> int:
        for index, stage in enumerate(self.stages):
            if stage.name == name:
                return index
        raise KeyError(f"no stage named {name!r}; stages are {self.stage_names()}")

    def insert_before(self, name: str, stage: ReplayStage) -> "ReplayPipeline":
        self.stages.insert(self._index_of(name), stage)
        return self

    def insert_after(self, name: str, stage: ReplayStage) -> "ReplayPipeline":
        self.stages.insert(self._index_of(name) + 1, stage)
        return self

    def replace(self, name: str, stage: ReplayStage) -> "ReplayPipeline":
        self.stages[self._index_of(name)] = stage
        return self

    def skip(self, *names: str) -> "ReplayPipeline":
        for name in names:
            del self.stages[self._index_of(name)]
        return self

    def add_hook(self, hook: ReplayHook) -> "ReplayPipeline":
        self.hooks.append(hook)
        return self

    def clone(self) -> "ReplayPipeline":
        """Independent copy (shared stage/hook objects, separate lists)."""
        return ReplayPipeline(stages=list(self.stages), hooks=list(self.hooks))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def steps(self, context: ReplayContext) -> ReplaySteps:
        """Thread ``context`` through every stage; returns the context.

        Emits ``on_stage_start``/``on_stage_end`` around each stage and
        ``on_error`` (then re-raises) when a stage fails.  A generator that
        yields :class:`RankBlocked` whenever the execute stage waits on a
        cross-rank collective: the cluster scheduler drives it
        cooperatively, :meth:`run_context` drives it to completion.
        """
        for hook in self.hooks:
            if hook not in context.hooks:
                context.hooks.append(hook)
        for stage in list(self.stages):
            self._dispatch("on_stage_start", context, stage)
            try:
                yield from stage.steps(context)
            except Exception as error:
                for hook in context.hooks:
                    # A buggy observer must not mask the real stage error
                    # or starve the remaining hooks of the notification.
                    try:
                        hook.on_error(context, stage, error)
                    except Exception:  # noqa: BLE001
                        pass
                raise
            self._dispatch("on_stage_end", context, stage)
        return context

    def run_context(self, context: ReplayContext) -> ReplayContext:
        """Thread ``context`` through every stage and return it.  Unlike
        :meth:`run`, no final result is demanded — use this for partial
        pipelines (dry builds, measure-less taps)."""
        return _drain(self.steps(context))

    def run(self, context: ReplayContext) -> "ReplayResult":
        """Thread ``context`` through every stage and return its result."""
        return self.result_of(self.run_context(context))

    def result_of(self, context: ReplayContext) -> "ReplayResult":
        """The result a finished run of this pipeline left on ``context``."""
        if context.result is None:
            raise ReplayPipelineError(
                "pipeline finished without producing a result — it has no "
                f"result-producing stage (stages ran: {self.stage_names()}); "
                "use run_context() for partial pipelines"
            )
        return context.result

    @staticmethod
    def _dispatch(event: str, context: ReplayContext, stage: ReplayStage) -> None:
        for hook in context.hooks:
            getattr(hook, event)(context, stage)


def run_replay(
    trace: ExecutionTrace,
    config: Optional["ReplayConfig"] = None,
    profiler_trace: Optional[Any] = None,
    support: Optional[ReplaySupport] = None,
    hooks: Optional[Sequence[ReplayHook]] = None,
    pipeline: Optional[ReplayPipeline] = None,
    runtime: Optional[Runtime] = None,
    pause_check: Optional[Any] = None,
    resume_from: Optional[ReplayCheckpoint] = None,
) -> "ReplayResult":
    """One-shot replay of ``trace`` through the (default) stage pipeline.

    The convenience wrapper internal consumers share; the fluent public
    entry point is :func:`repro.api.replay`.

    ``pause_check``/``resume_from`` make the replay checkpointable (see
    :class:`ExecuteStage`): a truthy ``pause_check()`` at an iteration
    boundary raises :class:`ReplayPaused` with a :class:`ReplayCheckpoint`,
    and ``resume_from`` continues a previously captured checkpoint by
    deterministic re-execution.  They configure the execute stage, so they
    cannot be combined with an explicit ``pipeline``.
    """
    if (pause_check is not None or resume_from is not None) and pipeline is not None:
        raise ValueError(
            "pause_check/resume_from configure the default execute stage and "
            "cannot be combined with an explicit pipeline; construct the "
            "pipeline with ExecuteStage(pause_check=..., resume_from=...) instead"
        )
    context = ReplayContext(
        trace=trace,
        config=config,
        profiler_trace=profiler_trace,
        support=support,
        runtime=runtime,
        hooks=list(hooks or []),
    )
    if pause_check is not None or resume_from is not None:
        active = ReplayPipeline.default().replace(
            "execute", ExecuteStage(pause_check=pause_check, resume_from=resume_from)
        )
    else:
        active = pipeline if pipeline is not None else ReplayPipeline.default()
    return active.run(context)


def _with_remapped_group(node, group_mapper: CommReplayManager):
    """Copy of a communication node with its process group remapped."""
    from repro.et.schema import ETNode

    copy = ETNode.from_dict(node.to_dict())
    copy.inputs = [
        group_mapper.map_group(value)
        if type_str == "Dict" and isinstance(value, dict) and "ranks" in value
        else value
        for value, type_str in zip(copy.inputs, copy.input_types)
    ]
    return copy
