"""The fluent replay session builder behind :func:`repro.api.replay`.

A :class:`ReplaySession` accumulates *what* to replay (a trace, a capture,
or a path to a serialised trace), *how* to replay it (a
:class:`~repro.core.replayer.ReplayConfig`, built up field by field), and
*who gets to watch or change it* (hooks, stage edits), then runs the stage
pipeline::

    result = (
        api.replay(trace)
        .on("A100")
        .select(categories=("aten",))
        .iterations(5, warmup=1)
        .hook(ProgressHook())
        .run()
    )

Every mutator returns ``self`` so calls chain; nothing executes until
:meth:`run` (or :meth:`summarize`).  A session owns a private pipeline
clone, so stage edits never leak into other sessions.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from repro.core.pipeline import ReplayContext, ReplayHook, ReplayPipeline, ReplayStage
from repro.core.registry import ReplaySupport
from repro.core.replayer import ReplayConfig, ReplayResult, ReplayResultSummary
from repro.et.trace import ExecutionTrace
from repro.torchsim.profiler import ProfilerTrace
from repro.torchsim.runtime import Runtime

#: What :func:`repro.api.replay` accepts as a replay source.
ReplaySource = Union[ExecutionTrace, str, Path, "CaptureResult"]  # noqa: F821


class ReplaySession:
    """Fluent builder for one replay through the stage pipeline."""

    def __init__(
        self,
        source: ReplaySource,
        profiler_trace: Optional[ProfilerTrace] = None,
        config: Optional[ReplayConfig] = None,
        support: Optional[ReplaySupport] = None,
        pipeline: Optional[ReplayPipeline] = None,
    ) -> None:
        # Paths are resolved lazily (nothing is read until run time); other
        # sources are normalised now so type errors fail fast.
        self._trace_path: Optional[Path] = None
        if isinstance(source, (str, Path)):
            self._trace_path = Path(source)
            trace, inferred_profiler, inferred_device = None, None, None
        else:
            trace, inferred_profiler, inferred_device = _resolve_source(source)
        self._trace = trace
        self._profiler_trace = profiler_trace if profiler_trace is not None else inferred_profiler
        if config is None:
            config = ReplayConfig(device=inferred_device) if inferred_device else ReplayConfig()
        self._config = config
        self._support = support
        self._pipeline = (pipeline if pipeline is not None else ReplayPipeline.default()).clone()
        self._runtime: Optional[Runtime] = None
        self._profile_hook: Optional[Any] = None
        self._stage_timer: Optional[Any] = None
        self._tracer: Optional[Any] = None
        self._last_result: Optional[ReplayResult] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def config(self) -> ReplayConfig:
        """The config the session will replay under (read-only snapshot)."""
        return self._config

    def using(self, config: ReplayConfig) -> "ReplaySession":
        """Replace the whole config (later field mutators still apply)."""
        self._config = config
        return self

    def configure(self, **fields: Any) -> "ReplaySession":
        """Override arbitrary :class:`ReplayConfig` fields by name.

        Unknown field names raise ``TypeError`` — a typo never silently
        vanishes into a default config.
        """
        self._config = dataclass_replace(self._config, **fields)
        return self

    def on(self, device: str) -> "ReplaySession":
        """Target device spec (``"A100"``, ``"V100"``, ``"NewPlatform"`` …)."""
        return self.configure(device=device)

    def select(
        self,
        categories: Optional[Sequence[str]] = None,
        subtrace: Optional[str] = None,
    ) -> "ReplaySession":
        """Restrict replay to operator categories and/or a subtrace label."""
        overrides: dict = {}
        if categories is not None:
            overrides["categories"] = tuple(categories)
        if subtrace is not None:
            overrides["subtrace_label"] = subtrace
        return self.configure(**overrides)

    def iterations(self, count: int, warmup: Optional[int] = None) -> "ReplaySession":
        """Measured iteration count (and optionally the warm-up count)."""
        overrides: dict = {"iterations": count}
        if warmup is not None:
            overrides["warmup_iterations"] = warmup
        return self.configure(**overrides)

    def power_limit(self, watts: Optional[float]) -> "ReplaySession":
        """GPU power cap in Watts (``None`` for the device's TDP)."""
        return self.configure(power_limit_w=watts)

    def with_support(self, support: ReplaySupport) -> "ReplaySession":
        """Replay-support policy (custom-operator registrations)."""
        self._support = support
        return self

    def with_profiler(self, profiler_trace: Optional[ProfilerTrace]) -> "ReplaySession":
        """Profiler trace guiding stream placement (``None`` to drop it)."""
        self._profiler_trace = profiler_trace
        return self

    def with_runtime(self, runtime: Runtime) -> "ReplaySession":
        """Inject a pre-built runtime instead of letting the init-comms
        stage create one (advanced; e.g. to share a simulated cluster)."""
        self._runtime = runtime
        return self

    def with_memory(
        self,
        budget: Optional[Any] = None,
        on_oom: str = "record",
        keep_timeline: bool = True,
    ) -> "ReplaySession":
        """Track the replay's simulated device-memory footprint.

        Inserts the ``track-memory`` stage (after stream assignment, so
        tensors land on their recorded streams); the resulting
        :class:`~repro.memory.report.MemoryReport` is available as
        ``result.memory_report`` after :meth:`run`.  ``budget`` caps the
        simulated pool below the device's capacity (bytes or a ``"16GB"``
        string) for OOM what-if replays; ``on_oom="raise"`` aborts the
        replay with :class:`~repro.memory.report.SimulatedOOMError` when
        the trace does not fit.  Timing results and cache digests are
        unaffected either way.
        """
        from repro.core.pipeline import TrackMemoryStage

        stage = TrackMemoryStage(budget=budget, on_oom=on_oom, keep_timeline=keep_timeline)
        if TrackMemoryStage.name in self._pipeline.stage_names():
            self._pipeline.replace(TrackMemoryStage.name, stage)
        else:
            self._pipeline.insert_after("assign-streams", stage)
        return self

    def with_profiling(
        self, hook: Optional[Any] = None, report_at_exit: bool = False
    ) -> "ReplaySession":
        """Profile the replay engine itself (host wall time per operator).

        Attaches a :class:`~repro.profiling.ProfileHook` to the session's
        pipeline; after :meth:`run` the aggregated
        :class:`~repro.profiling.ProfileReport` is available as
        ``result.profile_report``.  Profiling observes through the hook
        protocol only — replay results and cache digests are unchanged, and
        sessions without the hook pay zero per-op overhead.  Pass a
        pre-built ``hook`` to share or customise aggregation;
        ``report_at_exit=True`` prints the hot-first summary at interpreter
        shutdown (tinygrad-style).  The hook is also the session's stage
        timer: with :meth:`with_telemetry` on (in either order) it records
        the ``stage:<name>`` spans onto the session's tracer, and its
        ``stage_wall_s`` is the sum of those spans.
        """
        from repro.profiling import ProfileHook

        self._profile_hook = (
            hook if hook is not None else ProfileHook(report_at_exit=report_at_exit)
        )
        if not isinstance(self._profile_hook, ProfileHook):
            self._pipeline.add_hook(self._profile_hook)
            return self
        if self._tracer is not None:
            self._profile_hook.share(self._tracer)
        self._set_stage_timer(self._profile_hook)
        return self

    def with_telemetry(
        self, tracer: Optional[Any] = None, enabled: bool = True
    ) -> "ReplaySession":
        """Trace the replay on the unified telemetry timeline.

        Attaches a :class:`~repro.telemetry.TelemetryHook` recording one
        wall+virtual span per pipeline stage onto ``tracer`` (a fresh
        :class:`~repro.telemetry.Tracer` is created when none is given;
        a profiled session's ``ProfileHook`` records them instead);
        after :meth:`run` the measured kernel launches are folded in as
        compute/comms/exposed-comms Gantt slices, and
        :meth:`export_trace` writes the whole thing as Chrome-trace JSON.
        Telemetry observes through the hook protocol only, so replay
        results and cache digests are byte-identical with it on, off
        (``enabled=False``) or absent — the disabled path costs one
        attribute read per callback.
        """
        from repro.profiling import ProfileHook
        from repro.telemetry import TelemetryHook, Tracer

        self._tracer = tracer if tracer is not None else Tracer(enabled=enabled)
        if isinstance(self._profile_hook, ProfileHook):
            self._profile_hook.share(self._tracer)
        else:
            self._set_stage_timer(TelemetryHook(self._tracer))
        return self

    def _set_stage_timer(self, hook: Any) -> None:
        """Keep exactly one stage timer on the pipeline: a later
        :meth:`with_profiling` / :meth:`with_telemetry` replaces the
        earlier timer in place (a ``ProfileHook`` is a ``TelemetryHook``)."""
        hooks = self._pipeline.hooks
        if self._stage_timer in hooks:
            hooks[hooks.index(self._stage_timer)] = hook
        else:
            hooks.append(hook)
        self._stage_timer = hook

    @property
    def tracer(self) -> Optional[Any]:
        """The session's :class:`~repro.telemetry.Tracer` (set by
        :meth:`with_telemetry`), or ``None``."""
        return self._tracer

    def export_trace(self, path: Union[str, Path]) -> Path:
        """Write the telemetry timeline as Chrome-trace JSON to ``path``.

        Requires :meth:`with_telemetry` and a completed :meth:`run`.
        """
        if self._tracer is None:
            raise RuntimeError(
                "no telemetry on this session — call .with_telemetry() before .run()"
            )
        from repro.telemetry import write_chrome_trace

        return write_chrome_trace(self._tracer, Path(path))

    # ------------------------------------------------------------------
    # Observation and stage composition
    # ------------------------------------------------------------------
    def hook(self, *hooks: ReplayHook) -> "ReplaySession":
        """Register lifecycle/per-op hooks on this session's pipeline."""
        for one in hooks:
            self._pipeline.add_hook(one)
        return self

    def insert_stage(
        self,
        stage: ReplayStage,
        before: Optional[str] = None,
        after: Optional[str] = None,
    ) -> "ReplaySession":
        """Insert a custom stage relative to a named one."""
        if (before is None) == (after is None):
            raise ValueError("pass exactly one of before= / after=")
        if before is not None:
            self._pipeline.insert_before(before, stage)
        else:
            self._pipeline.insert_after(after, stage)
        return self

    def replace_stage(self, name: str, stage: ReplayStage) -> "ReplaySession":
        """Swap the named stage for a custom implementation."""
        self._pipeline.replace(name, stage)
        return self

    def without_stage(self, *names: str) -> "ReplaySession":
        """Drop the named stages.

        A pipeline without the measure stage produces no result — execute
        it with :meth:`run_context` (a dry build) rather than :meth:`run`.
        """
        self._pipeline.skip(*names)
        return self

    @property
    def pipeline(self) -> ReplayPipeline:
        """This session's private pipeline (for advanced composition)."""
        return self._pipeline

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build_context(self) -> ReplayContext:
        """The context :meth:`run` would thread through the pipeline.

        A path source is loaded here (first call), not at construction.
        """
        if self._trace is None:
            self._trace = ExecutionTrace.load(self._trace_path)
        return ReplayContext(
            trace=self._trace,
            profiler_trace=self._profiler_trace,
            config=self._config,
            support=self._support,
            runtime=self._runtime,
        )

    def run(self) -> ReplayResult:
        """Execute the pipeline and return the full measurement."""
        context = self.build_context()
        result = self._pipeline.run(context)
        if self._profile_hook is not None:
            result.profile_report = self._profile_hook.report(
                trace_name=str(context.trace.metadata.get("workload", "")),
                device=self._config.device,
                vectorized=getattr(self._config, "vectorized", True),
            )
        if self._tracer is not None and self._tracer.enabled:
            from repro.telemetry import record_replay_timeline

            record_replay_timeline(
                self._tracer, result, rank=int(self._config.rank or 0)
            )
        self._last_result = result
        return result

    def analyze(self, top: int = 5) -> Any:
        """Critical-path attribution of the last :meth:`run`.

        Returns a :class:`~repro.insights.CriticalPathReport` ranking
        the ops and collectives behind the measured iteration time,
        with the comm/compute overlap score.
        """
        if self._last_result is None:
            raise RuntimeError("nothing to analyze — call .run() first")
        from repro.insights import analyze_replay_result

        return analyze_replay_result(
            self._last_result,
            rank=int(self._config.rank or 0),
            device=self._config.device,
            top=top,
        )

    def run_context(self) -> ReplayContext:
        """Execute the pipeline and return the threaded context.

        Unlike :meth:`run`, no final result is demanded — the entry point
        for partial pipelines (e.g. ``.without_stage("measure")`` dry
        builds, or build-phase-only inspection).
        """
        return self._pipeline.run_context(self.build_context())

    def summarize(self) -> ReplayResultSummary:
        """Execute and return only the compact, cacheable summary."""
        return self.run().summarize()


def _resolve_source(source: ReplaySource):
    """Normalise a non-path replay source to (trace, profiler trace or
    None, device hint or None).  Paths never reach here — the session
    stores them and loads lazily in :meth:`ReplaySession.build_context`."""
    if isinstance(source, ExecutionTrace):
        return source, None, None
    # A bench-harness CaptureResult carries the trace, the profiler trace
    # and the capture device; duck-typed so api does not force the import.
    trace = getattr(source, "execution_trace", None)
    if isinstance(trace, ExecutionTrace):
        return (
            trace,
            getattr(source, "profiler_trace", None),
            getattr(source, "device", None),
        )
    raise TypeError(
        "repro.api.replay() expects an ExecutionTrace, a CaptureResult, or a "
        f"path to a serialised trace; got {type(source).__name__}"
    )
