"""``repro.api`` — the stable, composable public facade.

Everything a consumer of this package needs for the paper's capture →
replay → compare workflow (and the batch/sweep workflows on top of it) is
reachable from here, without touching core internals:

Replay a trace fluently::

    import repro.api as api

    result = (
        api.replay(trace)                      # ExecutionTrace, CaptureResult, or path
        .on("A100")                            # target device
        .select(categories=("aten",))          # operator filter
        .iterations(5, warmup=1)               # measurement plan
        .hook(api.ProgressHook())              # observe stages / ops
        .run()                                 # -> ReplayResult
    )

Capture and compare a workload::

    capture = api.capture(workload, device="A100")
    replay = api.replay(capture).iterations(3).run()
    row = api.compare(workload, device="A100")     # one Table-4 row

Sweep a trace repository::

    sweep = api.sweep("traces/", devices=["A100", "NewPlatform"],
                      axes={"power_limit_w": [None, 250.0]},
                      cache_dir=".repro-cache")

Co-replay a fleet of per-rank traces (multi-rank distributed replay)::

    report = (
        api.replay_cluster("traces/rm_4rank/")    # or a list of captures
        .world(64).on("A100")
        .configure_rank(0, device="V100")         # model a straggler
        .run()                                    # -> ClusterReport
    )

Customisation happens through the stage pipeline: stages
(:class:`SelectStage` … :class:`MeasureStage`) are first-class objects a
session can insert, replace or skip, and :class:`ReplayHook` observers
receive lifecycle events (``on_stage_start/end``, ``on_op_replayed``,
``on_error``).  See ``docs/api.md`` for the full protocol.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.api.hooks import (
    ErrorCollectorHook,
    MemoryHook,
    MetricsTapHook,
    OpTraceHook,
    ProgressHook,
)
from repro.api.cluster import ClusterSession, FleetSource
from repro.api.session import ReplaySession, ReplaySource
from repro.cluster.engine import ClusterReplayer, ClusterReport, RankReport
from repro.bench.harness import (
    CaptureResult,
    ComparisonResult,
    capture_workload,
    compare_workload,
)
from repro.core.pipeline import (
    AssignStreamsStage,
    ExecuteStage,
    InitCommsStage,
    MaterializeTensorsStage,
    MeasureStage,
    ReconstructStage,
    ReplayContext,
    ReplayHook,
    ReplayPipeline,
    ReplayPipelineError,
    ReplayStage,
    SelectStage,
    TrackMemoryStage,
)
from repro.memory import (
    MemoryReport,
    OOMEvent,
    SimulatedOOMError,
    check_device_fit,
    format_memory_report,
    simulate_memory,
)
from repro.core.registry import ReplaySupport
from repro.core.replayer import ReplayConfig, ReplayResult, ReplayResultSummary
from repro.insights import (
    CriticalPathReport,
    DiffReport,
    RunProfile,
    analyze_critical_path,
    analyze_replay_result,
    diff_runs,
)
from repro.profiling import ProfileHook, ProfileReport
from repro.telemetry import (
    MetricsRegistry,
    Span,
    TelemetryHook,
    Tracer,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.service.cache import ResultCache
from repro.service.repository import TraceRepository
from repro.service.sweep import SweepResult, SweepRunner, SweepSpec
from repro.torchsim.profiler import ProfilerTrace
from repro.torchsim.runtime import Runtime
from repro.workloads.base import Workload


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def replay(
    source: ReplaySource,
    profiler_trace: Optional[ProfilerTrace] = None,
    config: Optional[ReplayConfig] = None,
    support: Optional[ReplaySupport] = None,
    pipeline: Optional[ReplayPipeline] = None,
) -> ReplaySession:
    """Start a fluent replay session for a trace, capture, or trace path.

    Nothing executes until ``.run()`` / ``.summarize()`` on the returned
    :class:`ReplaySession`.  When ``source`` is a
    :class:`~repro.bench.harness.CaptureResult`, its profiler trace and
    capture device seed the session automatically.
    """
    return ReplaySession(
        source,
        profiler_trace=profiler_trace,
        config=config,
        support=support,
        pipeline=pipeline,
    )


def replay_cluster(
    fleet: FleetSource,
    config: Optional[ReplayConfig] = None,
    support: Optional[ReplaySupport] = None,
) -> ClusterSession:
    """Start a fluent multi-rank co-replay session for a trace fleet.

    ``fleet`` is a directory of serialised per-rank traces, or a sequence
    of traces / paths / ``RankCapture`` objects (one per rank, captured
    from the same iteration so collectives match across ranks).  Nothing
    executes until ``.run()`` on the returned :class:`ClusterSession`::

        report = api.replay_cluster(captures).world(64).on("A100").run()
        critical_path = report.critical_path_us
        exposed = report.mean_exposed_comm_us
    """
    return ClusterSession(fleet, config=config, support=support)


def capture(
    workload: Workload,
    device: str = "A100",
    warmup_iterations: int = 1,
    power_limit_w: Optional[float] = None,
    runtime: Optional[Runtime] = None,
) -> CaptureResult:
    """Capture one instrumented iteration of ``workload`` (Section 4.1).

    The returned capture feeds straight into :func:`replay`.
    """
    return capture_workload(
        workload,
        device=device,
        warmup_iterations=warmup_iterations,
        power_limit_w=power_limit_w,
        runtime=runtime,
    )


def compare(
    workload: Workload,
    device: str = "A100",
    replay_iterations: int = 1,
    power_limit_w: Optional[float] = None,
    support: Optional[ReplaySupport] = None,
    config: Optional[ReplayConfig] = None,
    capture_result: Optional[CaptureResult] = None,
) -> ComparisonResult:
    """Capture, replay and compare ``workload`` — one Table-4 row."""
    return compare_workload(
        workload,
        device=device,
        replay_iterations=replay_iterations,
        power_limit_w=power_limit_w,
        support=support,
        config=config,
        capture=capture_result,
    )


def sweep(
    repo: Union[str, Path, TraceRepository],
    traces: Optional[Sequence[str]] = None,
    devices: Sequence[str] = ("A100",),
    axes: Optional[Dict[str, Sequence[Any]]] = None,
    base: Optional[ReplayConfig] = None,
    spec: Optional[SweepSpec] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    workers: Optional[int] = None,
    backend: str = "thread",
) -> SweepResult:
    """Replay a trace repository across devices and config axes, cached.

    Either pass a ready :class:`SweepSpec` via ``spec=`` or let the
    keyword arguments build one.  Every replay runs through the stage
    pipeline inside a :class:`~repro.service.batch.BatchReplayer` worker
    pool, consulting (and filling) the result cache when ``cache_dir`` is
    given.
    """
    repository = repo if isinstance(repo, TraceRepository) else TraceRepository(repo)
    if spec is not None:
        overrides = {
            "traces": traces is not None,
            "devices": tuple(devices) != ("A100",),
            "axes": bool(axes),
            "base": base is not None,
        }
        clashing = sorted(name for name, given in overrides.items() if given)
        if clashing:
            raise ValueError(
                f"pass either spec= or the spec-building arguments {clashing}, not both "
                "(a ready spec is used as-is; the keyword values would be silently lost)"
            )
    if spec is None:
        spec = SweepSpec(
            traces=list(traces) if traces is not None else None,
            devices=list(devices),
            axes=dict(axes or {}),
            base=base if base is not None else ReplayConfig(),
        )
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    runner = SweepRunner(repository, cache=cache, max_workers=workers, backend=backend)
    return runner.run(spec)


__all__ = [
    # entry points
    "replay",
    "replay_cluster",
    "capture",
    "compare",
    "sweep",
    # cluster replay
    "ClusterSession",
    "ClusterReplayer",
    "ClusterReport",
    "RankReport",
    # session / pipeline protocol
    "ReplaySession",
    "ReplayPipeline",
    "ReplayPipelineError",
    "ReplayContext",
    "ReplayStage",
    "ReplayHook",
    "SelectStage",
    "ReconstructStage",
    "MaterializeTensorsStage",
    "AssignStreamsStage",
    "InitCommsStage",
    "ExecuteStage",
    "MeasureStage",
    "TrackMemoryStage",
    # memory simulation
    "MemoryReport",
    "OOMEvent",
    "SimulatedOOMError",
    "simulate_memory",
    "check_device_fit",
    "format_memory_report",
    # ready-made hooks
    "ProgressHook",
    "OpTraceHook",
    "MetricsTapHook",
    "ErrorCollectorHook",
    "MemoryHook",
    # replay-engine profiling
    "ProfileHook",
    "ProfileReport",
    # telemetry (tracing / metrics / timeline export)
    "Tracer",
    "Span",
    "TelemetryHook",
    "MetricsRegistry",
    "to_chrome_trace",
    "write_chrome_trace",
    # insights (critical path / diff / regression analyses)
    "CriticalPathReport",
    "DiffReport",
    "RunProfile",
    "analyze_critical_path",
    "analyze_replay_result",
    "diff_runs",
    # configuration / results
    "ReplayConfig",
    "ReplayResult",
    "ReplayResultSummary",
    "ReplaySupport",
    "CaptureResult",
    "ComparisonResult",
    "SweepSpec",
    "SweepResult",
]
