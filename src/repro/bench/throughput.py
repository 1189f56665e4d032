"""Replay-engine throughput benchmark — the BENCH trajectory file.

Everything else under :mod:`repro.bench` measures the *simulated workload*;
this module measures the *replay engine itself*: how many recorded
operators per second the execute stage replays on the host, for the scalar
reference loop versus the vectorized executor
(:mod:`repro.core.vectorize`), plus the :class:`~repro.profiling.ProfileHook`
per-op overhead.  ``make bench`` (or ``make bench-fast``) writes the result
to ``BENCH_replay_throughput.json`` at the repository root so the numbers
form a trajectory across commits; the schema is versioned and asserted by
``benchmarks/test_bench_trajectory.py``.

Measurement notes:

* Throughput is measured around ``ExecuteStage.replay_once`` only — the
  build stages run once up front, then the loop replays the same selection
  repeatedly (the virtual clock just keeps advancing).  Two unmeasured
  warm-up passes let the vectorized executor capture and verify its op
  programs first, so the measured window reflects the steady state.
* The headline scalar/vectorized numbers both run with
  ``ReplayConfig(profile=False)``: the virtual profiler's ``TraceEvent``
  construction dominates the fast path and would understate the speedup of
  the pricing itself.  Equivalence (``tests/test_vectorized_equivalence.py``)
  is asserted for both profile settings.
* Profiler overhead compares the scalar loop with and without a
  :class:`~repro.profiling.ProfileHook` attached — the hook rides the
  ``notify = bool(context.hooks)`` branch, so the unhooked loop is the true
  zero-overhead baseline.
* All wall time comes from ``time.perf_counter()``
  (``scripts/check_deprecated_usage.py`` bans ``time.time`` here).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import (
    ExecuteStage,
    InitCommsStage,
    ReplayContext,
    ReplayHook,
    ReplayPipeline,
)
from repro.core.replayer import ReplayConfig
from repro.et.trace import ExecutionTrace
from repro.torchsim.profiler import ProfilerTrace

#: Bump when the serialized benchmark shape changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: Trajectory file name, written at the repository root.
BENCH_FILENAME = "BENCH_replay_throughput.json"

#: BENCH-file section recording the event scheduler's fleet throughput.
CLUSTER_SCALE_SECTION = "cluster_scale"

#: BENCH-file section recording the daemon's sustained jobs/sec.
DAEMON_THROUGHPUT_SECTION = "daemon_throughput"

#: Interleaved-chunk overhead measurements jitter by roughly this much
#: (percent) on a quiet host.  Raw ratios inside ±this band are noise:
#: reported overheads are clamped at 0 so the regression watchdog never
#: adopts measurement jitter as a "telemetry is free" baseline, and the
#: raw value is kept alongside for provenance.
OVERHEAD_NOISE_FLOOR_PCT = 0.5

#: Sections owned by benchmarks other than the main throughput run;
#: :func:`write_report` carries them forward so whichever benchmark writes
#: second never clobbers the others' sections.
PRESERVED_SECTIONS = (CLUSTER_SCALE_SECTION, DAEMON_THROUGHPUT_SECTION)

#: Benchmarked workloads, in report order.
BENCH_WORKLOADS = ("param_linear", "rm", "ddp_rm")

#: The workload the ISSUE's >=10x speedup target is asserted on.
HEADLINE_WORKLOAD = "rm"


def _repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


# ----------------------------------------------------------------------
# Workload captures (moderate configs: enough operators for a stable
# measurement, small enough that the whole benchmark stays in seconds)
# ----------------------------------------------------------------------
def _rm_config():
    from repro.workloads.rm import RMConfig

    return RMConfig(
        batch_size=128,
        num_tables=16,
        rows_per_table=2000,
        embedding_dim=32,
        pooling_factor=8,
        bottom_mlp=(64, 32, 32),
        top_mlp=(128, 64),
    )


def capture_bench_workload(
    name: str, device: str = "A100"
) -> Tuple[ExecutionTrace, Optional[ProfilerTrace]]:
    """One captured iteration of the named benchmark workload."""
    from repro.bench.harness import capture_workload

    if name == "param_linear":
        from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload

        workload = ParamLinearWorkload(
            ParamLinearConfig(batch_size=64, num_layers=8, hidden_size=128, input_size=128)
        )
    elif name == "rm":
        from repro.workloads.rm import RMWorkload

        workload = RMWorkload(_rm_config())
    elif name == "ddp_rm":
        from repro.workloads.ddp import DistributedRunner
        from repro.workloads.rm import RMWorkload

        runner = DistributedRunner(
            lambda rank, world_size: RMWorkload(
                _rm_config(), rank=rank, world_size=world_size
            ),
            world_size=2,
            device=device,
        )
        capture = runner.run_rank(0)
        return capture.execution_trace, capture.profiler_trace
    else:
        raise ValueError(f"unknown bench workload {name!r} (known: {BENCH_WORKLOADS})")
    capture = capture_workload(workload, device=device, warmup_iterations=1)
    return capture.execution_trace, capture.profiler_trace


# ----------------------------------------------------------------------
# The execute-loop throughput measurement
# ----------------------------------------------------------------------
def measure_execute_throughput(
    trace: ExecutionTrace,
    profiler_trace: Optional[ProfilerTrace] = None,
    device: str = "A100",
    vectorized: bool = True,
    hooks: Optional[Sequence[Any]] = None,
    min_seconds: float = 0.2,
    warmup_passes: int = 2,
) -> Dict[str, float]:
    """Replay ``trace``'s execute loop repeatedly and time it.

    Returns ``{"ops": <per-pass replayed ops>, "passes": <measured passes>,
    "elapsed_s": ..., "ops_per_sec": ...}``.  The loop keeps replaying
    whole passes until ``min_seconds`` of wall time accumulate, and
    ``ops_per_sec`` comes from the *fastest* pass: external host load can
    only ever slow a pass down, so the minimum is the most accurate sample
    and keeps the speedup assertions stable on noisy machines (same
    rationale as :func:`measure_hook_overhead`).
    """
    config = ReplayConfig(device=device, vectorized=vectorized, profile=False)
    context = ReplayContext(
        trace=trace,
        profiler_trace=profiler_trace,
        config=config,
        hooks=list(hooks or ()),
    )
    ReplayPipeline.build_only().run_context(context)
    InitCommsStage().run(context)
    runtime = context.runtime
    stage = ExecuteStage()

    ops = 0
    for _ in range(max(1, warmup_passes)):
        ops, _skipped = stage.replay_once(context, runtime)
    if ops <= 0:
        raise ValueError("trace has no supported operators to benchmark")

    passes = 0
    elapsed = 0.0
    best_pass_s = float("inf")
    clock = time.perf_counter
    while elapsed < min_seconds:
        start = clock()
        stage.replay_once(context, runtime)
        pass_s = clock() - start
        elapsed += pass_s
        passes += 1
        if pass_s < best_pass_s:
            best_pass_s = pass_s
    return {
        "ops": float(ops),
        "passes": float(passes),
        "elapsed_s": elapsed,
        "ops_per_sec": ops / best_pass_s,
    }


def measure_hook_overhead(
    trace: ExecutionTrace,
    hook: ReplayHook,
    ops_key: str,
    profiler_trace: Optional[ProfilerTrace] = None,
    device: str = "A100",
    min_seconds: float = 0.2,
) -> Dict[str, float]:
    """Per-op cost of an attached replay ``hook``.

    Measured on the scalar loop (hooks ride the per-op ``notify`` branch
    there); the unhooked loop is the zero-overhead baseline.  The two loops
    run *interleaved* (alternating which goes first, GC off) in several
    chunks; each chunk yields a hooked/baseline total-time ratio and the
    reported overhead is the *minimum* chunk ratio.  External load only
    ever inflates a ratio — the hook cannot make a pass faster — so the
    cleanest chunk is the most accurate estimate, which keeps this number
    assertable (<5%) on noisy CI machines.  The hooked loop's throughput
    is reported under ``ops_key``.
    """
    import gc

    def build_context(hooks: Sequence[Any]) -> ReplayContext:
        config = ReplayConfig(device=device, vectorized=False, profile=False)
        context = ReplayContext(
            trace=trace,
            profiler_trace=profiler_trace,
            config=config,
            hooks=list(hooks),
        )
        ReplayPipeline.build_only().run_context(context)
        InitCommsStage().run(context)
        return context

    stage = ExecuteStage()
    baseline_ctx = build_context(())
    hooked_ctx = build_context((hook,))
    ops = 0
    for context in (baseline_ctx, hooked_ctx):
        ops, _skipped = stage.replay_once(context, context.runtime)
    if ops <= 0:
        raise ValueError("trace has no supported operators to benchmark")

    clock = time.perf_counter
    chunks = 3
    chunk_seconds = max(min_seconds, 0.05)
    best_ratio = float("inf")
    best_baseline_s = float("inf")
    best_hooked_s = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _chunk in range(chunks):
            baseline_total = 0.0
            hooked_total = 0.0
            baseline_first = True
            while baseline_total + hooked_total < chunk_seconds:
                first, second = (
                    (baseline_ctx, hooked_ctx)
                    if baseline_first
                    else (hooked_ctx, baseline_ctx)
                )
                start = clock()
                stage.replay_once(first, first.runtime)
                mid = clock()
                stage.replay_once(second, second.runtime)
                end = clock()
                baseline_s, hooked_s = (
                    (mid - start, end - mid)
                    if baseline_first
                    else (end - mid, mid - start)
                )
                baseline_total += baseline_s
                hooked_total += hooked_s
                best_baseline_s = min(best_baseline_s, baseline_s)
                best_hooked_s = min(best_hooked_s, hooked_s)
                baseline_first = not baseline_first
            best_ratio = min(best_ratio, hooked_total / baseline_total)
    finally:
        if gc_was_enabled:
            gc.enable()
    raw_pct = (best_ratio - 1.0) * 100.0
    return {
        "baseline_ops_per_sec": ops / best_baseline_s,
        ops_key: ops / best_hooked_s,
        "overhead_pct": max(0.0, raw_pct),
        "overhead_raw_pct": raw_pct,
        "noise_floor_pct": OVERHEAD_NOISE_FLOOR_PCT,
    }


# ----------------------------------------------------------------------
# The full benchmark
# ----------------------------------------------------------------------
def run_benchmark(
    device: str = "A100",
    workloads: Sequence[str] = BENCH_WORKLOADS,
    min_seconds: float = 0.2,
) -> Dict[str, Any]:
    """Scalar vs vectorized replay throughput for every bench workload,
    plus the profiler- and telemetry-overhead sections; the BENCH file's
    payload."""
    report: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_by": "repro.bench.throughput",
        "device": device,
        "workloads": {},
    }
    rm_capture: Optional[Tuple[ExecutionTrace, Optional[ProfilerTrace]]] = None
    for name in workloads:
        trace, profiler_trace = capture_bench_workload(name, device=device)
        if name == HEADLINE_WORKLOAD:
            rm_capture = (trace, profiler_trace)
        scalar = measure_execute_throughput(
            trace, profiler_trace, device=device, vectorized=False,
            min_seconds=min_seconds,
        )
        vectorized = measure_execute_throughput(
            trace, profiler_trace, device=device, vectorized=True,
            min_seconds=min_seconds,
        )
        report["workloads"][name] = {
            "ops": int(scalar["ops"]),
            "scalar_ops_per_sec": scalar["ops_per_sec"],
            "vectorized_ops_per_sec": vectorized["ops_per_sec"],
            "speedup": vectorized["ops_per_sec"] / scalar["ops_per_sec"],
        }
    if rm_capture is not None:
        from repro.profiling import ProfileHook
        from repro.telemetry import TelemetryHook, Tracer

        # The telemetry hook is bound to an *enabled* tracer: the worst
        # case the <5% budget covers (a disabled tracer's hook bails early).
        for section, hook, ops_key in (
            ("profiler", ProfileHook(), "profiled_ops_per_sec"),
            ("telemetry_overhead", TelemetryHook(Tracer()), "telemetry_ops_per_sec"),
        ):
            report[section] = measure_hook_overhead(
                rm_capture[0], hook, ops_key, rm_capture[1],
                device=device, min_seconds=min_seconds,
            )
    return report


def write_report(report: Dict[str, Any], path: Optional[Path] = None) -> Path:
    """Write the BENCH payload to its trajectory location (repo root).

    The :data:`PRESERVED_SECTIONS` (``cluster_scale``,
    ``daemon_throughput``) are written by different benchmarks than the
    main throughput run, so whichever writes second must not clobber the
    others' sections.
    """
    from repro.service import serialize

    target = Path(path) if path is not None else _repo_root() / BENCH_FILENAME
    missing = [name for name in PRESERVED_SECTIONS if name not in report]
    if missing and target.exists():
        try:
            previous = json.loads(target.read_text())
        except ValueError:
            previous = {}
        carried = {name: previous[name] for name in missing if name in previous}
        if carried:
            report = {**report, **carried}
    target.write_text(serialize.dumps(report) + "\n")
    return target


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a BENCH payload."""
    from repro.bench.reporting import format_table

    rows = [
        [
            name,
            entry["ops"],
            f"{entry['scalar_ops_per_sec']:,.0f}",
            f"{entry['vectorized_ops_per_sec']:,.0f}",
            f"{entry['speedup']:.1f}x",
        ]
        for name, entry in report["workloads"].items()
    ]
    text = format_table(
        ["workload", "ops", "scalar ops/s", "vectorized ops/s", "speedup"],
        rows,
        title=f"Replay-engine throughput on {report['device']}",
    )
    profiler = report.get("profiler")
    if profiler:
        text += (
            f"\nprofiler overhead: {profiler['overhead_pct']:.1f}% "
            f"({profiler['baseline_ops_per_sec']:,.0f} -> "
            f"{profiler['profiled_ops_per_sec']:,.0f} ops/s, scalar loop)"
        )
    telemetry = report.get("telemetry_overhead")
    if telemetry:
        text += (
            f"\ntelemetry overhead: {telemetry['overhead_pct']:.1f}% "
            f"({telemetry['baseline_ops_per_sec']:,.0f} -> "
            f"{telemetry['telemetry_ops_per_sec']:,.0f} ops/s, scalar loop)"
        )
    return text


# ----------------------------------------------------------------------
# Event-scheduler fleet throughput (the cluster_scale BENCH section)
# ----------------------------------------------------------------------
def synthesize_fleet(world_size: int, device: str = "A100") -> List[ExecutionTrace]:
    """A what-if fleet at ``world_size`` ranks from ONE captured rank.

    Capturing 1024 real ranks would dwarf the measurement, so the scale
    benchmark captures a single DDP-RM rank-0 trace whose collectives are
    recorded over the full world, then clones it across every rank: node
    lists are shared (replay never mutates them) and only the per-trace
    ``metadata["rank"]`` differs.  Every clone issues the same collective
    sequence, which is exactly what keeps the rendezvous fully matched.
    """
    from repro.workloads.ddp import DistributedRunner
    from repro.workloads.rm import RMConfig, RMWorkload

    # Deliberately tiny: the benchmark measures the *scheduler* across
    # many ranks, not the per-op pricing (BENCH_WORKLOADS covers that).
    config = RMConfig(
        batch_size=16,
        num_tables=4,
        rows_per_table=512,
        embedding_dim=16,
        pooling_factor=2,
        bottom_mlp=(32, 16),
        top_mlp=(32, 16),
    )
    runner = DistributedRunner(
        lambda rank, world: RMWorkload(config, rank=rank, world_size=world),
        world_size=world_size,
        device=device,
    )
    template = runner.run_rank(0).execution_trace
    return [
        ExecutionTrace(nodes=template.nodes, metadata={**template.metadata, "rank": rank})
        for rank in range(world_size)
    ]


def run_cluster_scale_benchmark(
    world_size: int = 1024,
    device: str = "A100",
    topology: Optional[str] = None,
) -> Dict[str, Any]:
    """Replay a synthetic ``world_size``-rank DDP-RM fleet and measure the
    scheduler's fleet throughput in rank-ops/s (total replayed operators
    across every rank, per wall-clock second)."""
    from repro.cluster.engine import ClusterReplayer

    fleet = synthesize_fleet(world_size, device=device)
    replay_config = ReplayConfig(
        device=device,
        iterations=1,
        warmup_iterations=0,
        world_size=world_size,
        topology=topology,
    )
    replayer = ClusterReplayer(replay_config)
    start = time.perf_counter()
    report = replayer.replay(fleet)
    wall_s = time.perf_counter() - start
    total_ops = sum(rank.summary.replayed_ops for rank in report.ranks)
    return {
        "world_size": world_size,
        "engine": "event",
        "topology": topology if topology is not None else "flat",
        "replicas": report.num_replicas,
        "total_replayed_ops": total_ops,
        "wall_s": wall_s,
        "rank_ops_per_sec": total_ops / wall_s if wall_s > 0 else 0.0,
        "matched_collectives": report.matched_collectives,
        "critical_path_us": report.critical_path_us,
    }


def format_cluster_scale(section: Dict[str, Any]) -> str:
    """Human-readable one-liner for the cluster_scale BENCH section."""
    return (
        f"cluster scale: {section['replicas']} ranks ({section['engine']} engine, "
        f"{section['topology']} topology) replayed "
        f"{section['total_replayed_ops']:,} ops in {section['wall_s']:.1f}s "
        f"= {section['rank_ops_per_sec']:,.0f} rank-ops/s; "
        f"critical path {section['critical_path_us']:,.0f}us, "
        f"{section['matched_collectives']} matched collectives"
    )


def merge_section(
    name: str, section: Dict[str, Any], path: Optional[Path] = None
) -> Path:
    """Record one named section into the BENCH trajectory file, preserving
    everything the other benchmarks already wrote."""
    target = Path(path) if path is not None else _repo_root() / BENCH_FILENAME
    report: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_by": "repro.bench.throughput",
    }
    if target.exists():
        try:
            report = json.loads(target.read_text())
        except ValueError:
            pass
    report[name] = section
    return write_report(report, path=target)


def merge_cluster_scale(
    section: Dict[str, Any], path: Optional[Path] = None
) -> Path:
    """Record the cluster_scale section (see :func:`merge_section`)."""
    return merge_section(CLUSTER_SCALE_SECTION, section, path=path)


# ----------------------------------------------------------------------
# Daemon throughput: sustained jobs/sec under concurrent clients
# ----------------------------------------------------------------------
def run_daemon_throughput_benchmark(
    clients: int = 8,
    jobs_per_client: int = 4,
    workers: int = 4,
) -> Dict[str, Any]:
    """Drive a real :class:`~repro.daemon.daemon.ReplayDaemon` (with its
    HTTP front-end) from ``clients`` concurrent client threads and measure
    sustained jobs/sec through the full path: HTTP submit -> fair queue ->
    executor -> replay -> HTTP result.

    Every job is a one-point sweep over the small param_linear bench
    trace with a unique power-limit axis value, so nothing is served from
    cache and each job prices real replay work.
    """
    import shutil
    import tempfile
    import threading

    from repro.daemon.client import DaemonClient
    from repro.daemon.daemon import ReplayDaemon
    from repro.daemon.server import DaemonServer
    from repro.service.repository import TraceRepository

    root = Path(tempfile.mkdtemp(prefix="repro-daemon-bench-"))
    try:
        trace, _ = capture_bench_workload("param_linear")
        repo_dir = root / "traces"
        TraceRepository(repo_dir).add("param_linear", trace)

        daemon = ReplayDaemon(root / "state", workers=workers)
        states: List[str] = []
        states_lock = threading.Lock()
        with DaemonServer(daemon, port=0) as server:

            def drive(index: int) -> None:
                client = DaemonClient(server.url, client_id=f"client-{index}")
                job_ids = []
                for offset in range(jobs_per_client):
                    payload = {
                        "repo": str(repo_dir),
                        "traces": None,
                        "devices": ["A100"],
                        # Unique axis value per job: no cache hits.
                        "axes": {"power_limit_w": [200.0 + 10.0 * index + offset]},
                        "base": {"iterations": 1},
                    }
                    job_ids.append(client.submit("sweep", payload)["id"])
                finals = [client.wait(job_id, timeout=600.0) for job_id in job_ids]
                with states_lock:
                    states.extend(final["state"] for final in finals)

            threads = [
                threading.Thread(target=drive, args=(index,), name=f"bench-client-{index}")
                for index in range(clients)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall_s = time.perf_counter() - start
            cache_entries = daemon.cache.stats()["entries"]
    finally:
        shutil.rmtree(root, ignore_errors=True)

    total = clients * jobs_per_client
    completed = sum(1 for state in states if state == "completed")
    return {
        "clients": clients,
        "jobs_per_client": jobs_per_client,
        "workers": workers,
        "jobs_total": total,
        "jobs_completed": completed,
        "wall_s": wall_s,
        "jobs_per_sec": completed / wall_s if wall_s > 0 else 0.0,
        "cache_entries": cache_entries,
    }


def format_daemon_throughput(section: Dict[str, Any]) -> str:
    """Human-readable one-liner for the daemon_throughput BENCH section."""
    return (
        f"daemon throughput: {section['clients']} clients x "
        f"{section['jobs_per_client']} jobs ({section['workers']} workers) -> "
        f"{section['jobs_completed']}/{section['jobs_total']} completed in "
        f"{section['wall_s']:.1f}s = {section['jobs_per_sec']:.1f} jobs/s"
    )


def merge_daemon_throughput(
    section: Dict[str, Any], path: Optional[Path] = None
) -> Path:
    """Record the daemon_throughput section (see :func:`merge_section`)."""
    return merge_section(DAEMON_THROUGHPUT_SECTION, section, path=path)
