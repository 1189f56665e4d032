"""``daemon-sweep``: an open loop of independent tenants submitting sweeps.

One generator thread submits sweep jobs over HTTP (``DaemonClient.submit``)
on a fixed schedule, rotating a few client ids, to an in-process
``ReplayDaemon(workers=2)`` behind a ``DaemonServer``.  Each job is the
three bench traces x A100 x one ``power_limit_w`` drawn from a seeded
finite pool: repeated points are result-cache hits (reads), new ones are
fresh replays that write cache entries and job records.  The offered rate
is about half the daemon's capacity on a 2-core host.  Throughput is
reported per second of worker busy time (the daemon's own
``repro_job_duration_seconds`` histogram), so it follows the daemon's
speed rather than the offered rate.

A second thread observes completion in-process through
``ReplayDaemon.wait`` (a condition variable, not the 200 ms HTTP poll of
``DaemonClient.wait``).  Each job is timed from the moment it was *due*,
so a stalled generator shows up as latency; a failed or refused job counts
as missing the latency limit.  Daemon state lives in a temporary
directory inside ``.perfbench-out/`` and is removed afterwards.

The traced run alternates the daemon's own tracer (and the benchmark's
spans) on and off between jobs, switching only while the daemon is idle,
so ``telemetry.trace_overhead_pct`` compares fully traced jobs with fully
untraced ones.
"""

from __future__ import annotations

import queue
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

import repro.api as api
from repro.bench.throughput import BENCH_WORKLOADS, capture_bench_workload
from repro.daemon.client import DaemonClient, DaemonClientError
from repro.daemon.daemon import ReplayDaemon
from repro.daemon.executor import expand_sweep_points
from repro.daemon.server import DaemonServer
from repro.et.trace import ExecutionTrace
from repro.service.repository import TraceRepository
from repro.telemetry import Tracer

from common import (
    Outcome,
    digest,
    median,
    overhead_pct,
    peak_rss_mb,
    percentile,
    write_trace,
)

#: Offered load in jobs per second: about half of saturation, which is
#: near 16 jobs/s with this mix on a 2-core Xeon host.
RATE = 8.0
CLIENTS = 4
WORKERS = 2
#: Size of the seeded pool of power limits each job draws from.  This is
#: an assumption, not measured tenant behaviour: teams revisiting a small
#: set of power caps.  Drawn uniformly over a 15 s run (120 jobs), about
#: 30% of the jobs bring a limit not seen before (fresh replays) and the
#: rest are cache hits.  All three points of a job share its power
#: limit, so a job is all hits or all fresh.
POOL_SIZE = 36
#: A failed or refused job is counted at no less than this latency.
LATENCY_LIMIT_MS = 2000.0
#: Set-up is done this many times and the median round is reported.
SETUP_ROUNDS = 5
TERMINAL = ("completed", "failed", "cancelled")
#: How long the observer blocks in ``ReplayDaemon.wait`` before it checks
#: the other outstanding jobs (bounds the completion-time error).
OBSERVE_SLICE_S = 0.002
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Job:
    """One sweep job of the open loop and the times the benchmark saw."""

    index: int
    client: str
    power_limit_w: float
    due: float = 0.0
    sent: float = 0.0
    replied: float = 0.0
    observed: float = 0.0
    #: In the traced run, whether the job ran with the daemon's tracer on
    #: and the benchmark's spans around it.  The plan asks for every other
    #: fresh job and every other repeat job, so both sides of
    #: ``telemetry.trace_overhead_pct`` get the same mix; a job inherits
    #: the previous state when the daemon is busy at its submission.
    traced: bool = False
    job_id: Optional[str] = None
    state: str = "refused"
    result: Optional[dict] = None


class Service:
    """One daemon + HTTP server over a fresh trace repository."""

    def __init__(self, root: Path) -> None:
        self.repo_dir = root / "traces"
        repository = TraceRepository(self.repo_dir)
        for name in BENCH_WORKLOADS:
            repository.add(name, capture_bench_workload(name)[0])
        self.daemon = ReplayDaemon(root / "state", workers=WORKERS)
        self.server = DaemonServer(self.daemon, port=0)
        self.server.start()

    def payload(self, power_limit_w: float) -> dict:
        return {
            "repo": str(self.repo_dir),
            "traces": None,
            "devices": ["A100"],
            "axes": {"power_limit_w": [power_limit_w]},
            "base": {"iterations": 1},
        }

    def stop(self) -> None:
        self.server.stop()


def plan_jobs(seed: int, seconds: float) -> List[Job]:
    """The run's jobs; each draws its power limit from a seeded pool of
    ``POOL_SIZE`` distinct values (150-399 W)."""
    rng = random.Random(seed)
    pool = [float(watts) for watts in rng.sample(range(150, 400), k=POOL_SIZE)]
    seen = set()
    counts = {True: 0, False: 0}
    jobs = []
    for index in range(max(1, int(seconds * RATE))):
        power = rng.choice(pool)
        fresh = power not in seen
        seen.add(power)
        counts[fresh] += 1
        traced = counts[fresh] % 2 == 0
        jobs.append(Job(index, f"tenant-{index % CLIENTS}", power, traced=traced))
    return jobs


def _set_tracing(daemon: ReplayDaemon, job: Job, pending: List[str]) -> None:
    """Switch the daemon's tracer to the job's planned state if no earlier
    job is still queued or running, so no job runs partly traced; then
    record the state the job really runs under."""
    pending[:] = [job_id for job_id in pending if daemon.get(job_id).state not in TERMINAL]
    if not pending:
        daemon.tracer.enabled = job.traced
    job.traced = daemon.tracer.enabled


def _observe(
    daemon: ReplayDaemon, submitted: "queue.Queue", jobs_total: int, bench: Optional[Tracer]
) -> None:
    """Record when each submitted job reaches a terminal state (and, for a
    traced job, its wait span on the benchmark's tracer)."""
    outstanding: List[Job] = []
    seen = 0
    deadline = None
    while seen < jobs_total or outstanding:
        try:
            job = submitted.get(timeout=0.05) if not outstanding else submitted.get_nowait()
        except queue.Empty:
            job = None
        if job is not None:
            seen += 1
            if job.job_id is not None:
                outstanding.append(job)
            continue
        if not outstanding:
            continue
        if seen == jobs_total and deadline is None:
            deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        try:
            daemon.wait(outstanding[0].job_id, timeout=OBSERVE_SLICE_S, until=TERMINAL)
        except TimeoutError:
            pass
        now = time.perf_counter()
        for job in list(outstanding):
            record = daemon.get(job.job_id)
            if record.state in TERMINAL:
                job.observed, job.state, job.result = now, record.state, record.result
                outstanding.remove(job)
                if bench is not None and job.traced:
                    bench.record(
                        "ReplayDaemon.wait", "bench", wall_start_s=job.replied,
                        wall_end_s=now, correlation={"job_id": job.job_id},
                    )
        if deadline is not None and now > deadline:
            for job in outstanding:
                job.observed, job.state = now, "timed-out"
            return


def _references(service: Service, powers) -> Dict[tuple, str]:
    """Scalar-loop output digest of every (trace, point label) in the pool."""
    references = {}
    for power in powers:
        for point in expand_sweep_points(service.payload(power)):
            config = replace(point.config, vectorized=False)
            summary = api.replay(ExecutionTrace.load(point.trace_path), config=config).summarize()
            references[(point.trace_name, point.label)] = digest(summary.to_dict())
    return references


def run(seed: int, seconds: float, traced: bool, out_dir) -> Outcome:
    out_dir.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="daemon-", dir=out_dir))
    service: Optional[Service] = None
    try:
        # Set up several times and report the median round, the time of one
        # set-up; only the last service is kept.
        times = []
        for index in range(SETUP_ROUNDS):
            if service is not None:
                service.stop()
            start = time.perf_counter()
            service = Service(root / f"round{index}")
            times.append(time.perf_counter() - start)
        return _measure(service, seed, seconds, traced, median(times), out_dir)
    finally:
        if service is not None:
            service.stop()
        shutil.rmtree(root, ignore_errors=True)


def _measure(service: Service, seed, seconds, traced, setup_s, out_dir) -> Outcome:
    daemon = service.daemon
    jobs = plan_jobs(seed, seconds)
    clients = {job.client: DaemonClient(service.server.url, client_id=job.client) for job in jobs}
    bench = Tracer() if traced else None
    submitted: "queue.Queue[Job]" = queue.Queue()
    observer = threading.Thread(
        target=_observe, args=(daemon, submitted, len(jobs), bench), name="perfbench-observer"
    )
    observer.start()
    depth_max = 0
    pending: List[str] = []
    start = time.perf_counter()
    try:
        for job in jobs:
            job.due = start + job.index / RATE
            delay = job.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if traced:
                _set_tracing(daemon, job, pending)
            job.sent = time.perf_counter()
            span = bench.begin("DaemonClient.submit", "bench") if bench and job.traced else None
            try:
                reply = clients[job.client].submit("sweep", service.payload(job.power_limit_w))
                job.job_id = reply["id"]
                pending.append(job.job_id)
            except DaemonClientError:
                job.observed = time.perf_counter()
            job.replied = time.perf_counter()
            if span is not None:
                span.correlation["job_id"] = job.job_id
                bench.end(span)
            depth_max = max(depth_max, len(daemon.queue))
            submitted.put(job)
    finally:
        observer.join(timeout=DRAIN_TIMEOUT_S + 5.0)

    powers = sorted({job.power_limit_w for job in jobs})
    references = _references(service, powers)
    failed = 0
    latencies: Dict[int, float] = {}
    points = cached = 0
    for job in jobs:
        latency_ms = (job.observed - job.due) * 1e3
        ok = job.state == "completed" and all(
            digest(row["summary"]) == references[(row["trace"], row["label"])]
            for row in job.result["points"]
        )
        if ok:
            points += job.result["total"]
            cached += job.result["cached"]
        else:
            failed += 1
            latency_ms = max(latency_ms, LATENCY_LIMIT_MS)
        latencies[job.index] = latency_ms
    busy_s = daemon.metrics.histogram("repro_job_duration_seconds").snapshot()["sum"]
    late_ms = [(job.sent - job.due) * 1e3 for job in jobs]
    notes = [
        ("output_digest", digest(sorted(references.items())), "sha256"),
        ("jobs", len(jobs), "count"),
        ("offered_rate", RATE, "jobs/s"),
        ("failed_frac", failed / len(jobs), "ratio"),
        ("distinct_power_limits", len(powers), "count"),
    ]

    if not traced:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "latency_ms_p50": median(list(latencies.values())),
            "latency_ms_p90": percentile(list(latencies.values()), 90),
            "throughput_per_s": points / busy_s,
        }
        notes.append(("loadgen.late_ms_p90", percentile(late_ms, 90), "ms"))
        return Outcome(len(jobs), failed, metrics, notes)

    # Split each traced job's latency: generator lateness, HTTP submit,
    # queue wait, the daemon's job span, and finishing (store + notify).
    # Only traced jobs have a job span.
    job_spans = {
        span.correlation.get("job_id"): span
        for span in daemon.tracer.spans
        if span.name == "job:sweep"
    }
    point_ms = [
        span.wall_duration_s * 1e3
        for span in daemon.tracer.spans
        if span.name.startswith("point:")
    ]
    # The parts are taken between contiguous timestamps, so with the
    # generator's lateness they add up to the job's latency exactly.
    parts = {"submit": [], "queue_wait": [], "run": [], "finish": []}
    for job in jobs:
        span = job_spans.get(job.job_id)
        if span is None:
            continue
        split = {
            "submit": job.replied - job.sent,
            "queue_wait": span.wall_start_s - job.replied,
            "run": span.wall_duration_s,
            "finish": job.observed - span.wall_end_s,
        }
        for name, value in split.items():
            parts[name].append(value * 1e3)
    notes.append(("traced_jobs", sum(job.traced for job in jobs), "count"))
    traced_lat = [latencies[job.index] for job in jobs if job.traced]
    untraced_lat = [latencies[job.index] for job in jobs if not job.traced]
    metrics = {
        "daemon.submit_ms_p50": median(parts["submit"]),
        "daemon.queue_wait_ms_p50": median(parts["queue_wait"]),
        "daemon.queue_wait_ms_p90": percentile(parts["queue_wait"], 90),
        "daemon.run_ms_p50": median(parts["run"]),
        "daemon.point_ms_p50": median(point_ms),
        "daemon.finish_ms_p50": median(parts["finish"]),
        "daemon.queue_depth_max": depth_max,
        "service.cache_hit_ratio": cached / points if points else 0.0,
        "service.points_total": points,
        "loadgen.late_ms_p90": percentile(late_ms, 90),
        "telemetry.trace_overhead_pct": overhead_pct(untraced_lat, traced_lat),
    }
    write_trace(bench, out_dir / f"daemon-sweep-seed{seed}-bench.json", {"workload": "daemon-sweep", "seed": seed})
    write_trace(daemon.tracer, out_dir / f"daemon-sweep-seed{seed}-daemon.json", {"workload": "daemon-sweep", "seed": seed})
    return Outcome(len(jobs), failed, metrics, notes)
