"""Helpers shared by the perfbench workloads: statistics, output digests,
set-up rounds, peak memory, and the benchmark's own stage-span hook."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from repro.core.pipeline import ReplayHook
from repro.telemetry import Tracer, write_chrome_trace

#: Pipeline stages that build the replay before ``execute`` runs; a
#: cluster replica runs ``sync-collectives`` in place of ``init-comms``.
BUILD_STAGES = (
    "select",
    "reconstruct",
    "materialize-tensors",
    "assign-streams",
    "init-comms",
    "sync-collectives",
)

#: Per-layer metric -> the pipeline stages it times (per-replay median).
STAGE_METRICS = {
    "core.select_ms": ("select",),
    "core.reconstruct_ms": ("reconstruct",),
    "core.materialize_ms": ("materialize-tensors",),
    "core.streams_ms": ("assign-streams",),
    "core.init_comms_ms": ("init-comms", "sync-collectives"),
    "core.execute_ms": ("execute",),
    "core.measure_ms": ("measure",),
}


@dataclass
class Outcome:
    """What one workload run reports: its operation counts (an operation
    whose output differs from its scalar-loop reference counts as failed),
    the metrics by name, and extra ``(name, value, unit)`` lines printed
    for people only."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    notes: List[tuple] = field(default_factory=list)


def digest(payload: Any) -> str:
    """sha256 of a JSON payload in canonical form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method; exact for one value)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_rounds(rounds: int, build: Callable[[int], Any]) -> tuple:
    """Run ``build(round_index)`` ``rounds`` times; returns the results and
    the set-up time, ``rounds`` x the median round (robust to one round
    hitting a noisy neighbour)."""
    results, times = [], []
    for index in range(rounds):
        start = time.perf_counter()
        results.append(build(index))
        times.append(time.perf_counter() - start)
    return results, rounds * median(times)


class StageSpanHook(ReplayHook):
    """Records one ``stage:<name>`` span per pipeline stage on the
    benchmark's tracer; the spans inherit the caller's tracer scope."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._open: Dict[str, Any] = {}

    def on_stage_start(self, context, stage) -> None:
        self._open[stage.name] = self.tracer.begin(f"stage:{stage.name}", "pipeline")

    def on_stage_end(self, context, stage) -> None:
        self.tracer.end(self._open.pop(stage.name))


def stage_durations_ms(spans, key: str) -> Dict[Any, Dict[str, float]]:
    """``{correlation[key]: {stage name: total ms}}`` over the wall-time
    ``stage:*`` spans."""
    grouped: Dict[Any, Dict[str, float]] = {}
    for span in spans:
        if span.name.startswith("stage:") and span.wall_end_s is not None:
            totals = grouped.setdefault(span.correlation.get(key), {})
            stage = span.name[len("stage:"):]
            totals[stage] = totals.get(stage, 0.0) + span.wall_duration_s * 1e3
    return grouped


def stage_metrics(per_replay: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-replay medians of every core stage metric."""
    return {
        metric: median([sum(row.get(stage, 0.0) for stage in stages) for row in per_replay])
        for metric, stages in STAGE_METRICS.items()
    }


def overhead_pct(untraced: Sequence[float], traced: Sequence[float]) -> float:
    """Tracing overhead: median traced wall time over median untraced."""
    base = median(untraced)
    return (median(traced) / base - 1.0) * 100.0 if base > 0 else 0.0


def write_trace(tracer: Tracer, path, metadata: Dict[str, Any]) -> None:
    """Write a tracer's spans once, as Chrome-trace JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(tracer, path, metadata=metadata)
