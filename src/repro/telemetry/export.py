"""Chrome-trace / Perfetto JSON export.

Two timelines, two trace processes:

* **pid 0 — host wall time.**  Pipeline stage spans, scheduler slices and
  daemon job lifecycles, with ``ts`` relative to the tracer's epoch.
* **pid 1 — cluster virtual time.**  Per-rank Gantt lanes built from the
  replay engine's simulated clock: each rank owns a block of thread
  lanes — ``compute``, ``comms``, ``exposed-comms`` and ``stall`` — so
  overlap between communication and computation is visible instead of
  stacked.

Events within each lane are sorted by ``ts``, so every lane is
monotonic (the acceptance property ``tests/test_telemetry.py`` checks).
Load the file at ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.hardware.gpu import merge_intervals, subtract_intervals
from repro.telemetry.tracer import Tracer

#: Virtual-lane sub-indices inside one rank's block of thread lanes.
_LANE_SUBS = {"compute": 0, "comms": 1, "exposed-comms": 2, "stall": 3}
_LANE_STRIDE = 8
_OTHER_SUB = 4

#: Host-lane thread ids per span category.
_HOST_TIDS = {"pipeline": 1, "scheduler": 2, "daemon": 3}
_HOST_OTHER_TID = 9
_HOST_RANK_TID_BASE = 100

_HOST_PID = 0
_VIRTUAL_PID = 1


def _host_tid(category: str, correlation: Mapping[str, Any]) -> Tuple[int, str]:
    rank = correlation.get("rank")
    if rank is not None:
        return _HOST_RANK_TID_BASE + int(rank), f"rank {rank} · {category}"
    tid = _HOST_TIDS.get(category, _HOST_OTHER_TID)
    return tid, category


def _virtual_tid(category: str, correlation: Mapping[str, Any]) -> Tuple[int, str]:
    rank = int(correlation.get("rank", 0))
    sub = _LANE_SUBS.get(category, _OTHER_SUB)
    label = category if sub != _OTHER_SUB else "events"
    return rank * _LANE_STRIDE + sub, f"rank {rank} · {label}"


def to_chrome_trace(
    tracer: Tracer, metadata: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Render every span and instant event as a Chrome-trace dict."""
    lanes: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    thread_names: Dict[Tuple[int, int], str] = {}

    def _add(pid: int, tid: int, name: str, event: Dict[str, Any]) -> None:
        lanes.setdefault((pid, tid), []).append(event)
        thread_names.setdefault((pid, tid), name)

    for span in tracer.spans:
        args: Dict[str, Any] = {}
        if span.correlation:
            args["correlation"] = dict(span.correlation)
        if span.attributes:
            args.update(span.attributes)
        if span.wall_start_s is not None and span.wall_end_s is not None:
            tid, lane = _host_tid(span.category, span.correlation)
            if span.virtual_start_us is not None:
                args["virtual_start_us"] = span.virtual_start_us
            if span.virtual_end_us is not None:
                args["virtual_end_us"] = span.virtual_end_us
            _add(
                _HOST_PID,
                tid,
                lane,
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": (span.wall_start_s - tracer.epoch_s) * 1e6,
                    "dur": max(0.0, span.wall_end_s - span.wall_start_s) * 1e6,
                    "pid": _HOST_PID,
                    "tid": tid,
                    "args": args,
                },
            )
        elif span.virtual_start_us is not None:
            end = (
                span.virtual_end_us
                if span.virtual_end_us is not None
                else span.virtual_start_us
            )
            tid, lane = _virtual_tid(span.category, span.correlation)
            _add(
                _VIRTUAL_PID,
                tid,
                lane,
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": span.virtual_start_us,
                    "dur": max(0.0, end - span.virtual_start_us),
                    "pid": _VIRTUAL_PID,
                    "tid": tid,
                    "args": args,
                },
            )

    for event in tracer.events:
        args = {}
        if event.correlation:
            args["correlation"] = dict(event.correlation)
        if event.attributes:
            args.update(event.attributes)
        if event.virtual_us is not None:
            tid, lane = _virtual_tid("events", event.correlation)
            pid, ts = _VIRTUAL_PID, event.virtual_us
        else:
            tid, lane = _host_tid(event.category, event.correlation)
            pid, ts = _HOST_PID, (
                ((event.wall_s or tracer.epoch_s) - tracer.epoch_s) * 1e6
            )
        _add(
            pid,
            tid,
            lane,
            {
                "name": event.name,
                "cat": event.category,
                "ph": "i",
                "s": "t",
                "ts": ts,
                "pid": pid,
                "tid": tid,
                "args": args,
            },
        )

    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _HOST_PID,
            "tid": 0,
            "args": {"name": "repro · host wall-time"},
        },
        {
            "name": "process_name",
            "ph": "M",
            "pid": _VIRTUAL_PID,
            "tid": 0,
            "args": {"name": "repro · cluster virtual-time"},
        },
    ]
    for (pid, tid), lane in sorted(thread_names.items()):
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": lane},
            }
        )
    for key in sorted(lanes):
        trace_events.extend(sorted(lanes[key], key=lambda e: e["ts"]))

    payload = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": {"exporter": "repro.telemetry", "dropped_records": tracer.dropped},
    }
    if metadata:
        payload["metadata"].update(metadata)
    return payload


def write_chrome_trace(
    tracer: Tracer, path: Path, metadata: Optional[Dict[str, Any]] = None
) -> Path:
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(tracer, metadata=metadata), indent=1))
    return path


# ----------------------------------------------------------------------
# Virtual-clock Gantt lanes from replay results
# ----------------------------------------------------------------------
def record_replay_timeline(tracer: Tracer, result: Any, rank: int = 0) -> None:
    """Turn one rank's measured kernel launches into Gantt slices.

    ``result`` is a :class:`~repro.core.replayer.ReplayResult`; its
    ``kernel_launches`` are already windowed to the measured iterations.
    Comm kernels additionally contribute ``exposed-comms`` sub-slices —
    the portions not overlapped by any compute kernel on the same rank,
    mirroring ``TimelineStats.category_exposed_time_us``.
    """
    if not tracer.enabled:
        return
    launches = getattr(result, "kernel_launches", None) or []
    compute: List[Tuple[float, float]] = []
    comms: List[Tuple[float, float, str]] = []
    for launch in launches:
        if launch.start is None or launch.end is None:
            continue
        name = launch.op_name or str(launch.desc)
        # KernelLaunch.category is an OpCategory enum; compare by value.
        category = getattr(launch.category, "value", launch.category)
        if category == "comms":
            comms.append((launch.start, launch.end, name))
            tracer.slice(
                rank, name, "comms", launch.start, max(0.0, launch.end - launch.start)
            )
        else:
            compute.append((launch.start, launch.end))
            tracer.slice(
                rank, name, "compute", launch.start, max(0.0, launch.end - launch.start)
            )
    blockers = merge_intervals(compute)
    for start, end, name in comms:
        for seg_start, seg_end in subtract_intervals([(start, end)], blockers):
            tracer.slice(
                rank, name, "exposed-comms", seg_start, max(0.0, seg_end - seg_start)
            )


def record_cluster_timeline(
    tracer: Tracer,
    results_by_rank: Mapping[int, Any],
    collective_events: Iterable[Any] = (),
    measure_start_by_rank: Optional[Mapping[int, float]] = None,
) -> None:
    """Per-rank lanes for a whole cluster replay.

    Kernel compute/comms/exposed slices come from each rank's
    :class:`ReplayResult`; stall slices come from the rendezvous'
    :class:`~repro.cluster.rendezvous.CollectiveEvent` records — for each
    participant, the wait between its arrival and the collective's start,
    windowed to the rank's measured iterations like ``RendezvousStats``.
    """
    if not tracer.enabled:
        return
    for rank, result in sorted(results_by_rank.items()):
        if result is not None:
            record_replay_timeline(tracer, result, rank=rank)
    starts = measure_start_by_rank or {}
    for event in collective_events:
        for rank, arrival in event.arrivals.items():
            if event.start_us < starts.get(rank, 0.0):
                continue
            stall = event.start_us - arrival
            if stall > 0.0:
                tracer.slice(
                    rank,
                    f"stall:{event.key[1]}",
                    "stall",
                    arrival,
                    stall,
                    seq=event.seq,
                )
