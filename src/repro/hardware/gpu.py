"""GPU timeline simulation.

The runtime records *kernel launches* — (launch timestamp, stream, modelled
duration).  This module resolves them into actual start/end times the way a
CUDA device would:

* kernels on the same stream execute strictly in issue order,
* a kernel cannot start before its CPU-side launch timestamp,
* kernels on different streams overlap freely (the cost model already folds
  average contention into per-kernel efficiency factors).

From the resolved timeline we derive the aggregate statistics the paper
reports: total/busy/exposed GPU time per operator category, SM utilisation,
HBM bandwidth and average power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.torchsim.kernel import KernelLaunch, OpCategory


def merge_intervals(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping [start, end) intervals."""
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def total_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Summed length of [start, end) intervals."""
    return sum(end - start for start, end in intervals)


def subtract_intervals(
    base: Sequence[Tuple[float, float]], cover: Sequence[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Return the parts of ``base`` not covered by ``cover``."""
    result: List[Tuple[float, float]] = []
    cover = list(cover)
    for start, end in base:
        segments = [(start, end)]
        for c_start, c_end in cover:
            next_segments: List[Tuple[float, float]] = []
            for s_start, s_end in segments:
                if c_end <= s_start or c_start >= s_end:
                    next_segments.append((s_start, s_end))
                    continue
                if c_start > s_start:
                    next_segments.append((s_start, c_start))
                if c_end < s_end:
                    next_segments.append((c_end, s_end))
            segments = next_segments
            if not segments:
                break
        result.extend(segments)
    return result


@dataclass
class TimelineStats:
    """Aggregate statistics of one resolved GPU timeline."""

    wall_time_us: float
    busy_time_us: float
    total_kernel_time_us: float
    kernel_count: int
    bytes_moved: float
    weighted_occupancy: float
    category_kernel_time_us: Dict[str, float] = field(default_factory=dict)
    category_exposed_time_us: Dict[str, float] = field(default_factory=dict)
    category_count: Dict[str, int] = field(default_factory=dict)

    @property
    def busy_fraction(self) -> float:
        if self.wall_time_us <= 0:
            return 0.0
        return min(1.0, self.busy_time_us / self.wall_time_us)

    @property
    def sm_utilization(self) -> float:
        """Average fraction of SMs busy over the wall-clock window (0..1)."""
        if self.wall_time_us <= 0:
            return 0.0
        return min(1.0, self.weighted_occupancy / self.wall_time_us)

    @property
    def hbm_bandwidth_gbps(self) -> float:
        """Average DRAM traffic over the wall-clock window, in GB/s."""
        if self.wall_time_us <= 0:
            return 0.0
        return self.bytes_moved / (self.wall_time_us * 1e-6) / 1e9


class GpuTimeline:
    """Resolves kernel launches into a per-stream ordered timeline."""

    def __init__(self, device_index: int = 0):
        self.device_index = device_index
        self._launches: List[KernelLaunch] = []
        self._stream_ready: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def add_launch(self, launch: KernelLaunch) -> KernelLaunch:
        """Place a kernel on its stream and resolve its start/end time.

        Returns the same object with ``start``/``end`` filled in, so callers
        (e.g. blocking operators) can synchronise on the completion time.
        """
        ready = self._stream_ready.get(launch.stream_id, 0.0)
        start = max(ready, launch.launch_ts)
        end = start + launch.duration
        launch.start = start
        launch.end = end
        self._stream_ready[launch.stream_id] = end
        self._launches.append(launch)
        return launch

    def stream_ready_time(self, stream_id: int) -> float:
        """Time at which the stream drains all currently enqueued kernels."""
        return self._stream_ready.get(stream_id, 0.0)

    def device_ready_time(self) -> float:
        """Time at which every stream has drained (a device synchronize)."""
        if not self._stream_ready:
            return 0.0
        return max(self._stream_ready.values())

    @property
    def launches(self) -> List[KernelLaunch]:
        return list(self._launches)

    @property
    def launch_count(self) -> int:
        """Number of launches recorded so far (an O(1) cursor; the
        vectorized replay path brackets an operator call with it to slice
        out exactly the kernels that call enqueued)."""
        return len(self._launches)

    def launches_since(self, index: int) -> List[KernelLaunch]:
        """The launches recorded at or after position ``index`` (a cursor
        previously read from :attr:`launch_count`)."""
        return self._launches[index:]

    # ------------------------------------------------------------------
    def stats(self, window_start: float = 0.0, window_end: Optional[float] = None) -> TimelineStats:
        """Aggregate the resolved timeline into :class:`TimelineStats`.

        ``window_end`` defaults to the later of the last kernel end and the
        last CPU launch timestamp, i.e. the wall-clock span of the captured
        region.
        """
        launches = [k for k in self._launches if k.resolved and k.end > window_start]
        if window_end is None:
            window_end = max((k.end for k in launches), default=window_start)
            window_end = max(window_end, max((k.launch_ts for k in self._launches), default=0.0))
        window = max(0.0, window_end - window_start)

        intervals = [(max(k.start, window_start), min(k.end, window_end)) for k in launches]
        intervals = [(s, e) for s, e in intervals if e > s]
        busy = total_length(merge_intervals(intervals))

        category_time: Dict[str, float] = {}
        category_count: Dict[str, int] = {}
        category_intervals: Dict[str, List[Tuple[float, float]]] = {}
        total_kernel_time = 0.0
        bytes_moved = 0.0
        weighted_occupancy = 0.0
        for kernel in launches:
            start = max(kernel.start, window_start)
            end = min(kernel.end, window_end)
            if end <= start:
                continue
            length = end - start
            category = kernel.category.value
            category_time[category] = category_time.get(category, 0.0) + length
            category_count[category] = category_count.get(category, 0) + 1
            category_intervals.setdefault(category, []).append((start, end))
            total_kernel_time += length
            bytes_moved += kernel.desc.bytes_total
            weighted_occupancy += length * kernel.desc.occupancy

        # Exposed time per category: the part of that category's busy time
        # not overlapped by kernels of any *other* category (Section 3.3's
        # "exposed GPU time" for communication operators).
        category_exposed: Dict[str, float] = {}
        for category, cat_intervals in category_intervals.items():
            own = merge_intervals(cat_intervals)
            others: List[Tuple[float, float]] = []
            for other, other_intervals in category_intervals.items():
                if other != category:
                    others.extend(other_intervals)
            exposed = subtract_intervals(own, merge_intervals(others))
            category_exposed[category] = total_length(exposed)

        return TimelineStats(
            wall_time_us=window,
            busy_time_us=busy,
            total_kernel_time_us=total_kernel_time,
            kernel_count=len(launches),
            bytes_moved=bytes_moved,
            weighted_occupancy=weighted_occupancy,
            category_kernel_time_us=category_time,
            category_exposed_time_us=category_exposed,
            category_count=category_count,
        )
