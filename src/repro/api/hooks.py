"""Ready-made replay hooks: progress reporting, per-op tracing, metric taps.

These are small, composable examples of the :class:`~repro.core.pipeline.ReplayHook`
protocol — register them on a session with ``.hook(...)`` or on a pipeline
with ``add_hook``.  They only read the context and keep their own state, so
any combination can observe the same replay.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, TextIO

from repro.core.pipeline import ReplayContext, ReplayHook, ReplayStage, TrackMemoryStage


class ProgressHook(ReplayHook):
    """Prints one line per stage (and a per-op tally) to a stream.

    Useful for long replays driven from scripts or the CLI; writes to
    ``stderr`` by default so JSON output on ``stdout`` stays clean.
    """

    def __init__(self, stream: Optional[TextIO] = None, every_ops: int = 0) -> None:
        self.stream = stream if stream is not None else sys.stderr
        #: Emit an op-count line every N replayed operators (0 disables).
        self.every_ops = every_ops
        self._ops = 0

    def on_stage_start(self, context: ReplayContext, stage: ReplayStage) -> None:
        print(f"[repro] stage {stage.name} ...", file=self.stream)

    def on_stage_end(self, context: ReplayContext, stage: ReplayStage) -> None:
        detail = ""
        if stage.name == "select" and context.selection is not None:
            detail = f" ({len(context.selection.entries)} nodes selected)"
        elif stage.name == "reconstruct":
            detail = f" ({len(context.reconstructed)} ops reconstructed)"
        elif stage.name == "execute":
            detail = f" ({context.replayed_ops} replayed, {context.skipped_ops} skipped)"
        print(f"[repro] stage {stage.name} done{detail}", file=self.stream)

    def on_op_replayed(self, context: ReplayContext, entry, output) -> None:
        self._ops += 1
        if self.every_ops and self._ops % self.every_ops == 0:
            print(f"[repro]   {self._ops} ops replayed", file=self.stream)

    def on_error(self, context: ReplayContext, stage: ReplayStage, error: BaseException) -> None:
        print(f"[repro] stage {stage.name} FAILED: {error}", file=self.stream)


@dataclass
class OpRecord:
    """One replayed operator, as recorded by :class:`OpTraceHook`."""

    node_id: int
    name: str
    category: str
    measuring: bool


class OpTraceHook(ReplayHook):
    """Records every replayed operator (id, name, category, warm-up or
    measured) — a lightweight per-op trace for debugging selection and
    ordering questions."""

    def __init__(self) -> None:
        self.records: List[OpRecord] = []

    def on_op_replayed(self, context: ReplayContext, entry, output) -> None:
        self.records.append(
            OpRecord(
                node_id=entry.node.id,
                name=entry.node.name,
                category=str(getattr(entry, "category", "")),
                measuring=context.measuring,
            )
        )

    def measured(self) -> List[OpRecord]:
        return [record for record in self.records if record.measuring]


class MetricsTapHook(ReplayHook):
    """Streams the finished result's scalar metrics to a callback.

    The callback receives one flat dict (the
    :class:`~repro.core.replayer.ReplayResultSummary` dict) right after the
    measure stage — handy for pushing replay metrics into a dashboard or
    accumulating them across a batch without holding full results.
    """

    def __init__(self, sink: Callable[[Dict[str, Any]], None]) -> None:
        self.sink = sink

    def on_stage_end(self, context: ReplayContext, stage: ReplayStage) -> None:
        if context.result is not None and stage.name == "measure":
            self.sink(context.result.summarize().to_dict())


class MemoryHook(ReplayHook):
    """Captures the memory report the ``track-memory`` stage produced.

    Register together with ``.with_memory(...)``; after the replay the
    hook's :attr:`report` holds the
    :class:`~repro.memory.report.MemoryReport` (also available as
    ``result.memory_report``), and the optional ``sink`` callback receives
    it the moment the stage finishes — useful to stream footprints out of
    batch/cluster replays without holding full results.
    """

    def __init__(self, sink: Optional[Callable[[Any], None]] = None) -> None:
        self.report: Optional[Any] = None
        self.sink = sink

    def on_stage_end(self, context: ReplayContext, stage: ReplayStage) -> None:
        if stage.name == TrackMemoryStage.name:
            self._capture(context)

    def on_error(self, context: ReplayContext, stage: ReplayStage, error: BaseException) -> None:
        # With on_oom="raise" the stage publishes the report and then
        # raises, so on_stage_end never fires — capture it here, exactly
        # when the report matters most.
        if stage.name == TrackMemoryStage.name:
            self._capture(context)

    def _capture(self, context: ReplayContext) -> None:
        self.report = context.extras.get(TrackMemoryStage.EXTRAS_KEY)
        if self.sink is not None and self.report is not None:
            self.sink(self.report)

    @property
    def peak_allocated_bytes(self) -> int:
        return self.report.peak_allocated_bytes if self.report is not None else 0


@dataclass
class ErrorReport:
    """One stage failure, as collected by :class:`ErrorCollectorHook`."""

    stage: str
    error: str
    extras: Dict[str, Any] = field(default_factory=dict)


class ErrorCollectorHook(ReplayHook):
    """Collects stage failures (which still re-raise) for later reporting."""

    def __init__(self) -> None:
        self.errors: List[ErrorReport] = []

    def on_error(self, context: ReplayContext, stage: ReplayStage, error: BaseException) -> None:
        self.errors.append(
            ErrorReport(stage=stage.name, error=f"{type(error).__name__}: {error}")
        )
