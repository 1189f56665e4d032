"""The per-op replay profiler hook.

:class:`ProfileHook` observes a replay through the standard
:class:`~repro.core.pipeline.ReplayHook` protocol, so it costs *nothing*
when not attached — the execute loop's ``notify = bool(context.hooks)``
fast path skips per-op notification entirely, which is the
zero-overhead-when-disabled guarantee ``tests/test_profiling.py`` asserts.

When attached, the per-op callback is kept to a dict lookup, two float
reads of ``time.perf_counter()`` shared across callbacks (one read per
event, not per aggregate), and four list-cell updates; everything else
(sorting, shares, means) happens at :meth:`ProfileHook.report` time.

Stage timing is not a second clock: :class:`ProfileHook` *is* a
:class:`~repro.telemetry.TelemetryHook`, so each pipeline stage becomes
the same ``stage:<name>`` span (category ``pipeline``) that telemetry
records, and :attr:`ProfileReport.stage_wall_s` is the sum of those
spans.  Without a shared tracer the spans land on a private
:class:`~repro.telemetry.Tracer` driven by the hook's clock; a session
that also traces hands the hook its tracer (:meth:`ProfileHook.share`)
instead of attaching a second stage timer.

The atexit summary mirrors tinygrad's ``ProfileOp`` idiom: opt-in (pass
``report_at_exit=True`` or set ``REPRO_PROFILE_ATEXIT=1``), written to
stderr once at interpreter shutdown, hot ops first.
"""

from __future__ import annotations

import atexit
import os
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.core.pipeline import ReplayContext, ReplayStage
from repro.profiling.report import OpProfile, ProfileReport
from repro.telemetry.hook import TelemetryHook
from repro.telemetry.tracer import Span, Tracer

#: Environment variable enabling the atexit summary for every hook.
ATEXIT_ENV = "REPRO_PROFILE_ATEXIT"

_atexit_hooks: List["ProfileHook"] = []
_atexit_registered = False


def _print_atexit_reports() -> None:  # pragma: no cover - interpreter exit
    for hook in _atexit_hooks:
        sys.stderr.write(hook.report().format_table() + "\n")


def _register_atexit(hook: "ProfileHook") -> None:
    global _atexit_registered
    _atexit_hooks.append(hook)
    if not _atexit_registered:
        atexit.register(_print_atexit_reports)
        _atexit_registered = True


class ProfileHook(TelemetryHook):
    """Aggregates per-operator wall time during a replay, on top of the
    telemetry stage spans it inherits.

    Attach via ``session.with_profiling()`` (or ``pipeline.add_hook``) and
    read :meth:`report` afterwards.  One hook instance profiles one replay;
    attach a fresh instance per replay (or call :meth:`reset`).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        report_at_exit: bool = False,
    ) -> None:
        self._own_tracer = Tracer(clock=clock)
        super().__init__(self._own_tracer)
        self._clock = clock
        #: op name -> [count, total_s, min_s, max_s]
        self._ops: Dict[str, List[float]] = {}
        self._stage_spans: List[Span] = []
        self._last_mark = 0.0
        self._replayed_ops = 0
        self._measured_ops = 0
        self._measured_start: Optional[float] = None
        self._measured_end = 0.0
        #: Metadata for the report, filled by whoever owns the hook.
        self.trace_name = ""
        self.device = ""
        self.vectorized = True
        if report_at_exit or os.environ.get(ATEXIT_ENV, "") not in ("", "0"):
            _register_atexit(self)

    def share(self, tracer: Tracer, rank: Optional[int] = None) -> None:
        """Record the stage spans on ``tracer`` (stamped with ``rank``)
        instead of the private one, so a traced session carries exactly
        one span per stage.  A disabled tracer is ignored: profiling never
        depends on telemetry being on."""
        if tracer.enabled:
            self.tracer = tracer
            self._correlation = {} if rank is None else {"rank": rank}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything observed so far (reuse across replays)."""
        self._ops.clear()
        self._open.clear()
        self._stage_spans.clear()
        self._own_tracer.clear()
        self._last_mark = 0.0
        self._replayed_ops = 0
        self._measured_ops = 0
        self._measured_start = None
        self._measured_end = 0.0

    # ------------------------------------------------------------------
    # ReplayHook protocol
    # ------------------------------------------------------------------
    def on_stage_start(self, context: ReplayContext, stage: ReplayStage) -> None:
        super().on_stage_start(context, stage)
        if stage.name == "execute":
            self._last_mark = self._clock()

    def on_stage_end(self, context: ReplayContext, stage: ReplayStage) -> None:
        span = self._open.get(stage.name)
        super().on_stage_end(context, stage)
        if span is not None:
            self._stage_spans.append(span)

    def on_resume(self, context: ReplayContext) -> None:
        """Re-anchor the per-op mark when a cooperative scheduler resumes
        this replay.  The event-driven cluster engine interleaves many
        ranks on one thread; without re-anchoring, the first op after a
        context switch would be billed for the wall time spent replaying
        *other* ranks (the old one-thread-per-rank assumption)."""
        super().on_resume(context)
        self._last_mark = self._clock()

    def on_op_replayed(self, context: ReplayContext, entry, output) -> None:
        now = self._clock()
        delta = now - self._last_mark
        self._last_mark = now
        cell = self._ops.get(entry.node.name)
        if cell is None:
            self._ops[entry.node.name] = [1, delta, delta, delta]
        else:
            cell[0] += 1
            cell[1] += delta
            if delta < cell[2]:
                cell[2] = delta
            if delta > cell[3]:
                cell[3] = delta
        self._replayed_ops += 1
        if context.measuring:
            self._measured_ops += 1
            if self._measured_start is None:
                self._measured_start = now - delta
            self._measured_end = now

    # ------------------------------------------------------------------
    def _stage_wall_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span in self._stage_spans:
            name = span.name[len("stage:"):]
            totals[name] = totals.get(name, 0.0) + span.wall_duration_s
        return totals

    def report(
        self,
        trace_name: Optional[str] = None,
        device: Optional[str] = None,
        vectorized: Optional[bool] = None,
    ) -> ProfileReport:
        """Aggregate everything observed so far into a structured report."""
        total_s = sum(cell[1] for cell in self._ops.values())
        ops = [
            OpProfile(
                name=name,
                count=int(cell[0]),
                total_ms=cell[1] * 1e3,
                mean_us=(cell[1] / cell[0]) * 1e6 if cell[0] else 0.0,
                min_us=cell[2] * 1e6,
                max_us=cell[3] * 1e6,
                share_pct=(cell[1] / total_s) * 100.0 if total_s > 0 else 0.0,
            )
            for name, cell in self._ops.items()
        ]
        ops.sort(key=lambda op: (-op.total_ms, op.name))
        measured_window_s = (
            self._measured_end - self._measured_start
            if self._measured_start is not None
            else 0.0
        )
        return ProfileReport(
            trace_name=self.trace_name if trace_name is None else trace_name,
            device=self.device if device is None else device,
            vectorized=self.vectorized if vectorized is None else vectorized,
            replayed_ops=self._replayed_ops,
            measured_ops=self._measured_ops,
            stage_wall_s=self._stage_wall_seconds(),
            ops_per_sec=(
                self._measured_ops / measured_window_s if measured_window_s > 0 else 0.0
            ),
            ops=ops,
        )
