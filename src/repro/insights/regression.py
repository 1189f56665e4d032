"""Perf-regression watchdog over the BENCH trajectory.

Turns ``BENCH_replay_throughput.json`` from a log into an enforced
contract: an append-only JSON-lines :class:`TrajectoryStore` accumulates
one entry per benchmark run, and :func:`check_regressions` compares the
current payload against (a) absolute floors/ceilings mirroring the
repo's standing perf claims and (b) the median of the recorded history,
flagging drops beyond a noise threshold.  ``python -m repro analyze
regressions`` exits non-zero when anything regresses, which is what
``make bench`` and CI run.

Median (not mean) baselines keep a single bad run in the append-only
history from poisoning the baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.insights.schema import INSIGHTS_SCHEMA_VERSION

#: Relative drop (percent vs. the history median) that counts as a
#: regression for throughput-style metrics.  Generous by default: the
#: benchmarks run on whatever shared hardware CI lands on.
DEFAULT_DROP_THRESHOLD_PCT = 30.0

#: Default history file next to the BENCH trajectory file (gitignored —
#: it is per-machine measurement history, not a repo artifact).
HISTORY_FILENAME = "BENCH_history.jsonl"


@dataclass(frozen=True)
class MetricSpec:
    """One watched metric: where it lives and which direction is good."""

    path: str
    direction: str  # "higher" or "lower"
    floor: Optional[float] = None  # higher-better: hard minimum
    ceiling: Optional[float] = None  # lower-better: hard maximum


#: The watched subset of the BENCH payload, and the one place its perf
#: floors and ceilings are declared: the benchmarks that write each
#: section (``benchmarks/test_replay_throughput.py``,
#: ``test_cluster_scale.py``, ``test_daemon_throughput.py``) assert
#: ``check_regressions(<payload>).ok``, so the watchdog and the benchmark
#: suite cannot disagree about the contract.  Overhead metrics are
#: checked against their absolute ceiling only — they sit at the
#: measurement noise floor, where relative comparisons flag jitter, not
#: regressions.
WATCHED_METRICS: Sequence[MetricSpec] = (
    MetricSpec("workloads.param_linear.vectorized_ops_per_sec", "higher"),
    MetricSpec("workloads.param_linear.speedup", "higher", floor=5.0),
    MetricSpec("workloads.rm.vectorized_ops_per_sec", "higher"),
    # The vectorized executor's headline win on RM (measured ~15-30x).
    MetricSpec("workloads.rm.speedup", "higher", floor=10.0),
    MetricSpec("workloads.ddp_rm.vectorized_ops_per_sec", "higher"),
    MetricSpec("workloads.ddp_rm.speedup", "higher", floor=5.0),
    MetricSpec("profiler.overhead_pct", "lower", ceiling=5.0),
    MetricSpec("telemetry_overhead.overhead_pct", "lower", ceiling=5.0),
    # 1024-rank fleet (ranks x ops / sec), measured ~1,500-1,900: an
    # order-of-magnitude margin that still catches an unusable scheduler.
    MetricSpec("cluster_scale.rank_ops_per_sec", "higher", floor=250.0),
    # Daemon jobs/sec under 8 clients, measured ~20: guards against a
    # serialization or lock bottleneck dwarfing replay time.
    MetricSpec("daemon_throughput.jobs_per_sec", "higher", floor=0.5),
)


def _lookup(payload: Mapping[str, Any], path: str) -> Optional[float]:
    node: Any = payload
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class TrajectoryStore:
    """Append-only JSON-lines store of benchmark payloads.

    Each line is ``{"seq": n, "bench": <payload>, "meta": {...}}``.
    Corrupt or truncated tail lines (a killed run mid-append) are
    skipped on read rather than poisoning the whole history.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)

    def entries(self) -> List[Dict[str, Any]]:
        if not self.path.exists():
            return []
        entries: List[Dict[str, Any]] = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict) and isinstance(entry.get("bench"), dict):
                entries.append(entry)
        return entries

    def append(
        self, bench: Mapping[str, Any], meta: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        from repro.service import serialize

        entry = {
            "seq": len(self.entries()) + 1,
            "bench": dict(bench),
            "meta": dict(meta or {}),
        }
        with self.path.open("a") as handle:
            handle.write(serialize.dumps_compact(entry) + "\n")
        return entry

    def history(self) -> List[Dict[str, Any]]:
        """Just the bench payloads, oldest first."""
        return [entry["bench"] for entry in self.entries()]


@dataclass
class RegressionCheck:
    """Outcome of one watched metric's evaluation."""

    metric: str
    direction: str
    value: Optional[float]
    baseline: Optional[float]
    floor: Optional[float]
    ceiling: Optional[float]
    status: str  # "ok", "regression", or "missing"
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "direction": self.direction,
            "value": self.value,
            "baseline": self.baseline,
            "floor": self.floor,
            "ceiling": self.ceiling,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass
class RegressionReport:
    """All checks for one bench payload against its history."""

    checks: List[RegressionCheck]
    drop_threshold_pct: float
    history_entries: int

    @property
    def regressions(self) -> List[RegressionCheck]:
        return [c for c in self.checks if c.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": INSIGHTS_SCHEMA_VERSION,
            "kind": "regressions",
            "ok": self.ok,
            "drop_threshold_pct": self.drop_threshold_pct,
            "history_entries": self.history_entries,
            "regressions": [c.metric for c in self.regressions],
            "checks": [c.to_dict() for c in self.checks],
        }


def check_regressions(
    bench: Mapping[str, Any],
    history: Sequence[Mapping[str, Any]] = (),
    drop_threshold_pct: float = DEFAULT_DROP_THRESHOLD_PCT,
) -> RegressionReport:
    """Evaluate every watched metric in ``bench``.

    Higher-better metrics fail below their floor or when they drop more
    than ``drop_threshold_pct`` below the history median; lower-better
    (overhead) metrics fail above their ceiling.  Metrics missing from
    the payload are reported ``missing`` but do not fail — BENCH
    sections are written by different benchmarks at different times.
    """
    checks: List[RegressionCheck] = []
    for spec in WATCHED_METRICS:
        value = _lookup(bench, spec.path)
        baseline_values = [
            v
            for v in (_lookup(entry, spec.path) for entry in history)
            if v is not None
        ]
        baseline = _median(baseline_values) if baseline_values else None
        if value is None:
            checks.append(
                RegressionCheck(
                    metric=spec.path,
                    direction=spec.direction,
                    value=None,
                    baseline=baseline,
                    floor=spec.floor,
                    ceiling=spec.ceiling,
                    status="missing",
                    detail="not present in bench payload",
                )
            )
            continue
        status = "ok"
        detail = "within limits"
        if spec.direction == "higher":
            if spec.floor is not None and value < spec.floor:
                status = "regression"
                detail = f"{value:.3f} below hard floor {spec.floor:.3f}"
            elif baseline is not None and baseline > 0:
                drop_pct = (baseline - value) / baseline * 100.0
                if drop_pct > drop_threshold_pct:
                    status = "regression"
                    detail = (
                        f"dropped {drop_pct:.1f}% vs history median "
                        f"{baseline:.3f} (threshold {drop_threshold_pct:.1f}%)"
                    )
                else:
                    detail = f"{-drop_pct:+.1f}% vs history median {baseline:.3f}"
        else:
            if spec.ceiling is not None and value > spec.ceiling:
                status = "regression"
                detail = f"{value:.3f} above hard ceiling {spec.ceiling:.3f}"
        checks.append(
            RegressionCheck(
                metric=spec.path,
                direction=spec.direction,
                value=value,
                baseline=baseline,
                floor=spec.floor,
                ceiling=spec.ceiling,
                status=status,
                detail=detail,
            )
        )
    return RegressionReport(
        checks=checks,
        drop_threshold_pct=drop_threshold_pct,
        history_entries=len(history),
    )


def default_bench_path() -> Path:
    from repro.bench.throughput import BENCH_FILENAME, _repo_root

    return _repo_root() / BENCH_FILENAME


def default_history_path() -> Path:
    from repro.bench.throughput import _repo_root

    return _repo_root() / HISTORY_FILENAME


def format_regressions(report: RegressionReport) -> str:
    """Human-readable rendering for the CLI's non-``--json`` path."""
    from repro.bench.reporting import format_table

    rows = [
        [
            check.status.upper(),
            check.metric,
            "-" if check.value is None else f"{check.value:.3f}",
            "-" if check.baseline is None else f"{check.baseline:.3f}",
            check.detail,
        ]
        for check in report.checks
    ]
    table = format_table(
        ["status", "metric", "value", "baseline", "detail"], rows
    )
    verdict = (
        "OK — no regressions"
        if report.ok
        else f"REGRESSIONS: {', '.join(c.metric for c in report.regressions)}"
    )
    return (
        f"{table}\n\n{verdict} "
        f"(history entries: {report.history_entries}, "
        f"drop threshold: {report.drop_threshold_pct:.1f}%)"
    )
