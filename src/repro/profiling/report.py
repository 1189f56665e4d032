"""Structured replay-throughput profile reports.

A :class:`ProfileReport` is what a :class:`~repro.profiling.ProfileHook`
aggregates into: per-operator host wall time (hot-first), per-stage wall
time, and the replay's measured throughput in operators per second.  The
schema is versioned so downstream consumers (the ``profile`` CLI
subcommand's ``--json`` output, BENCH trajectory files) can detect shape
changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Bump when the serialized report shape changes incompatibly.
PROFILE_SCHEMA_VERSION = 2


@dataclass
class OpProfile:
    """Aggregated host-side cost of one operator name across a replay."""

    name: str
    count: int
    total_ms: float
    mean_us: float
    min_us: float
    max_us: float
    #: Share of the total per-op wall time, in percent.
    share_pct: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "total_ms": self.total_ms,
            "mean_us": self.mean_us,
            "min_us": self.min_us,
            "max_us": self.max_us,
            "share_pct": self.share_pct,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OpProfile":
        return cls(
            name=data["name"],
            count=int(data["count"]),
            total_ms=float(data["total_ms"]),
            mean_us=float(data["mean_us"]),
            min_us=float(data["min_us"]),
            max_us=float(data["max_us"]),
            share_pct=float(data["share_pct"]),
        )


@dataclass
class ProfileReport:
    """One replay's host-side wall-time profile.

    ``ops`` is sorted hot-first (largest ``total_ms`` first).  Stage wall
    times cover the whole pipeline (build stages included); ``ops_per_sec``
    covers only the measured iterations of the execute stage, which is the
    throughput number the BENCH trajectory files track.
    """

    trace_name: str = ""
    device: str = ""
    #: Per-op replays observed (warm-up and measured iterations alike).
    replayed_ops: int = 0
    #: Per-op replays observed during measured iterations only.
    measured_ops: int = 0
    #: Wall-clock seconds per pipeline stage, by stage name.
    stage_wall_s: Dict[str, float] = field(default_factory=dict)
    #: Replay throughput over the measured window, operators per second.
    ops_per_sec: float = 0.0
    ops: List[OpProfile] = field(default_factory=list)
    schema_version: int = PROFILE_SCHEMA_VERSION

    @property
    def execute_wall_s(self) -> float:
        """Wall time of the execute stage (the replay hot loop)."""
        return self.stage_wall_s.get("execute", 0.0)

    @property
    def total_op_ms(self) -> float:
        return sum(op.total_ms for op in self.ops)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "trace_name": self.trace_name,
            "device": self.device,
            "replayed_ops": self.replayed_ops,
            "measured_ops": self.measured_ops,
            "stage_wall_s": dict(self.stage_wall_s),
            "execute_wall_s": self.execute_wall_s,
            "ops_per_sec": self.ops_per_sec,
            "ops": [op.to_dict() for op in self.ops],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProfileReport":
        # Keys that older schema versions carried and this one dropped are
        # ignored.
        return cls(
            trace_name=data.get("trace_name", ""),
            device=data.get("device", ""),
            replayed_ops=int(data.get("replayed_ops", 0)),
            measured_ops=int(data.get("measured_ops", 0)),
            stage_wall_s={
                str(name): float(value)
                for name, value in data.get("stage_wall_s", {}).items()
            },
            ops_per_sec=float(data.get("ops_per_sec", 0.0)),
            ops=[OpProfile.from_dict(entry) for entry in data.get("ops", [])],
            schema_version=int(data.get("schema_version", PROFILE_SCHEMA_VERSION)),
        )

    # ------------------------------------------------------------------
    def format_table(self, top: int = 20) -> str:
        """Human-readable hot-first summary (the atexit/CLI rendering)."""
        header = (
            f"replay profile: {self.trace_name or '<trace>'} on "
            f"{self.device or '<device>'} "
            f"({self.ops_per_sec:,.0f} ops/sec, "
            f"execute {self.execute_wall_s * 1e3:.1f} ms)"
        )
        lines = [header]
        lines.append(
            f"{'op':<40} {'count':>8} {'total ms':>10} {'mean us':>9} "
            f"{'max us':>9} {'share':>7}"
        )
        for op in self.ops[:top]:
            lines.append(
                f"{op.name:<40} {op.count:>8} {op.total_ms:>10.3f} "
                f"{op.mean_us:>9.2f} {op.max_us:>9.2f} {op.share_pct:>6.1f}%"
            )
        remainder = len(self.ops) - top
        if remainder > 0:
            lines.append(f"... {remainder} more operator names")
        stages = ", ".join(
            f"{name}={seconds * 1e3:.1f}ms"
            for name, seconds in sorted(
                self.stage_wall_s.items(), key=lambda item: -item[1]
            )
        )
        if stages:
            lines.append(f"stages: {stages}")
        return "\n".join(lines)
