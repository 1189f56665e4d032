"""The perf-regression watchdog, end to end, on a synthetic trajectory.

1. Record a few healthy benchmark payloads into an append-only
   ``TrajectoryStore`` (the JSON-lines history ``make bench`` grows via
   ``python -m repro analyze regressions --record``).
2. Check a new healthy payload against the history — everything passes.
3. Seed a drop (throughput halved, overhead through its ceiling) and
   watch the watchdog flag exactly the regressed metrics; this is the
   condition under which the CLI exits non-zero and fails CI.

The real trajectory lives at the repo root (``BENCH_history.jsonl``,
gitignored) and tracks ``BENCH_replay_throughput.json``.

Run with ``PYTHONPATH=src python examples/analyze_regression.py``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.insights import TrajectoryStore, check_regressions, format_regressions


def bench_payload(ops_per_sec: float, overhead_pct: float) -> dict:
    """A minimal BENCH-shaped payload (only watched metrics matter)."""
    return {
        "workloads": {
            "rm": {"ops_per_sec": ops_per_sec},
        },
        "telemetry_overhead": {"overhead_pct": overhead_pct},
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store = TrajectoryStore(Path(tmp) / "BENCH_history.jsonl")

        print("Recording three healthy runs into the trajectory ...")
        for ops in (95_000.0, 100_000.0, 105_000.0):
            store.append(bench_payload(ops, overhead_pct=0.4))
        print(f"  history entries: {len(store.entries())} "
              f"(median baseline: 100000 ops/s)\n")

        print("=== A healthy run checks clean ===")
        healthy = check_regressions(
            bench_payload(98_000.0, overhead_pct=0.2), history=store.history()
        )
        print(format_regressions(healthy))
        assert healthy.ok

        print("\n=== A seeded drop fails the watchdog ===")
        seeded = check_regressions(
            # Throughput halved (beyond the 30% drop threshold) and
            # telemetry overhead above its hard 5% ceiling.
            bench_payload(50_000.0, overhead_pct=7.5),
            history=store.history(),
        )
        print(format_regressions(seeded))
        assert not seeded.ok
        print(
            "\nThe CLI equivalent — `python -m repro analyze regressions` — "
            "exits 1 here,\nwhich is how `make bench` and CI turn this "
            "report into a failed build."
        )


if __name__ == "__main__":
    main()
