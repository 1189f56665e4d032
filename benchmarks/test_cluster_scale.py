"""Event-scheduler fleet throughput at 1024 ranks — the scale lock-in.

The thread-per-rank engine topped out around the host's thread budget;
the event-driven scheduler replays a 1024-rank DDP-RM what-if fleet on a
single thread.  This benchmark locks that capability in: the sweep must
*complete*, stay fully matched, and its fleet throughput (total replayed
operators across every rank per wall-clock second) is recorded in the
``cluster_scale`` section of ``BENCH_replay_throughput.json`` so the
number forms a trajectory across commits alongside the single-rank
replay-throughput floors.
"""

from repro.bench.throughput import (
    CLUSTER_SCALE_SECTION,
    format_cluster_scale,
    merge_cluster_scale,
    run_cluster_scale_benchmark,
)
from repro.insights.regression import check_regressions, format_regressions

from benchmarks.conftest import save_report

WORLD_SIZE = 1024


def test_cluster_scale_1024_rank_sweep(benchmark):
    section = benchmark.pedantic(
        run_cluster_scale_benchmark,
        kwargs={"world_size": WORLD_SIZE},
        rounds=1,
        iterations=1,
    )

    path = merge_cluster_scale(section)
    text = format_cluster_scale(section)
    save_report("cluster_scale", text)
    print(f"\n{text}\nwrote {path}")

    # The sweep completed: every rank replayed, every collective matched.
    assert section["replicas"] == WORLD_SIZE
    assert section["engine"] == "event"
    assert section["matched_collectives"] > 0
    assert section["total_replayed_ops"] >= WORLD_SIZE  # every rank did work
    assert section["critical_path_us"] > 0

    # Fleet throughput floor (ranks x ops / sec), declared in the
    # regression watchdog's WATCHED_METRICS.
    regressions = check_regressions({CLUSTER_SCALE_SECTION: section})
    assert regressions.ok, format_regressions(regressions)
    missing = [
        c.metric
        for c in regressions.checks
        if c.status == "missing" and c.metric.startswith(CLUSTER_SCALE_SECTION + ".")
    ]
    assert not missing, missing
