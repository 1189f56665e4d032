"""Daemon throughput under concurrent clients — the service lock-in.

The replay daemon exists so many tenants can share one replay service;
this benchmark drives a real :class:`~repro.daemon.daemon.ReplayDaemon`
(with its HTTP front-end) from 8 concurrent client threads, each
submitting one-point sweep jobs with unique configurations (no cache
hits), and measures sustained jobs/sec through the full path: HTTP
submit -> fair queue -> executor -> replay -> HTTP result.  The number
is recorded in the ``daemon_throughput`` section of
``BENCH_replay_throughput.json`` so it forms a trajectory across commits
alongside the single-rank replay floors and the 1024-rank fleet number.
"""

from repro.bench.throughput import (
    DAEMON_THROUGHPUT_SECTION,
    format_daemon_throughput,
    merge_daemon_throughput,
    run_daemon_throughput_benchmark,
)
from repro.insights.regression import check_regressions, format_regressions

from benchmarks.conftest import save_report

CLIENTS = 8
JOBS_PER_CLIENT = 4


def test_daemon_throughput_8_clients(benchmark):
    section = benchmark.pedantic(
        run_daemon_throughput_benchmark,
        kwargs={"clients": CLIENTS, "jobs_per_client": JOBS_PER_CLIENT},
        rounds=1,
        iterations=1,
    )

    path = merge_daemon_throughput(section)
    text = format_daemon_throughput(section)
    save_report("daemon_throughput", text)
    print(f"\n{text}\nwrote {path}")

    # Every job from every client completed (nothing lost, nothing failed).
    assert section["jobs_total"] == CLIENTS * JOBS_PER_CLIENT
    assert section["jobs_completed"] == section["jobs_total"]
    # Unique configurations -> one cache entry per job, every one priced.
    assert section["cache_entries"] == section["jobs_total"]

    # Throughput floor, declared in the regression watchdog's
    # WATCHED_METRICS: it only guards against the daemon path regressing
    # to unusable (e.g. a serialization or lock bottleneck).
    regressions = check_regressions({DAEMON_THROUGHPUT_SECTION: section})
    assert regressions.ok, format_regressions(regressions)
    missing = [
        c.metric
        for c in regressions.checks
        if c.status == "missing"
        and c.metric.startswith(DAEMON_THROUGHPUT_SECTION + ".")
    ]
    assert not missing, missing
