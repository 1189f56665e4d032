"""Replay-engine throughput — the perf-regression lock-in.

Unlike the table/figure benchmarks (which regenerate the *paper's*
numbers), this one measures the replay engine itself and writes the
versioned ``BENCH_replay_throughput.json`` trajectory file at the repo
root: execute-loop throughput for the PARAM-linear, RM and DDP-RM
traces, plus the :class:`~repro.profiling.ProfileHook` and
:class:`~repro.telemetry.TelemetryHook` overheads.  The assertions pin
the contract declared in ``repro.insights.regression.WATCHED_METRICS``
(the <5% per-op cost of either attached hook, and throughput against the
recorded history) so future changes cannot silently regress any of it.
The disabled telemetry path is separately pinned byte-identical by
``tests/test_telemetry_fastpath.py``.
"""

from repro.bench.throughput import (
    BENCH_WORKLOADS,
    format_report,
    run_benchmark,
    write_report,
)
from repro.insights.regression import check_regressions, format_regressions

from benchmarks.conftest import save_report


def test_replay_throughput_trajectory(benchmark, bench_file):
    report = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)

    path = write_report(report, bench_file)
    text = format_report(report)
    save_report("replay_throughput", text)
    print(f"\n{text}\nwrote {path}")

    assert set(report["workloads"]) == set(BENCH_WORKLOADS)
    for name, entry in report["workloads"].items():
        assert entry["ops"] > 0, name
        assert entry["ops_per_sec"] > 0, name

    # The hook-overhead ceilings (<5%) are declared once, in the
    # regression watchdog's WATCHED_METRICS.
    regressions = check_regressions(report)
    assert regressions.ok, format_regressions(regressions)
    # A renamed or dropped key must not pass as "missing".
    missing = [
        c.metric
        for c in regressions.checks
        if c.status == "missing"
        and c.metric.startswith(("workloads.", "profiler.", "telemetry_overhead."))
    ]
    assert not missing, missing
