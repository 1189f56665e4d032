"""Schema guard for the BENCH trajectory file.

``make bench`` must leave a schema-valid, versioned
``BENCH_replay_throughput.json`` at the repository root — scripts diff
these files across commits, so shape drift is a breaking change.  This
test writes a quick single-workload report through the real
``run_benchmark``/``write_report`` path and asserts the contract; the full
measurement in ``test_replay_throughput.py`` (which sorts after this file)
then overwrites the session's file (``bench_file``) with the complete
numbers.
"""

import json

from repro.bench.throughput import (
    BENCH_FILENAME,
    BENCH_SCHEMA_VERSION,
    run_benchmark,
    write_report,
)

#: Per-workload keys scripts parsing the trajectory rely on.
WORKLOAD_KEYS = {"ops", "ops_per_sec"}


def test_bench_file_is_schema_valid_and_versioned(bench_file):
    report = run_benchmark(workloads=("param_linear",), min_seconds=0.05)
    path = write_report(report, bench_file)

    assert path.name == BENCH_FILENAME
    data = json.loads(path.read_text())

    assert data["schema_version"] == BENCH_SCHEMA_VERSION
    assert data["device"]
    assert data["workloads"], "BENCH file must cover at least one workload"
    for name, entry in data["workloads"].items():
        assert WORKLOAD_KEYS <= set(entry), name
        assert entry["ops"] > 0, name
        assert entry["ops_per_sec"] > 0, name
    # The profiler section accompanies the headline (RM) workload run.
    if "profiler" in data:
        assert data["profiler"]["baseline_ops_per_sec"] > 0
        assert data["profiler"]["profiled_ops_per_sec"] > 0


def test_bench_report_round_trips_to_custom_path(tmp_path):
    report = run_benchmark(workloads=("param_linear",), min_seconds=0.02)
    path = write_report(report, tmp_path / BENCH_FILENAME)
    assert json.loads(path.read_text()) == json.loads(json.dumps(report))
