"""Figure 9 — subtrace replay of the RM forward pass.

A ``record_function`` label delimits the forward pass; the replayer then
replays only the operators under that label, repeatedly, and the measured
subtrace time matches the same segment of the original run while everything
outside the label is left out.
"""

import pytest

import repro.api as api
from repro.bench.reporting import format_table
from repro.core.replayer import ReplayConfig

from benchmarks.conftest import save_report

FORWARD_LABEL = "## forward ##"


def run_fig9(capture):
    # The original GPU time of the labelled segment, restricted to the
    # operators the replayer supports (unsupported customs are skipped in
    # the replay, exactly as in the full-trace comparison of Table 4).
    from repro.core.selection import OperatorSelector

    forward_selection = OperatorSelector().select(
        capture.execution_trace, capture.profiler_trace, subtrace_label=FORWARD_LABEL
    )
    forward_gpu_time = forward_selection.coverage().supported_gpu_time_us

    subtrace_results = [
        api.replay(
            capture.execution_trace, capture.profiler_trace,
            ReplayConfig(subtrace_label=FORWARD_LABEL, iterations=1),
        ).run()
        for _ in range(2)  # two replay iterations, as in the paper's figure
    ]
    full_result = api.replay(
        capture.execution_trace, capture.profiler_trace, ReplayConfig(iterations=1)
    ).run()
    return forward_gpu_time, subtrace_results, full_result


def test_fig9_subtrace_replay(benchmark, paper_captures):
    capture = paper_captures["rm"]
    forward_gpu_time, subtrace_results, full_result = benchmark.pedantic(
        run_fig9, args=(capture,), rounds=1, iterations=1
    )

    rows = [
        ["original forward-segment GPU time (ms)", forward_gpu_time / 1e3],
        ["subtrace replay #1 (ms)", subtrace_results[0].mean_iteration_time_ms],
        ["subtrace replay #2 (ms)", subtrace_results[1].mean_iteration_time_ms],
        ["full replay (ms)", full_result.mean_iteration_time_ms],
        ["subtrace ops", subtrace_results[0].replayed_ops],
        ["full-trace ops", full_result.replayed_ops],
    ]
    text = format_table(["Quantity", "Value"], rows, title="Figure 9: RM forward-pass subtrace replay")
    save_report("fig9_subtrace", text)
    print("\n" + text)

    first, second = subtrace_results
    # Repeated subtrace replays are consistent with each other (paper: 9.8
    # vs 9.7 ms across iterations).
    assert abs(first.mean_iteration_time_us - second.mean_iteration_time_us) < 0.05 * first.mean_iteration_time_us
    # The subtrace replay captures the original segment's GPU time.
    assert first.timeline_stats.total_kernel_time_us == pytest.approx(forward_gpu_time, rel=0.20)
    # Only the target subtrace is replayed: fewer operators, less time.
    assert first.replayed_ops < full_result.replayed_ops
    assert first.mean_iteration_time_us < full_result.mean_iteration_time_us
