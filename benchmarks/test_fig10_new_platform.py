"""Figure 10 — early-stage evaluation of a new, experimental platform.

The generated benchmark has minimal software dependencies, so it can run on
a platform that only has the base stack installed, and predict the speedup
the real workload would see there.  The figure shows the speedup over CPU
for the existing platforms (where both original and replay run) and the
replay-predicted speedup for the new platform (where the original cannot yet
run).
"""

import repro.api as api
from repro.bench.harness import run_original
from repro.bench.reporting import format_series
from repro.core.replayer import ReplayConfig
from repro.workloads import build_workload

from benchmarks.conftest import save_report

WORKLOAD = "param_linear"
ESTABLISHED_PLATFORMS = ("CPU", "V100", "A100")
NEW_PLATFORM = "NewPlatform"


def run_fig10(paper_captures):
    capture = paper_captures[WORKLOAD]
    original_times = {}
    replay_times = {}
    for platform in ESTABLISHED_PLATFORMS:
        original = run_original(build_workload(WORKLOAD), device=platform, iterations=1, warmup_iterations=0)
        original_times[platform] = original.mean_iteration_time_us
        replay = api.replay(
            capture.execution_trace, capture.profiler_trace, ReplayConfig(device=platform)
        ).run()
        replay_times[platform] = replay.mean_iteration_time_us
    # The new platform only runs the generated benchmark.
    new_platform_replay = api.replay(
        capture.execution_trace, capture.profiler_trace, ReplayConfig(device=NEW_PLATFORM)
    ).run()
    replay_times[NEW_PLATFORM] = new_platform_replay.mean_iteration_time_us
    return original_times, replay_times


def test_fig10_early_stage_platform_evaluation(benchmark, paper_captures):
    original_times, replay_times = benchmark.pedantic(
        run_fig10, args=(paper_captures,), rounds=1, iterations=1
    )

    original_speedup = {
        platform: original_times["CPU"] / original_times[platform]
        for platform in ESTABLISHED_PLATFORMS
    }
    replay_speedup = {
        platform: replay_times["CPU"] / replay_times[platform]
        for platform in list(ESTABLISHED_PLATFORMS) + [NEW_PLATFORM]
    }
    text = format_series(
        {"Original speedup over CPU": original_speedup, "Replay speedup over CPU": replay_speedup},
        x_label="platform",
        title="Figure 10: speedup over CPU, including the not-yet-supported new platform",
    )
    save_report("fig10_new_platform", text)
    print("\n" + text)

    # Replay-predicted speedups agree with the measured ones on the
    # established platforms.
    for platform in ESTABLISHED_PLATFORMS:
        assert abs(replay_speedup[platform] - original_speedup[platform]) < 0.15 * original_speedup[platform]
    # The new platform is predicted to beat the A100 (the point of the
    # early-stage evaluation).
    assert replay_speedup[NEW_PLATFORM] > replay_speedup["A100"] > replay_speedup["V100"] > 1.0
