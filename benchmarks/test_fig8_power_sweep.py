"""Figure 8 — energy-efficiency sensitivity to the device power limit.

The GPU power limit is swept from 100 W to 350 W; energy efficiency
(throughput per watt, normalised to its maximum across the sweep) is
compared between each original workload and its generated benchmark.  The
claim: the replay tracks the original's sensitivity curve, so the benchmark
can stand in for the real workload in power-efficiency studies.
"""

import repro.api as api
from repro.bench.harness import run_original
from repro.bench.reporting import format_series
from repro.core.replayer import ReplayConfig
from repro.hardware.power import PowerModel
from repro.hardware.specs import A100
from repro.workloads import build_workload

from benchmarks.conftest import PAPER_WORKLOADS, save_report

POWER_LIMITS = (100.0, 150.0, 200.0, 250.0, 300.0, 350.0)


def _efficiency(time_us, stats, limit):
    model = PowerModel(A100, limit)
    return model.energy_efficiency(1.0, time_us, stats.busy_fraction, stats.sm_utilization)


def _normalise(curve):
    peak = max(curve.values())
    return {limit: value / peak for limit, value in curve.items()}


def run_fig8(paper_captures):
    curves = {}
    for name in PAPER_WORKLOADS:
        capture = paper_captures[name]
        workload = build_workload(name)
        original_curve = {}
        replay_curve = {}
        for limit in POWER_LIMITS:
            original = run_original(workload, iterations=1, warmup_iterations=0, power_limit_w=limit)
            original_curve[limit] = _efficiency(
                original.mean_iteration_time_us, original.timeline_stats, limit
            )
            replay = api.replay(
                capture.execution_trace, capture.profiler_trace,
                ReplayConfig(device="A100", power_limit_w=limit),
            ).run()
            replay_curve[limit] = _efficiency(
                replay.mean_iteration_time_us, replay.timeline_stats, limit
            )
        curves[name] = (_normalise(original_curve), _normalise(replay_curve))
    return curves


def test_fig8_power_efficiency_sweep(benchmark, paper_captures):
    curves = benchmark.pedantic(run_fig8, args=(paper_captures,), rounds=1, iterations=1)

    series = {}
    for name, (original, replay) in curves.items():
        series[f"{name} original"] = original
        series[f"{name} replay"] = replay
    text = format_series(series, x_label="power limit (W)",
                         title="Figure 8: normalised energy efficiency vs device power limit")
    save_report("fig8_power_sweep", text)
    print("\n" + text)

    for name, (original, replay) in curves.items():
        # The replay tracks the original's curve point by point.
        for limit in POWER_LIMITS:
            assert abs(replay[limit] - original[limit]) < 0.10, (name, limit)
        # And follows the same trend direction between consecutive limits.
        limits = sorted(POWER_LIMITS)
        for low, high in zip(limits, limits[1:]):
            original_delta = original[high] - original[low]
            replay_delta = replay[high] - replay[low]
            if abs(original_delta) > 0.02:
                assert (original_delta > 0) == (replay_delta > 0), (name, low, high)
