"""Integration tests tying the pipeline to the paper's headline claims.

Each test mirrors one evaluation claim at reduced scale, so the full-size
benchmarks in ``benchmarks/`` regenerate the actual tables/figures while the
test suite guards the qualitative behaviour.
"""

import pytest

import repro.api as api
from repro.bench.harness import capture_workload, compare_workload, replay_capture
from repro.core.replayer import ReplayConfig
from repro.core.registry import ReplaySupport
from repro.et.analyzer import ETAnalyzer
from repro.et.comparator import TraceComparator
from repro.hardware.power import PowerModel
from repro.hardware.specs import A100, NEW_PLATFORM, V100, XEON_CPU
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from tests.conftest import make_small_rm


def linear_workload():
    return ParamLinearWorkload(
        ParamLinearConfig(batch_size=128, num_layers=6, hidden_size=512, input_size=512)
    )


class TestTable4Claim:
    """Replay execution time closely matches the (calibrated) original."""

    def test_replay_error_within_ten_percent(self, small_resnet):
        for workload in (linear_workload(), small_resnet, make_small_rm()):
            comparison = compare_workload(workload)
            assert comparison.replay_error < 0.10, workload.name


class TestFigure5Claim:
    """System-level metrics of the replay track the original."""

    def test_macro_metrics_within_fifteen_percent(self):
        comparison = compare_workload(linear_workload())
        report = TraceComparator().compare_metrics(
            comparison.original_metrics.as_dict(), comparison.replay_metrics.as_dict()
        )
        assert report.passes(threshold=0.15)


class TestFigure6Claim:
    """Micro-architectural counters of the replayed kernels match."""

    def test_per_kernel_counters_match(self):
        from repro.bench.metrics import kernel_counters_by_name, top_kernel_names

        capture = capture_workload(linear_workload(), warmup_iterations=0)
        replay = replay_capture(capture)
        original_counters = kernel_counters_by_name(capture.kernel_launches, A100)
        replay_counters = kernel_counters_by_name(replay.kernel_launches, A100)
        for name in top_kernel_names(capture.kernel_launches, top_k=5):
            assert name in replay_counters
            original = original_counters[name]
            replayed = replay_counters[name]
            assert replayed.ipc == pytest.approx(original.ipc, rel=0.05)
            assert replayed.l1_hit_rate == pytest.approx(original.l1_hit_rate, abs=0.05)
            assert replayed.sm_throughput == pytest.approx(original.sm_throughput, rel=0.05)


class TestFigure7Claim:
    """Benchmarks generated from an A100 trace are portable across platforms."""

    @pytest.mark.parametrize("device", ["CPU", "V100", "A100"])
    def test_replay_matches_original_on_each_platform(self, device):
        workload = linear_workload()
        capture = capture_workload(workload, device="A100", warmup_iterations=0)
        from repro.bench.harness import run_original

        original = run_original(workload, device=device, iterations=1, warmup_iterations=0)
        replay = api.replay(
            capture.execution_trace, capture.profiler_trace, ReplayConfig(device=device)
        ).run()
        assert replay.mean_iteration_time_us == pytest.approx(
            original.mean_iteration_time_us, rel=0.15
        )

    def test_relative_speed_ordering_preserved(self):
        workload = linear_workload()
        capture = capture_workload(workload, device="A100", warmup_iterations=0)
        times = {}
        for device in ("CPU", "V100", "A100"):
            replay = api.replay(
                capture.execution_trace, capture.profiler_trace, ReplayConfig(device=device)
            ).run()
            times[device] = replay.mean_iteration_time_us
        assert times["CPU"] > times["V100"] > times["A100"]


class TestFigure8Claim:
    """Power-efficiency curves of replay track the original under power caps."""

    def test_efficiency_curve_shape_matches(self):
        workload = linear_workload()
        capture = capture_workload(workload, device="A100", warmup_iterations=0)
        original_curve = []
        replay_curve = []
        for limit in (150.0, 250.0, 400.0):
            from repro.bench.harness import run_original

            original = run_original(workload, iterations=1, warmup_iterations=0, power_limit_w=limit)
            power_model = PowerModel(A100, limit)
            original_eff = power_model.energy_efficiency(
                1.0, original.mean_iteration_time_us,
                original.timeline_stats.busy_fraction, original.timeline_stats.sm_utilization,
            )
            replay = api.replay(
                capture.execution_trace, capture.profiler_trace,
                ReplayConfig(device="A100", power_limit_w=limit),
            ).run()
            replay_eff = power_model.energy_efficiency(
                1.0, replay.mean_iteration_time_us,
                replay.timeline_stats.busy_fraction, replay.timeline_stats.sm_utilization,
            )
            original_curve.append(original_eff)
            replay_curve.append(replay_eff)
            assert replay_eff == pytest.approx(original_eff, rel=0.15)
        # Efficiency changes monotonically in the same direction for both.
        original_trend = [b - a for a, b in zip(original_curve, original_curve[1:])]
        replay_trend = [b - a for a, b in zip(replay_curve, replay_curve[1:])]
        for original_delta, replay_delta in zip(original_trend, replay_trend):
            assert (original_delta >= 0) == (replay_delta >= 0)


class TestFigure10Claim:
    """Early-stage platform evaluation: the replay predicts the new platform's win."""

    def test_new_platform_speedup_predicted(self):
        workload = linear_workload()
        capture = capture_workload(workload, device="A100", warmup_iterations=0)
        replay_times = {}
        for device in ("CPU", "A100", "NewPlatform"):
            replay = api.replay(
                capture.execution_trace, capture.profiler_trace, ReplayConfig(device=device)
            ).run()
            replay_times[device] = replay.mean_iteration_time_us
        speedup_a100 = replay_times["CPU"] / replay_times["A100"]
        speedup_new = replay_times["CPU"] / replay_times["NewPlatform"]
        assert speedup_new > speedup_a100 > 1.0


class TestFigure2Claim:
    """ATen operators dominate count and time; communication is visible."""

    def test_rm_distributed_breakdown(self):
        from repro.torchsim.distributed import DistributedContext
        from repro.torchsim.runtime import Runtime

        dist = DistributedContext(rank=0, world_size=8)
        runtime = Runtime("A100", dist=dist)
        capture = capture_workload(make_small_rm(0, 8), warmup_iterations=0, runtime=runtime)
        breakdown = ETAnalyzer(capture.execution_trace, capture.profiler_trace).category_breakdown()
        count_fractions = breakdown.count_fractions()
        assert count_fractions["aten"] > 0.5
        assert count_fractions["comms"] > 0.0
        assert breakdown.gpu_exposed_time_us.get("comms", 0.0) >= 0.0


class TestCustomOpInterfaceClaim:
    """Registering custom operators raises coverage (Section 6.3)."""

    def test_asr_coverage_with_and_without_fairseq(self, small_asr):
        capture = capture_workload(small_asr, warmup_iterations=0)
        default = replay_capture(capture)
        support = ReplaySupport()
        support.register_library("fairseq")
        extended = replay_capture(capture, support=support)
        assert default.coverage.time_coverage < 0.95
        assert extended.coverage.time_coverage > default.coverage.time_coverage
        assert extended.coverage.count_coverage >= default.coverage.count_coverage
