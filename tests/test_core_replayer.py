"""Tests for the ET replayer, stream assignment and communication replay."""

import pytest

import repro.api as api
from repro.core.comms_replay import CommReplayManager
from repro.core.pipeline import ReplayPipeline
from repro.core.registry import ReplaySupport
from repro.core.replayer import ReplayConfig
from repro.core.streams import StreamAssigner
from repro.torchsim.distributed import DistributedContext
from repro.torchsim.stream import COMM_STREAM, DEFAULT_COMPUTE_STREAM
from repro.bench.harness import capture_workload
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from tests.conftest import make_small_rm


class TestStreamAssigner:
    def test_assignment_from_profiler_trace(self, captured_runtime_pieces):
        assignment = StreamAssigner().assign(
            captured_runtime_pieces["trace"], captured_runtime_pieces["profiler_trace"]
        )
        assert assignment.op_streams
        assert set(assignment.streams_used()) >= {DEFAULT_COMPUTE_STREAM}

    def test_without_profiler_everything_default(self, captured_runtime_pieces):
        assignment = StreamAssigner().assign(captured_runtime_pieces["trace"], None)
        assert assignment.op_streams == {}
        assert assignment.stream_for(12345) == DEFAULT_COMPUTE_STREAM

    def test_comm_ops_assigned_to_comm_stream(self):
        capture = _distributed_rm_capture()
        assignment = StreamAssigner().assign(capture.execution_trace, capture.profiler_trace)
        comm_nodes = [
            node for node in capture.execution_trace.operators() if node.namespace == "c10d"
        ]
        assert comm_nodes
        assert all(assignment.stream_for(node.id) == COMM_STREAM for node in comm_nodes)


def _distributed_rm_capture(world_size=4, rank=0):
    from repro.torchsim.runtime import Runtime

    dist = DistributedContext(rank=rank, world_size=world_size)
    runtime = Runtime("A100", rank=rank, dist=dist)
    workload = make_small_rm(rank=rank, world_size=world_size)
    capture = capture_workload(workload, warmup_iterations=0, runtime=runtime)
    capture.execution_trace.metadata["world_size"] = world_size
    return capture


class TestCommReplayManager:
    def test_extract_comm_records(self):
        capture = _distributed_rm_capture()
        records = CommReplayManager.extract(capture.execution_trace)
        assert records
        names = {record.name for record in records}
        assert "c10d::all_to_all" in names
        assert all(record.bytes_per_rank > 0 for record in records)
        assert all(record.recorded_group.get("ranks") == [0, 1, 2, 3] for record in records)

    def test_summary(self):
        capture = _distributed_rm_capture()
        summary = CommReplayManager.summarize(capture.execution_trace)
        assert summary.total_bytes > 0
        assert summary.per_collective_count["c10d::all_to_all"] >= 1
        assert 4 in summary.world_sizes

    def test_map_group_identity_by_default(self):
        manager = CommReplayManager()
        recorded = {"pg_id": 0, "ranks": [0, 1, 2, 3], "backend": "nccl"}
        assert manager.map_group(recorded) == recorded

    def test_map_group_remaps_to_smaller_world(self):
        manager = CommReplayManager(remap_to_world_size=2)
        remapped = manager.map_group({"pg_id": 0, "ranks": list(range(8)), "backend": "nccl"})
        assert remapped["ranks"] == [0, 1]

    def test_ensure_groups_creates_replay_groups(self):
        capture = _distributed_rm_capture()
        dist = DistributedContext(rank=0, world_size=4)
        manager = CommReplayManager(dist)
        manager.ensure_groups(CommReplayManager.extract(capture.execution_trace))
        # The default all-rank group matches the recorded one, so no extra
        # groups beyond those recorded are needed.
        assert len(dist.groups) >= 1


class TestReplayer:
    def test_replay_reproduces_iteration_time(self, small_linear_capture):
        result = api.replay(
            small_linear_capture.execution_trace,
            small_linear_capture.profiler_trace,
            ReplayConfig(iterations=1),
        ).run()
        original = small_linear_capture.iteration_time_us
        assert result.mean_iteration_time_us == pytest.approx(original, rel=0.10)
        assert result.skipped_ops == 0
        assert result.coverage.count_coverage == pytest.approx(1.0)

    def test_replay_system_metrics_close_to_original(self, small_linear_capture):
        result = api.replay(
            small_linear_capture.execution_trace,
            small_linear_capture.profiler_trace,
            ReplayConfig(),
        ).run()
        original = small_linear_capture.system_metrics
        assert result.system_metrics.sm_utilization_pct == pytest.approx(
            original.sm_utilization_pct, rel=0.15
        )
        assert result.system_metrics.hbm_bandwidth_gbps == pytest.approx(
            original.hbm_bandwidth_gbps, rel=0.15
        )

    def test_multiple_iterations_recorded(self, small_linear_capture):
        result = api.replay(
            small_linear_capture.execution_trace,
            small_linear_capture.profiler_trace,
            ReplayConfig(iterations=3),
        ).run()
        assert len(result.iteration_times_us) == 3
        spread = max(result.iteration_times_us) - min(result.iteration_times_us)
        assert spread < 0.05 * result.mean_iteration_time_us

    def test_unsupported_ops_skipped_and_counted(self):
        capture = capture_workload(make_small_rm(), warmup_iterations=0)
        result = api.replay(capture.execution_trace, capture.profiler_trace, ReplayConfig()).run()
        assert result.skipped_ops > 0
        assert result.coverage.count_coverage < 1.0
        assert result.mean_iteration_time_us < capture.iteration_time_us

    def test_registering_custom_ops_improves_coverage(self, small_asr):
        capture = capture_workload(small_asr, warmup_iterations=0)
        default_result = api.replay(
            capture.execution_trace, capture.profiler_trace, ReplayConfig()
        ).run()
        support = ReplaySupport()
        support.register_library("fairseq")
        extended_result = api.replay(
            capture.execution_trace, capture.profiler_trace, ReplayConfig(), support=support
        ).run()
        assert extended_result.coverage.time_coverage > default_result.coverage.time_coverage
        assert extended_result.mean_iteration_time_us > default_result.mean_iteration_time_us

    def test_subtrace_replay_shorter_than_full(self, small_linear_capture):
        full = api.replay(
            small_linear_capture.execution_trace, small_linear_capture.profiler_trace, ReplayConfig()
        ).run()
        forward_only = api.replay(
            small_linear_capture.execution_trace,
            small_linear_capture.profiler_trace,
            ReplayConfig(subtrace_label="## forward ##"),
        ).run()
        assert 0 < forward_only.mean_iteration_time_us < full.mean_iteration_time_us
        assert forward_only.replayed_ops < full.replayed_ops

    def test_category_filtered_replay(self):
        capture = _distributed_rm_capture()
        comm_only = api.replay(
            capture.execution_trace,
            capture.profiler_trace,
            ReplayConfig(categories=["comms"], world_size=4),
        ).run()
        assert comm_only.replayed_ops > 0
        assert comm_only.mean_iteration_time_us < capture.iteration_time_us
        kernels = comm_only.kernel_launches
        assert all(k.category.value == "comms" for k in kernels)

    def test_distributed_trace_replay_uses_world_size(self):
        capture = _distributed_rm_capture(world_size=4)
        result = api.replay(capture.execution_trace, capture.profiler_trace, ReplayConfig()).run()
        assert result.mean_iteration_time_us == pytest.approx(capture.iteration_time_us, rel=0.25)

    def test_profiling_can_be_disabled(self, small_linear_capture):
        result = api.replay(
            small_linear_capture.execution_trace,
            small_linear_capture.profiler_trace,
            ReplayConfig(profile=False),
        ).run()
        assert result.profiler_trace is None
        assert result.mean_iteration_time_us > 0

    def test_warmup_iterations_not_measured(self, small_linear_capture):
        result = api.replay(
            small_linear_capture.execution_trace,
            small_linear_capture.profiler_trace,
            ReplayConfig(iterations=1, warmup_iterations=2),
        ).run()
        assert len(result.iteration_times_us) == 1

    def test_build_reports_reconstruction_failures(self, small_linear_capture):
        context = api.replay(
            small_linear_capture.execution_trace,
            small_linear_capture.profiler_trace,
            ReplayConfig(),
            pipeline=ReplayPipeline.build_only(),
        ).run_context()
        assert context.reconstruction_failures == {}
        assert len(context.reconstructed) == len(context.selection.supported_entries())
