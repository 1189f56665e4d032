"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not paper tables/figures; they quantify why each design choice in
the reproduction matters:

* roofline vs pure-FLOP kernel cost model,
* value-aware vs value-agnostic embedding-index synthesis,
* profiler-guided multi-stream replay vs single-stream replay,
* parent/child operator deduplication on vs off.
"""

import pytest

import repro.api as api
from repro.bench.harness import capture_workload, replay_capture, unsupported_gpu_time_us
from repro.bench.reporting import format_table
from repro.core.replayer import ReplayConfig
from repro.core.selection import OperatorSelector
from repro.core.tensors import EmbeddingValueConfig
from repro.et.analyzer import iter_top_level_operators
from repro.torchsim.distributed import DistributedContext
from repro.torchsim.runtime import Runtime
from repro.workloads import build_workload
from repro.workloads.rm import RMConfig, RMWorkload

from benchmarks.conftest import save_report


def test_ablation_cost_model(benchmark, paper_captures):
    """Roofline vs pure-FLOP cost model: memory-bound workloads diverge."""

    def run():
        capture = paper_captures["rm"]
        roofline = api.replay(capture.execution_trace, capture.profiler_trace,
                              ReplayConfig(cost_model_mode="roofline")).run()
        flops_only = api.replay(capture.execution_trace, capture.profiler_trace,
                                ReplayConfig(cost_model_mode="flops")).run()
        return roofline, flops_only

    roofline, flops_only = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["roofline (ms)", roofline.mean_iteration_time_ms],
        ["flops-only (ms)", flops_only.mean_iteration_time_ms],
    ]
    text = format_table(["Cost model", "RM replay time"], rows, title="Ablation: kernel cost model")
    save_report("ablation_costmodel", text)
    print("\n" + text)
    # RM is embedding/memory heavy: dropping the bandwidth roof makes the
    # model substantially optimistic.
    assert flops_only.mean_iteration_time_us < 0.8 * roofline.mean_iteration_time_us


def test_ablation_embedding_values(benchmark, paper_captures):
    """Value-aware index synthesis matters for embedding-heavy replay accuracy."""

    def run():
        capture = paper_captures["rm"]
        value_aware = replay_capture(capture)
        value_agnostic = api.replay(
            capture.execution_trace, capture.profiler_trace,
            ReplayConfig(embedding_config=None),
        ).run()
        return capture, value_aware, value_agnostic

    capture, value_aware, value_agnostic = benchmark.pedantic(run, rounds=1, iterations=1)
    # Compare against the Table 4 calibrated reference (the original minus
    # the GPU time of operators the replayer skips).
    reference = capture.iteration_time_us - unsupported_gpu_time_us(capture)
    rows = [
        ["original excl. unsupported (ms)", reference / 1e3],
        ["replay with empirical index values (ms)", value_aware.mean_iteration_time_ms],
        ["replay with shape-only index tensors (ms)", value_agnostic.mean_iteration_time_ms],
    ]
    text = format_table(["Configuration", "Time"], rows, title="Ablation: embedding index values")
    save_report("ablation_embedding_values", text)
    print("\n" + text)
    error_aware = abs(value_aware.mean_iteration_time_us - reference)
    error_agnostic = abs(value_agnostic.mean_iteration_time_us - reference)
    # Shape-only index tensors lose the access-pattern information and make
    # the embedding kernels slower than the original (Section 4.4).
    assert value_agnostic.mean_iteration_time_us > value_aware.mean_iteration_time_us
    assert error_aware < error_agnostic


def test_ablation_parallel_streams(benchmark):
    """Profiler-guided stream placement preserves compute/comm overlap."""

    def run():
        dist = DistributedContext(rank=0, world_size=16)
        runtime = Runtime("A100", dist=dist)
        workload = RMWorkload(RMConfig(), rank=0, world_size=16)
        capture = capture_workload(workload, warmup_iterations=0, runtime=runtime)
        capture.execution_trace.metadata["world_size"] = 16
        multi_stream = api.replay(capture.execution_trace, capture.profiler_trace,
                                  ReplayConfig(use_streams=True)).run()
        single_stream = api.replay(capture.execution_trace, capture.profiler_trace,
                                   ReplayConfig(use_streams=False)).run()
        return capture, multi_stream, single_stream

    capture, multi_stream, single_stream = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["original (ms)", capture.iteration_time_us / 1e3],
        ["replay, profiler-guided streams (ms)", multi_stream.mean_iteration_time_ms],
        ["replay, single stream (ms)", single_stream.mean_iteration_time_ms],
    ]
    text = format_table(["Configuration", "Time"], rows, title="Ablation: parallel stream execution")
    save_report("ablation_streams", text)
    print("\n" + text)
    # Serialising everything onto one stream removes compute/communication
    # overlap and overestimates the iteration time.
    assert single_stream.mean_iteration_time_us > multi_stream.mean_iteration_time_us
    error_multi = abs(multi_stream.mean_iteration_time_us - capture.iteration_time_us)
    error_single = abs(single_stream.mean_iteration_time_us - capture.iteration_time_us)
    assert error_multi < error_single


def test_ablation_operator_selection(benchmark, paper_captures):
    """Parent/child dedup halts double-counting of composite operators."""

    def run():
        capture = paper_captures["param_linear"]
        deduplicated = iter_top_level_operators(capture.execution_trace)
        all_operators = capture.execution_trace.operators()
        replay = replay_capture(capture)
        return capture, deduplicated, all_operators, replay

    capture, deduplicated, all_operators, replay = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["operators in trace", len(all_operators)],
        ["operators after dedup", len(deduplicated)],
        ["original (ms)", capture.iteration_time_us / 1e3],
        ["replay of deduplicated plan (ms)", replay.mean_iteration_time_ms],
    ]
    text = format_table(["Quantity", "Value"], rows, title="Ablation: operator selection (dedup)")
    save_report("ablation_selection", text)
    print("\n" + text)
    # aten::linear contributes three trace nodes (linear, t, addmm) but only
    # one replayed operator; without dedup the replay would execute the GEMM
    # twice per layer.
    assert len(deduplicated) < len(all_operators)
    assert replay.mean_iteration_time_us == pytest.approx(capture.iteration_time_us, rel=0.06)
