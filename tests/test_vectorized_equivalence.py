"""Byte-identical equivalence of the vectorized and scalar execute paths.

The vectorized executor (:mod:`repro.core.vectorize`) is an execution
*strategy*: it may only change how fast the replay engine runs, never what
it measures.  These tests pin that contract at full strength — not "close
enough" float comparisons but exact equality of every observable:

* the cached summary (``summarize().to_dict()``), float-for-float,
* every kernel launch (timestamps, durations, stream placement,
  correlation ids) in order,
* every virtual profiler event (``profile=True`` replays),
* and the service layer's cache identity: ``vectorized`` is excluded from
  ``ReplayConfig.to_dict()``/``digest()``, so both modes share one cache
  entry.

A hypothesis property sweep varies the workload shapes (PARAM-linear, RM,
DDP-RM) so the equivalence holds across program structures — repeated op
groups, embedding lookups, and scalar-forever comms ops alike.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import repro.api as api
from repro.core import vectorize
from repro.core.pipeline import ExecuteStage, InitCommsStage, ReplayContext, ReplayPipeline
from repro.core.replayer import ReplayConfig
from repro.workloads.ddp import DistributedRunner
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from repro.workloads.rm import RMConfig, RMWorkload

from tests.conftest import make_small_rm


def _launch_key(launch):
    return (
        launch.op_name,
        launch.op_node_id,
        launch.correlation_id,
        launch.stream_id,
        launch.category,
        launch.desc.name,
        launch.launch_ts,
        launch.duration,
        launch.start,
        launch.end,
    )


def assert_equivalent(trace, profiler_trace=None, iterations=2, warmup=1, profile=True):
    """Replay both ways and assert every observable is byte-identical."""

    def run(vectorized: bool):
        config = ReplayConfig(
            iterations=iterations,
            warmup_iterations=warmup,
            profile=profile,
            vectorized=vectorized,
        )
        return api.replay(trace, profiler_trace=profiler_trace, config=config).run()

    scalar = run(False)
    fast = run(True)

    # Scalar measurements, exact — the cache stores these.
    assert fast.summarize().to_dict() == scalar.summarize().to_dict()
    assert fast.iteration_times_us == scalar.iteration_times_us

    # The full kernel schedule, launch for launch.
    assert len(fast.kernel_launches) == len(scalar.kernel_launches)
    for fast_launch, scalar_launch in zip(fast.kernel_launches, scalar.kernel_launches):
        assert _launch_key(fast_launch) == _launch_key(scalar_launch)

    # The virtual profiler trace, event for event.
    if profile:
        fast_events = [event.to_dict() for event in fast.profiler_trace.events]
        scalar_events = [event.to_dict() for event in scalar.profiler_trace.events]
        assert fast_events == scalar_events
    return scalar, fast


# ----------------------------------------------------------------------
# Cache identity
# ----------------------------------------------------------------------
class TestCacheIdentity:
    def test_vectorized_is_excluded_from_canonical_form(self):
        assert "vectorized" not in ReplayConfig().to_dict()
        assert "vectorized" not in ReplayConfig(vectorized=False).to_dict()

    def test_both_modes_share_one_cache_digest(self):
        fast = ReplayConfig(device="V100", iterations=3, vectorized=True)
        scalar = ReplayConfig(device="V100", iterations=3, vectorized=False)
        assert fast.digest() == scalar.digest()

    def test_from_dict_still_accepts_vectorized(self):
        config = ReplayConfig.from_dict({"vectorized": False})
        assert config.vectorized is False


# ----------------------------------------------------------------------
# Fixed-shape equivalence (fast, always run in full)
# ----------------------------------------------------------------------
class TestEquivalenceFixedShapes:
    def test_param_linear(self, small_linear_capture):
        assert_equivalent(
            small_linear_capture.execution_trace,
            small_linear_capture.profiler_trace,
        )

    def test_rm(self, small_rm):
        capture = api.capture(small_rm)
        assert_equivalent(capture.execution_trace, capture.profiler_trace)

    def test_ddp_rm_single_rank_replay(self):
        runner = DistributedRunner(
            lambda rank, world_size: make_small_rm(rank, world_size), world_size=2
        )
        capture = runner.run_rank(0)
        scalar, fast = assert_equivalent(
            capture.execution_trace, capture.profiler_trace
        )
        # Comms ops are scalar-forever in the vectorized executor but must
        # still replay (not skip): both paths replay the same op count.
        assert fast.replayed_ops == scalar.replayed_ops > 0

    def test_profile_disabled_replay_is_also_identical(self, small_linear_capture):
        assert_equivalent(
            small_linear_capture.execution_trace,
            small_linear_capture.profiler_trace,
            profile=False,
        )

    def test_single_measured_iteration_without_warmup(self, small_linear_capture):
        # A single pass runs the scalar loop on both sides (see
        # TestSinglePassRunsScalar); the result is still byte-identical.
        assert_equivalent(
            small_linear_capture.execution_trace,
            small_linear_capture.profiler_trace,
            iterations=1,
            warmup=0,
        )

    def test_two_measured_iterations_without_warmup(self, small_linear_capture):
        # No warm-up means the vectorized executor captures/verifies its
        # programs *inside* the measured region — still byte-identical.
        assert_equivalent(
            small_linear_capture.execution_trace,
            small_linear_capture.profiler_trace,
            iterations=2,
            warmup=0,
        )

    def test_cluster_replay_is_identical_either_way(self):
        runner = DistributedRunner(
            lambda rank, world_size: make_small_rm(rank, world_size), world_size=2
        )
        captures = runner.run()

        def run(vectorized: bool):
            return (
                api.replay_cluster(captures)
                .configure(vectorized=vectorized)
                .iterations(2, warmup=1)
                .run()
            )

        scalar, fast = run(False), run(True)
        assert fast.to_dict() == scalar.to_dict()


class TestSinglePassRunsScalar:
    """At one pass (``iterations=1, warmup=0``, the default) nothing the
    vectorizer learns would be reused, so ``ExecuteStage.steps()`` runs the
    scalar loop; ``replay_once`` (the throughput benchmarks' steady-state
    pass) still runs the vectorized one."""

    @staticmethod
    def _config(vectorized: bool) -> ReplayConfig:
        return ReplayConfig(iterations=1, warmup_iterations=0, vectorized=vectorized)

    def test_single_pass_learns_no_programs(self, small_linear_capture):
        def run(vectorized: bool) -> ReplayContext:
            return api.replay(
                small_linear_capture.execution_trace,
                profiler_trace=small_linear_capture.profiler_trace,
                config=self._config(vectorized),
            ).run_context()

        fast, scalar = run(True), run(False)
        assert vectorize.EXTRAS_KEY not in fast.extras
        assert fast.result.summarize().to_dict() == scalar.result.summarize().to_dict()

    def test_replay_once_still_runs_vectorized(self, small_linear_capture):
        context = ReplayContext(
            trace=small_linear_capture.execution_trace,
            profiler_trace=small_linear_capture.profiler_trace,
            config=self._config(True),
        )
        ReplayPipeline.build_only().run_context(context)
        InitCommsStage().run(context)
        ExecuteStage().replay_once(context, context.runtime)
        assert isinstance(context.extras.get(vectorize.EXTRAS_KEY), vectorize.VectorizedExecutor)


# ----------------------------------------------------------------------
# Property sweep over workload shapes
# ----------------------------------------------------------------------
class TestEquivalenceProperties:
    @settings(max_examples=5, deadline=None)
    @given(
        num_layers=st.integers(min_value=1, max_value=3),
        hidden_size=st.sampled_from([8, 16, 32]),
        batch_size=st.sampled_from([4, 16]),
    )
    def test_param_linear_shapes(self, num_layers, hidden_size, batch_size):
        workload = ParamLinearWorkload(
            ParamLinearConfig(
                batch_size=batch_size,
                num_layers=num_layers,
                hidden_size=hidden_size,
                input_size=hidden_size,
            )
        )
        capture = api.capture(workload)
        assert_equivalent(capture.execution_trace, capture.profiler_trace)

    @settings(max_examples=3, deadline=None)
    @given(
        num_tables=st.integers(min_value=2, max_value=4),
        embedding_dim=st.sampled_from([8, 16]),
        pooling_factor=st.integers(min_value=1, max_value=4),
    )
    def test_rm_shapes(self, num_tables, embedding_dim, pooling_factor):
        workload = RMWorkload(
            RMConfig(
                batch_size=16,
                num_tables=num_tables,
                rows_per_table=500,
                embedding_dim=embedding_dim,
                pooling_factor=pooling_factor,
                bottom_mlp=(16, 8),
                top_mlp=(32, 16),
            )
        )
        capture = api.capture(workload)
        assert_equivalent(capture.execution_trace, capture.profiler_trace)

    @settings(max_examples=2, deadline=None)
    @given(world_size=st.integers(min_value=2, max_value=3))
    def test_ddp_rm_shapes(self, world_size):
        runner = DistributedRunner(
            lambda rank, ws: make_small_rm(rank, ws), world_size=world_size
        )
        capture = runner.run_rank(0)
        assert_equivalent(capture.execution_trace, capture.profiler_trace)
