"""Tests for the replay-engine profiler (``repro.profiling``).

Covers the three guarantees the profiling subsystem makes:

* **Aggregation correctness** — per-op counts/totals/min/max/shares and
  per-stage wall times, driven through the hook protocol with a fake
  clock so every expected number is exact.
* **Zero overhead when disabled** — a pipeline without hooks never even
  calls the per-op notification path (asserted by making that path
  explode), and ``result.profile_report`` stays ``None``.
* **Serialisation** — a :class:`ProfileReport` round-trips through the
  service layer's canonical JSON serializer and its own ``from_dict``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.api as api
from repro.core.pipeline import ReplayContext
from repro.profiling import PROFILE_SCHEMA_VERSION, OpProfile, ProfileHook, ProfileReport
from repro.profiling import profiler as profiler_module
from repro.service import serialize


class FakeClock:
    """A deterministic ``perf_counter`` stand-in: advances on demand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _entry(name: str) -> SimpleNamespace:
    return SimpleNamespace(node=SimpleNamespace(name=name))


def _stage(name: str) -> SimpleNamespace:
    return SimpleNamespace(name=name)


def _context(measuring: bool = True) -> SimpleNamespace:
    return SimpleNamespace(measuring=measuring)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
class TestProfileHookAggregation:
    def test_per_op_counts_totals_and_extrema(self):
        clock = FakeClock()
        hook = ProfileHook(clock=clock)
        context = _context(measuring=True)

        hook.on_stage_start(context, _stage("execute"))
        for delta, name in [(0.002, "aten::mm"), (0.001, "aten::relu"), (0.004, "aten::mm")]:
            clock.advance(delta)
            hook.on_op_replayed(context, _entry(name), None)
        clock.advance(0.0005)
        hook.on_stage_end(context, _stage("execute"))

        report = hook.report(trace_name="t", device="A100", vectorized=False)
        assert report.replayed_ops == 3
        assert report.measured_ops == 3
        assert [op.name for op in report.ops] == ["aten::mm", "aten::relu"]

        mm = report.ops[0]
        assert mm.count == 2
        assert mm.total_ms == pytest.approx(6.0)
        assert mm.mean_us == pytest.approx(3000.0)
        assert mm.min_us == pytest.approx(2000.0)
        assert mm.max_us == pytest.approx(4000.0)
        assert mm.share_pct == pytest.approx(600 / 7)

        relu = report.ops[1]
        assert relu.count == 1
        assert relu.share_pct == pytest.approx(100 / 7)
        # Shares cover the whole measured per-op time.
        assert sum(op.share_pct for op in report.ops) == pytest.approx(100.0)

        # Stage wall time includes the trailing non-op time.
        assert report.stage_wall_s["execute"] == pytest.approx(0.0075)
        assert report.execute_wall_s == pytest.approx(0.0075)

        # Throughput counts measured ops over the first-to-last-op window.
        assert report.ops_per_sec == pytest.approx(3 / 0.007)

    def test_warmup_ops_counted_but_not_measured(self):
        clock = FakeClock()
        hook = ProfileHook(clock=clock)
        hook.on_stage_start(_context(), _stage("execute"))
        clock.advance(0.010)
        hook.on_op_replayed(_context(measuring=False), _entry("a"), None)
        clock.advance(0.001)
        hook.on_op_replayed(_context(measuring=True), _entry("a"), None)

        report = hook.report()
        assert report.replayed_ops == 2
        assert report.measured_ops == 1
        assert report.ops[0].count == 2
        # The measured window covers only the measured op.
        assert report.ops_per_sec == pytest.approx(1 / 0.001)

    def test_hot_first_ordering_breaks_ties_by_name(self):
        clock = FakeClock()
        hook = ProfileHook(clock=clock)
        hook.on_stage_start(_context(), _stage("execute"))
        for name in ["b", "a", "c"]:
            clock.advance(0.001)
            hook.on_op_replayed(_context(), _entry(name), None)
        assert [op.name for op in hook.report().ops] == ["a", "b", "c"]

    def test_reset_forgets_everything(self):
        clock = FakeClock()
        hook = ProfileHook(clock=clock)
        hook.on_stage_start(_context(), _stage("execute"))
        clock.advance(0.001)
        hook.on_op_replayed(_context(), _entry("a"), None)
        hook.reset()
        report = hook.report()
        assert report.replayed_ops == 0
        assert report.ops == []
        assert report.ops_per_sec == 0.0

    def test_reset_drops_private_stage_spans(self):
        clock = FakeClock()
        hook = ProfileHook(clock=clock)
        hook.on_stage_start(_context(), _stage("execute"))
        clock.advance(0.001)
        hook.on_stage_end(_context(), _stage("execute"))
        assert len(hook.tracer.spans) == 1
        hook.reset()
        assert hook.tracer.spans == ()
        assert hook.report().stage_wall_s == {}

    def test_empty_hook_reports_cleanly(self):
        report = ProfileHook(clock=FakeClock()).report()
        assert report.replayed_ops == 0
        assert report.ops_per_sec == 0.0
        assert report.total_op_ms == 0.0
        # format_table degrades gracefully with no ops.
        assert "replay profile" in report.format_table()

    def test_atexit_registration_is_opt_in(self):
        before = list(profiler_module._atexit_hooks)
        ProfileHook(clock=FakeClock())
        assert profiler_module._atexit_hooks == before
        hook = ProfileHook(clock=FakeClock(), report_at_exit=True)
        assert profiler_module._atexit_hooks[-1] is hook
        profiler_module._atexit_hooks.remove(hook)


# ----------------------------------------------------------------------
# Zero overhead when disabled
# ----------------------------------------------------------------------
class TestZeroOverheadWhenDisabled:
    def test_unhooked_replay_never_touches_notification_path(
        self, small_linear_capture, monkeypatch
    ):
        def explode(self, entry, output):  # pragma: no cover - must not run
            raise AssertionError("per-op notification ran without hooks")

        monkeypatch.setattr(ReplayContext, "emit_op_replayed", explode)
        result = api.replay(small_linear_capture).run()
        assert result.replayed_ops > 0
        assert result.profile_report is None

    def test_profiled_and_unprofiled_results_are_identical(self, small_linear_capture):
        plain = api.replay(small_linear_capture).iterations(2, warmup=1).run()
        profiled = (
            api.replay(small_linear_capture)
            .iterations(2, warmup=1)
            .with_profiling()
            .run()
        )
        assert profiled.summarize().to_dict() == plain.summarize().to_dict()
        assert profiled.profile_report is not None


# ----------------------------------------------------------------------
# End-to-end through the api facade
# ----------------------------------------------------------------------
class TestWithProfiling:
    def test_session_report_counts_every_replayed_op(self, small_linear_capture):
        result = (
            api.replay(small_linear_capture)
            .iterations(2, warmup=1)
            .with_profiling()
            .run()
        )
        report = result.profile_report
        per_pass = result.replayed_ops // 2
        # 1 warm-up + 2 measured passes observed; 2 measured.
        assert report.replayed_ops == 3 * per_pass
        assert report.measured_ops == result.replayed_ops
        assert report.ops_per_sec > 0
        assert report.vectorized is True
        assert report.device == "A100"
        assert report.trace_name == "param_linear"
        assert set(report.stage_wall_s) >= {"select", "reconstruct", "execute", "measure"}

    def test_session_report_respects_scalar_config(self, small_linear_capture):
        result = (
            api.replay(small_linear_capture)
            .configure(vectorized=False)
            .with_profiling()
            .run()
        )
        assert result.profile_report.vectorized is False

    def test_cluster_profiling_reports_every_rank(self):
        from repro.workloads.ddp import DistributedRunner

        from tests.conftest import make_small_rm

        runner = DistributedRunner(
            lambda rank, world_size: make_small_rm(rank, world_size), world_size=2
        )
        report = api.replay_cluster(runner.run()).with_profiling().run()
        assert sorted(report.profile_reports) == [0, 1]
        assert report.has_profiles
        for rank_report in report.ranks:
            assert rank_report.profile.replayed_ops > 0
        payload = report.to_dict()
        assert all("profile" in rank for rank in payload["ranks"])

    def test_cluster_without_profiling_has_no_reports(self):
        from repro.workloads.ddp import DistributedRunner

        from tests.conftest import make_small_rm

        runner = DistributedRunner(
            lambda rank, world_size: make_small_rm(rank, world_size), world_size=2
        )
        report = api.replay_cluster(runner.run()).run()
        assert not report.has_profiles
        assert report.profile_reports == {}
        assert all("profile" not in rank for rank in report.to_dict()["ranks"])


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
class TestProfileReportSerialisation:
    def _sample_report(self) -> ProfileReport:
        clock = FakeClock()
        hook = ProfileHook(clock=clock)
        hook.on_stage_start(_context(), _stage("execute"))
        for delta, name in [(0.002, "aten::mm"), (0.001, "aten::relu")]:
            clock.advance(delta)
            hook.on_op_replayed(_context(), _entry(name), None)
        hook.on_stage_end(_context(), _stage("execute"))
        return hook.report(trace_name="rm", device="V100", vectorized=False)

    def test_round_trip_through_service_serializer(self):
        report = self._sample_report()
        data = json.loads(serialize.dumps(report))
        assert data["schema_version"] == PROFILE_SCHEMA_VERSION
        rebuilt = ProfileReport.from_dict(data)
        assert rebuilt == report
        # And the rebuilt report serialises identically.
        assert rebuilt.to_dict() == report.to_dict()

    def test_to_dict_carries_the_parsed_keys(self):
        data = self._sample_report().to_dict()
        assert {
            "schema_version", "trace_name", "device", "vectorized",
            "replayed_ops", "measured_ops", "stage_wall_s", "execute_wall_s",
            "ops_per_sec", "ops",
        } <= set(data)
        assert all(isinstance(op["count"], int) for op in data["ops"])

    def test_op_profile_round_trip(self):
        op = OpProfile(
            name="aten::mm", count=3, total_ms=1.5, mean_us=500.0,
            min_us=400.0, max_us=700.0, share_pct=60.0,
        )
        assert OpProfile.from_dict(op.to_dict()) == op

    def test_profile_payload_shape(self):
        reports = {"rm": self._sample_report()}
        payload = json.loads(serialize.dumps(serialize.profile_payload(reports)))
        assert payload["schema_version"] == PROFILE_SCHEMA_VERSION
        assert set(payload["reports"]) == {"rm"}
        assert payload["reports"]["rm"]["device"] == "V100"


# ----------------------------------------------------------------------
# The monotonic-clock lint rule
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_usage_checker():
    import sys

    spec = importlib.util.spec_from_file_location(
        "check_deprecated_usage", REPO_ROOT / "scripts" / "check_deprecated_usage.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Registered before exec: dataclass field-annotation resolution looks
    # the module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestMonotonicClockGuard:
    """``scripts/check_deprecated_usage.py`` bans ``time.time(`` wherever
    host durations are measured (bench + profiling)."""

    def test_repository_is_clean(self):
        checker = _load_usage_checker()
        offenders = checker.find_offenders(REPO_ROOT)
        assert offenders == {}

    def test_rule_fires_on_time_time(self, tmp_path):
        checker = _load_usage_checker()
        bad = tmp_path / "src" / "repro" / "profiling"
        bad.mkdir(parents=True)
        (bad / "x.py").write_text("import time\nstart = time.time()\n")
        offenders = checker.find_offenders(tmp_path)
        assert list(offenders) == ["non-monotonic-clock"]
        assert "x.py:2" in offenders["non-monotonic-clock"][0]

    def test_perf_counter_is_allowed(self, tmp_path):
        checker = _load_usage_checker()
        ok = tmp_path / "src" / "repro" / "bench"
        ok.mkdir(parents=True)
        (ok / "x.py").write_text("import time\nstart = time.perf_counter()\n")
        assert checker.find_offenders(tmp_path) == {}

    def test_bench_and_profiling_are_both_covered(self):
        checker = _load_usage_checker()
        clock_rule = next(r for r in checker.RULES if r.name == "non-monotonic-clock")
        assert set(clock_rule.roots) == {"src/repro/bench", "src/repro/profiling"}


class TestBatchReplayerGuard:
    """``scripts/check_deprecated_usage.py`` bans constructing
    ``BatchReplayer`` outside the service layer and the daemon — batch
    execution policy (cache, error capture, pause semantics) stays in one
    place."""

    def test_rule_fires_on_direct_construction(self, tmp_path):
        checker = _load_usage_checker()
        bad = tmp_path / "src" / "repro" / "api"
        bad.mkdir(parents=True)
        (bad / "x.py").write_text("replayer = BatchReplayer(cache=None)\n")
        offenders = checker.find_offenders(tmp_path)
        assert list(offenders) == ["direct-batch-replayer"]
        assert "x.py:1" in offenders["direct-batch-replayer"][0]

    def test_service_and_daemon_directories_are_exempt(self, tmp_path):
        checker = _load_usage_checker()
        for exempt_dir in ("service", "daemon"):
            ok = tmp_path / "src" / "repro" / exempt_dir
            ok.mkdir(parents=True)
            (ok / "x.py").write_text("replayer = BatchReplayer(cache=None)\n")
        assert checker.find_offenders(tmp_path) == {}

    def test_exempt_entries_are_directory_prefixes(self):
        checker = _load_usage_checker()
        rule = next(r for r in checker.RULES if r.name == "direct-batch-replayer")
        assert "src/repro/service/" in rule.exempt
        assert "src/repro/daemon/" in rule.exempt
