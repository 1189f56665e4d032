"""Tests for repro.insights (critical path, diffing, regression watchdog).

Covers the subsystem's acceptance scenarios:

* critical-path analysis of a 4-rank DDP-RM fleet with rank 0 on a
  slower device names the straggler rank and its dominant collective
  deterministically (pinned below);
* a synthetic A/B diff attributes >= 95% of an injected comms slowdown
  to the perturbed op class;
* the regression watchdog passes on the repository's own BENCH file and
  exits non-zero on a seeded drop;

plus the satellites that ride along: structured JSON-lines logging with
tracer correlation, the daemon's ``GET /jobs/<id>/analysis`` route, and
the serializer-bypass lint rule.
"""

from __future__ import annotations

import io
import json
import logging
import sys
import urllib.request
from pathlib import Path

import pytest

import repro.api as api
from repro.bench.harness import capture_workload
from repro.daemon import ReplayDaemon
from repro.daemon.jobs import DAEMON_SCHEMA_VERSION, JobSpec
from repro.daemon.server import DaemonServer
from repro.insights import (
    INSIGHTS_SCHEMA_VERSION,
    RunProfile,
    TrajectoryStore,
    analyze_critical_path,
    analyze_job_result,
    check_regressions,
    collective_name,
    diff_runs,
    format_critical_path,
    format_diff,
    format_regressions,
)
from repro.service import TraceRepository
from repro.telemetry import Tracer, get_logger
from repro.workloads.ddp import DistributedRunner
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from tests.conftest import make_small_rm

WAIT_S = 120.0
WORLD_SIZE = 4


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet_captures():
    """One capture per rank from a 4-rank DDP-RM run."""
    runner = DistributedRunner(
        lambda rank, world: make_small_rm(rank=rank, world_size=world),
        world_size=WORLD_SIZE,
    )
    return runner.run()


def _run_fleet(captures, straggle: bool):
    session = (
        api.replay_cluster(captures)
        .on("A100")
        .iterations(2, warmup=1)
        .with_telemetry()
    )
    if straggle:
        session.configure_rank(0, device="V100")
    session.run()
    return session


@pytest.fixture(scope="module")
def symmetric_session(fleet_captures):
    return _run_fleet(fleet_captures, straggle=False)


@pytest.fixture(scope="module")
def straggler_session(fleet_captures):
    return _run_fleet(fleet_captures, straggle=True)


# ----------------------------------------------------------------------
# Critical-path attribution
# ----------------------------------------------------------------------
class TestCriticalPath:
    def test_symmetric_fleet_flags_no_straggler(self, symmetric_session):
        report = symmetric_session.analyze()
        assert report.world_size == WORLD_SIZE
        assert report.stragglers == []
        assert all(not r.is_straggler for r in report.ranks)
        assert all(r.stall_us == 0.0 for r in report.ranks)
        assert all(r.drag_us == 0.0 for r in report.ranks)
        # Identical ranks: the slowest-by-iteration tie-break is rank 0.
        assert report.straggler_rank == 0
        assert report.source == "cluster-report+trace"

    def test_straggler_fleet_names_rank_and_collective(self, straggler_session):
        """The acceptance pin: rank 0 (on a V100) drags a 4-rank A100
        fleet, and all_reduce is the collective its lane exposes most."""
        report = straggler_session.analyze()
        assert report.straggler_rank == 0
        assert report.stragglers == [0]
        assert report.dominant_collective == "all_reduce"
        assert report.dominant_ops[0].name == "aten::mm"
        assert report.dominant_ops[0].category == "compute"

    def test_straggler_signature_is_stall_asymmetry(self, straggler_session):
        """Collectives synchronize iteration times, so the slow rank shows
        up as the only one the others stall for — not as a longer bar."""
        report = straggler_session.analyze()
        slow = report.rank_path(0)
        fast = [report.rank_path(r) for r in range(1, WORLD_SIZE)]
        iterations = {round(r.iteration_us, 3) for r in report.ranks}
        assert len(iterations) == 1  # rendezvous equalized the fleet
        assert slow.stall_us == 0.0
        assert all(r.stall_us > 0.0 for r in fast)
        assert slow.drag_us > 0.0
        assert all(r.drag_us < 0.0 for r in fast)

    def test_overlap_scores_and_shares_are_bounded(self, straggler_session):
        report = straggler_session.analyze()
        for row in report.ranks:
            assert 0.0 <= row.overlap_score <= 1.0
            assert 0.0 < row.critical_share_pct <= 100.0 + 1e-9
        for coll in report.collectives:
            assert coll.visible_us == coll.exposed_us + coll.stall_us
            assert coll.count > 0

    def test_analysis_is_deterministic_and_payload_driven(
        self, straggler_session
    ):
        """Re-analyzing the stored dict payloads gives the identical
        report — the daemon analyzes job results exactly this way."""
        live = straggler_session.analyze()
        replayed = analyze_critical_path(
            straggler_session._last_report.to_dict(),
            trace=straggler_session.tracer.to_dict(),
        )
        assert live.to_dict() == replayed.to_dict()

    def test_to_dict_schema(self, straggler_session):
        payload = straggler_session.analyze().to_dict()
        assert payload["schema_version"] == INSIGHTS_SCHEMA_VERSION
        assert payload["kind"] == "critical-path"
        assert {r["rank"] for r in payload["ranks"]} == set(range(WORLD_SIZE))
        assert payload["stragglers"] == [0]
        assert payload["dominant_collective"] == "all_reduce"

    def test_format_critical_path_renders(self, straggler_session):
        report = straggler_session.analyze()
        text = format_critical_path(report)
        assert "straggler rank: 0" in text
        assert "dominant collective: all_reduce" in text
        assert "aten::mm" in text

    def test_collective_name_normalization(self):
        assert collective_name("c10d::all_reduce") == "all_reduce"
        assert collective_name("stall:c10d::all_to_all") == "all_to_all"
        assert collective_name("all_gather") == "all_gather"

    def test_analyze_without_run_raises(self, fleet_captures):
        session = api.replay_cluster(fleet_captures)
        with pytest.raises(RuntimeError, match="call .run"):
            session.analyze()


class TestReplaySessionAnalyze:
    def test_single_rank_analysis(self):
        capture = capture_workload(make_small_rm(), warmup_iterations=0)
        session = api.replay(capture).on("A100").iterations(2)
        with pytest.raises(RuntimeError, match="call .run"):
            session.analyze()
        session.run()
        report = session.analyze()
        assert report.source == "replay-result"
        assert report.world_size == 1
        assert report.device == "A100"
        assert len(report.ranks) == 1
        assert report.ranks[0].critical_share_pct == 100.0
        assert report.dominant_ops, "kernel launches should rank ops"
        # A single-rank (world 1) workload runs no collectives.
        assert report.dominant_collective is None
        assert report.collectives == []

    def test_single_rank_of_a_fleet_sees_collectives(self, fleet_captures):
        session = api.replay(fleet_captures[0]).on("A100").iterations(2)
        session.run()
        report = session.analyze()
        assert report.source == "replay-result"
        assert report.dominant_collective in ("all_reduce", "all_to_all")
        assert report.collectives
        total_exposed = sum(c.exposed_us for c in report.collectives)
        assert total_exposed == pytest.approx(
            report.ranks[0].exposed_comm_us, rel=1e-6
        )


# ----------------------------------------------------------------------
# Run-to-run diffing
# ----------------------------------------------------------------------
def _synthetic_trace(comm_scale: float = 1.0) -> Tracer:
    """Two ranks, two iterations: fixed compute, scalable all_to_all."""
    tracer = Tracer()
    cursor = 0.0
    for _ in range(2):
        for rank in (0, 1):
            tracer.slice(rank, "aten::mm", "compute", cursor, 100.0)
            tracer.slice(
                rank, "c10d::all_to_all", "comms", cursor + 100.0,
                50.0 * comm_scale,
            )
            tracer.slice(
                rank, "c10d::all_to_all", "exposed-comms", cursor + 100.0,
                50.0 * comm_scale,
            )
        cursor += 100.0 + 50.0 * comm_scale
    return tracer


class TestDiff:
    def test_injected_comms_slowdown_is_attributed(self):
        """Acceptance: >= 95% of a synthetic 5x all_to_all slowdown lands
        on the perturbed op class, in every dimension that sees it."""
        baseline = RunProfile.from_trace(_synthetic_trace(1.0), label="a")
        current = RunProfile.from_trace(_synthetic_trace(5.0), label="b")
        report = diff_runs(baseline, current)
        assert report.regressed
        assert report.delta_us > 0
        top_op = report.by_op[0]
        assert top_op.key == "c10d::all_to_all"
        assert top_op.share_pct >= 95.0
        by_category = {e.key: e for e in report.by_category}
        comms_share = (
            by_category["comms"].share_pct
            + by_category["exposed-comms"].share_pct
        )
        assert comms_share >= 95.0
        assert by_category.get("compute", None) is None or (
            abs(by_category["compute"].share_pct) <= 5.0
        )

    def test_identical_runs_do_not_regress(self):
        profile = RunProfile.from_trace(_synthetic_trace(1.0), label="a")
        report = diff_runs(profile, profile)
        assert report.delta_us == 0.0
        assert report.delta_pct == 0.0
        assert not report.regressed
        assert all(e.delta == 0.0 for e in report.by_op)

    def test_diff_payload_schema(self):
        baseline = RunProfile.from_trace(_synthetic_trace(1.0), label="a")
        current = RunProfile.from_trace(_synthetic_trace(5.0), label="b")
        payload = diff_runs(baseline, current).to_dict()
        assert payload["schema_version"] == INSIGHTS_SCHEMA_VERSION
        assert payload["kind"] == "diff"
        assert payload["regressed"] is True
        assert payload["baseline"] == "a" and payload["current"] == "b"
        text = format_diff(diff_runs(baseline, current))
        assert "REGRESSED" in text

    def test_profile_from_cluster_report(self, straggler_session):
        report = straggler_session._last_report
        profile = RunProfile.from_cluster_report(report)
        assert profile.source == "cluster-report"
        assert profile.end_to_end_us == report.critical_path_us
        assert set(profile.by_rank_us) == {str(r) for r in range(WORLD_SIZE)}
        assert profile.by_category_us["stall"] > 0.0

    def test_from_any_sniffs_artifact_kinds(self, straggler_session):
        assert (
            RunProfile.from_any(straggler_session.tracer.to_dict()).source
            == "trace"
        )
        assert (
            RunProfile.from_any(straggler_session._last_report).source
            == "cluster-report"
        )
        wrapped = {
            "kind": "cluster",
            "report": straggler_session._last_report.to_dict(),
        }
        assert RunProfile.from_any(wrapped).source == "cluster-report"
        with pytest.raises(ValueError, match="cannot build a RunProfile"):
            RunProfile.from_any({"what": "ever"})


# ----------------------------------------------------------------------
# Regression watchdog
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parent.parent


def _repo_bench() -> dict:
    return json.loads((REPO_ROOT / "BENCH_replay_throughput.json").read_text())


class TestRegressionWatchdog:
    def test_repo_bench_file_passes(self):
        report = check_regressions(_repo_bench())
        assert report.ok, [c.to_dict() for c in report.regressions]
        assert not any(c.status == "regression" for c in report.checks)

    def test_seeded_drop_fails_on_hard_floor(self):
        bench = _repo_bench()
        bench["cluster_scale"]["rank_ops_per_sec"] = 100.0  # contract floor is 250
        report = check_regressions(bench)
        assert not report.ok
        assert [c.metric for c in report.regressions] == [
            "cluster_scale.rank_ops_per_sec"
        ]
        assert "below hard floor" in report.regressions[0].detail

    def test_relative_drop_vs_history_median(self):
        history = [
            {"workloads": {"rm": {"ops_per_sec": v}}}
            for v in (90.0, 100.0, 110.0)
        ]
        fast = {"workloads": {"rm": {"ops_per_sec": 80.0}}}
        slow = {"workloads": {"rm": {"ops_per_sec": 50.0}}}
        assert check_regressions(fast, history=history).ok
        report = check_regressions(slow, history=history)
        failed = {c.metric for c in report.regressions}
        assert failed == {"workloads.rm.ops_per_sec"}
        assert "vs history median 100.000" in report.regressions[0].detail

    def test_overhead_checks_absolute_ceiling_only(self):
        # Overheads sit at the noise floor: a jump from 0.1% to 2% is not
        # a regression, but crossing the hard 5% ceiling is.
        history = [{"telemetry_overhead": {"overhead_pct": 0.1}}]
        noisy = {"telemetry_overhead": {"overhead_pct": 2.0}}
        assert check_regressions(noisy, history=history).ok
        over = {"telemetry_overhead": {"overhead_pct": 7.5}}
        report = check_regressions(over, history=history)
        assert [c.metric for c in report.regressions] == [
            "telemetry_overhead.overhead_pct"
        ]

    def test_missing_metrics_do_not_fail(self):
        report = check_regressions({})
        assert report.ok
        assert all(c.status == "missing" for c in report.checks)
        payload = report.to_dict()
        assert payload["schema_version"] == INSIGHTS_SCHEMA_VERSION
        assert payload["kind"] == "regressions"
        assert payload["ok"] is True
        assert "OK" in format_regressions(report)

    def test_trajectory_store_round_trip(self, tmp_path):
        store = TrajectoryStore(tmp_path / "history.jsonl")
        assert store.entries() == []
        store.append({"workloads": {"rm": {"ops_per_sec": 30.0}}})
        store.append({"workloads": {"rm": {"ops_per_sec": 31.0}}}, meta={"ci": True})
        entries = store.entries()
        assert [e["seq"] for e in entries] == [1, 2]
        assert entries[1]["meta"] == {"ci": True}
        assert [h["workloads"]["rm"]["ops_per_sec"] for h in store.history()] == [
            30.0,
            31.0,
        ]

    def test_trajectory_store_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        store = TrajectoryStore(path)
        store.append({"workloads": {}})
        with path.open("a") as handle:
            handle.write("{ truncated mid-write\n")
            handle.write("\n")
        store.append({"workloads": {}})
        assert [e["seq"] for e in store.entries()] == [1, 2]


# ----------------------------------------------------------------------
# CLI surface (through the real argparse entry point)
# ----------------------------------------------------------------------
class TestAnalyzeCli:
    def test_critical_path_json(self, tmp_path, fleet_captures, capsys):
        from repro.service.cli import main

        fleet_dir = tmp_path / "fleet"
        DistributedRunner.save_captures(fleet_captures, fleet_dir)
        code = main(
            [
                "analyze",
                "critical-path",
                str(fleet_dir),
                "--iterations",
                "2",
                "--warmup",
                "1",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "critical-path"
        assert payload["schema_version"] == INSIGHTS_SCHEMA_VERSION
        assert payload["world_size"] == WORLD_SIZE
        # Homogeneous on-disk fleet: nobody flagged, tie-break names rank 0.
        assert payload["straggler_rank"] == 0
        assert payload["stragglers"] == []
        assert payload["dominant_collective"] == "all_reduce"

    def test_critical_path_bad_dir_is_an_error(self, tmp_path, capsys):
        from repro.service.cli import main

        code = main(["analyze", "critical-path", str(tmp_path / "missing")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_diff_json(self, tmp_path, capsys):
        from repro.service.cli import main

        baseline = tmp_path / "a.json"
        current = tmp_path / "b.json"
        baseline.write_text(json.dumps(_synthetic_trace(1.0).to_dict()))
        current.write_text(json.dumps(_synthetic_trace(5.0).to_dict()))
        code = main(
            ["analyze", "diff", str(baseline), str(current), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "diff"
        assert payload["regressed"] is True
        assert payload["by_op"][0]["key"] == "c10d::all_to_all"
        assert payload["by_op"][0]["share_pct"] >= 95.0

    def test_regressions_pass_and_record(self, tmp_path, capsys):
        from repro.service.cli import main

        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(_repo_bench()))
        history = tmp_path / "history.jsonl"
        args = [
            "analyze",
            "regressions",
            "--bench",
            str(bench),
            "--history",
            str(history),
        ]
        assert main([*args, "--record", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["history_entries"] == 0  # checked before recording
        assert len(TrajectoryStore(history).entries()) == 1

        assert main([*args, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["history_entries"] == 1

    def test_regressions_exit_nonzero_on_seeded_drop(self, tmp_path, capsys):
        from repro.service.cli import main

        seeded = _repo_bench()
        seeded["daemon_throughput"]["jobs_per_sec"] = 0.1  # contract floor is 0.5
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(seeded))
        code = main(
            [
                "analyze",
                "regressions",
                "--bench",
                str(bench),
                "--history",
                str(tmp_path / "history.jsonl"),
            ]
        )
        assert code == 1
        assert "REGRESSIONS" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Daemon integration: stored-result analysis + the HTTP route
# ----------------------------------------------------------------------
class TestJobAnalysis:
    def test_cluster_job_result(self, straggler_session):
        result = {
            "kind": "cluster",
            "report": straggler_session._last_report.to_dict(),
        }
        analysis = analyze_job_result(result)
        assert analysis["kind"] == "critical-path"
        assert analysis["straggler_rank"] == 0

    def test_cluster_without_report_raises(self):
        with pytest.raises(ValueError, match="no report"):
            analyze_job_result({"kind": "cluster"})

    def test_sweep_job_result(self):
        result = {
            "kind": "sweep",
            "cached": 1,
            "replayed": 1,
            "points": [
                {
                    "label": "rm@A100",
                    "device": "A100",
                    "cached": True,
                    "summary": {"mean_iteration_time_us": 100.0},
                },
                {
                    "label": "rm@V100",
                    "device": "V100",
                    "cached": False,
                    "summary": {"mean_iteration_time_us": 250.0},
                },
            ],
        }
        analysis = analyze_job_result(result)
        assert analysis["kind"] == "sweep"
        assert analysis["slowest_point"] == "rm@V100"
        assert analysis["fastest_point"] == "rm@A100"
        assert analysis["spread_pct"] == pytest.approx(150.0)
        assert analysis["mean_iteration_time_us_by_device"] == {
            "A100": 100.0,
            "V100": 250.0,
        }

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="cannot analyze"):
            analyze_job_result({"kind": "mystery"})

    def test_http_analysis_route(self, tmp_path):
        repo_root = tmp_path / "traces"
        repo = TraceRepository(repo_root)
        workload = ParamLinearWorkload(
            ParamLinearConfig(
                batch_size=8, num_layers=2, hidden_size=32, input_size=32
            )
        )
        capture = capture_workload(workload, warmup_iterations=0)
        repo.add(workload.name, capture.execution_trace)

        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        with DaemonServer(daemon, port=0) as server:
            record = daemon.submit(
                "alice",
                JobSpec(
                    "sweep",
                    {
                        "repo": str(repo_root),
                        "traces": None,
                        "devices": ["A100"],
                        "axes": {},
                        "base": {"iterations": 1},
                    },
                ),
            )
            daemon.wait(record.id, timeout=WAIT_S)
            request = urllib.request.Request(
                f"{server.url}/jobs/{record.id}/analysis",
                headers={"X-Repro-Client": "alice"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                payload = json.loads(response.read().decode())
        assert payload["schema_version"] == DAEMON_SCHEMA_VERSION
        assert payload["id"] == record.id
        assert payload["kind"] == "sweep"
        assert payload["analysis"]["kind"] == "sweep"
        assert payload["analysis"]["points"] == 1
        assert (
            payload["analysis"]["schema_version"] == INSIGHTS_SCHEMA_VERSION
        )


# ----------------------------------------------------------------------
# Satellite: structured JSON-lines logging
# ----------------------------------------------------------------------
class TestStructuredLogging:
    def test_lines_are_json_with_fields(self):
        stream = io.StringIO()
        logger = get_logger("test.insights.log", stream=stream)
        logger.info("hello %s", "world", extra={"fields": {"job": "j1"}})
        logger.warning("careful")
        lines = stream.getvalue().strip().splitlines()
        first, second = (json.loads(line) for line in lines)
        assert first["message"] == "hello world"
        assert first["level"] == "info"
        assert first["logger"] == "test.insights.log"
        assert first["job"] == "j1"
        assert first["ts"] > 0
        assert second["level"] == "warning"
        assert "correlation" not in first

    def test_tracer_correlation_is_stamped(self):
        stream = io.StringIO()
        tracer = Tracer()
        logger = get_logger("test.insights.corr", tracer=tracer, stream=stream)
        with tracer.scope(job_id="job-42", rank=3):
            logger.info("inside")
        logger.info("outside")
        inside, outside = (
            json.loads(line) for line in stream.getvalue().strip().splitlines()
        )
        assert inside["correlation"] == {"job_id": "job-42", "rank": 3}
        assert "correlation" not in outside

    def test_get_logger_is_idempotent(self):
        first_stream = io.StringIO()
        logger = get_logger("test.insights.idem", stream=first_stream)
        again = get_logger("test.insights.idem")
        assert again is logger
        assert len([h for h in logger.handlers]) == 1
        # Re-binding the stream redirects the existing handler.
        second_stream = io.StringIO()
        get_logger("test.insights.idem", stream=second_stream)
        logger.info("redirected")
        assert first_stream.getvalue() == ""
        assert "redirected" in second_stream.getvalue()

    def test_exceptions_are_captured(self):
        stream = io.StringIO()
        logger = get_logger("test.insights.exc", stream=stream)
        try:
            raise ValueError("boom")
        except ValueError:
            logger.exception("failed")
        payload = json.loads(stream.getvalue().strip())
        assert payload["level"] == "error"
        assert "ValueError: boom" in payload["exc_info"]

    def test_daemon_access_log_is_structured(self, tmp_path, capsys):
        from repro.daemon.server import ACCESS_LOGGER_NAME

        stream = io.StringIO()
        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        with DaemonServer(daemon, port=0, verbose=True) as server:
            get_logger(ACCESS_LOGGER_NAME, stream=stream)
            urllib.request.urlopen(f"{server.url}/health", timeout=10).read()
        lines = [
            json.loads(line)
            for line in stream.getvalue().strip().splitlines()
            if line
        ]
        assert lines, "verbose daemon should emit an access log line"
        assert lines[0]["logger"] == ACCESS_LOGGER_NAME
        assert lines[0]["method"] == "GET"
        assert lines[0]["path"] == "/health"


# ----------------------------------------------------------------------
# Satellite: the serializer-bypass lint rule
# ----------------------------------------------------------------------
class TestSerializerBypassRule:
    def _run(self, root: Path) -> dict:
        sys.path.insert(
            0, str(Path(__file__).resolve().parent.parent / "scripts")
        )
        try:
            from check_deprecated_usage import find_offenders
        finally:
            sys.path.pop(0)
        return find_offenders(root)

    def _tree(self, tmp_path: Path, relative: str, text: str) -> Path:
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def test_flags_json_dumps_in_insights_and_service(self, tmp_path):
        self._tree(
            tmp_path,
            "src/repro/insights/bad.py",
            "import json\npayload = json.dumps({'a': 1})\n",
        )
        self._tree(
            tmp_path,
            "src/repro/service/worse.py",
            "json.dump(payload, handle)\n",
        )
        offenders = self._run(tmp_path)
        assert len(offenders["serializer-bypass"]) == 2

    def test_serializer_loads_and_other_trees_pass(self, tmp_path):
        self._tree(
            tmp_path,
            "src/repro/service/serialize.py",
            "import json\nreturn json.dumps(payload)\n",
        )
        self._tree(
            tmp_path,
            "src/repro/insights/regression.py",
            "entry = json.loads(line)\n",
        )
        self._tree(
            tmp_path,
            "src/repro/telemetry/logging.py",
            "return json.dumps(payload, default=str)\n",
        )
        offenders = self._run(tmp_path)
        assert "serializer-bypass" not in offenders

    def test_repository_is_clean(self):
        offenders = self._run(REPO_ROOT)
        assert "serializer-bypass" not in offenders, offenders.get(
            "serializer-bypass"
        )
