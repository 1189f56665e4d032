"""Tests for repro.telemetry — tracing, metrics, and timeline export.

Covers the subsystem bottom-up — tracer/span/correlation mechanics, the
metrics registry and its Prometheus exposition, the pipeline TelemetryHook
— and the ISSUE's acceptance scenarios:

* a 4-rank DDP-RM cluster replay exports valid Chrome-trace JSON: loads
  under ``json.loads``, every lane's ``ts`` values are monotonic, and the
  rank lanes carry compute / comms / stall slices from the virtual clock;
* ``python -m repro replay-dist --trace-out`` writes that file;
* the daemon serves Prometheus-parseable ``GET /metrics`` while a job is
  running, and ``/health`` carries the telemetry counter totals;
* the bare-print lint rule catches offenders and the tree is clean.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro.api as api
from repro.telemetry import (
    METRICS_SCHEMA_VERSION,
    TELEMETRY_SCHEMA_VERSION,
    MetricsRegistry,
    Span,
    TelemetryHook,
    Tracer,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.workloads.ddp import DistributedRunner
from tests.conftest import make_small_rm

WAIT_S = 120.0


# ----------------------------------------------------------------------
# Tracer / Span
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_records_wall_interval(self):
        ticks = iter(float(n) for n in range(10))
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("stage:execute", "pipeline") as span:
            pass
        assert span.wall_duration_s == 1.0
        assert tracer.spans == (span,)

    def test_begin_end_carries_virtual_times(self):
        tracer = Tracer()
        span = tracer.begin("scheduler:run", "scheduler", virtual_start_us=10.0)
        tracer.end(span, virtual_end_us=250.0)
        assert span.virtual_duration_us == 240.0

    def test_correlation_scopes_nest_and_pop(self):
        tracer = Tracer()
        with tracer.scope(job_id="j1"):
            with tracer.scope(sweep_point="rm@A100"):
                span = tracer.begin("point", "daemon")
                tracer.end(span)
            outer = tracer.begin("outer", "daemon")
            tracer.end(outer)
        assert span.correlation == {"job_id": "j1", "sweep_point": "rm@A100"}
        assert outer.correlation == {"job_id": "j1"}
        assert tracer.current_correlation() == {}

    def test_correlation_is_per_thread(self):
        tracer = Tracer()
        seen = {}

        def worker():
            with tracer.scope(job_id="other"):
                seen["other"] = tracer.current_correlation()

        with tracer.scope(job_id="mine"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            seen["mine"] = tracer.current_correlation()
        assert seen["mine"] == {"job_id": "mine"}
        assert seen["other"] == {"job_id": "other"}

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.begin("x", "pipeline") is None
        tracer.end(None)
        with tracer.span("y", "pipeline") as span:
            assert span is None
        tracer.slice(0, "k", "compute", 0.0, 5.0)
        tracer.event("park", "scheduler")
        with tracer.scope(job_id="still-usable"):
            assert tracer.current_correlation() == {"job_id": "still-usable"}
        assert tracer.spans == () and tracer.events == ()

    def test_span_context_records_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("stage:execute", "pipeline"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert "ValueError" in span.attributes["error"]

    def test_max_records_drops_and_counts(self):
        tracer = Tracer(max_records=2)
        for n in range(4):
            tracer.slice(0, f"k{n}", "compute", float(n), 1.0)
        assert len(tracer.spans) == 2
        assert tracer.dropped == 2
        assert tracer.to_dict()["dropped"] == 2

    def test_to_dict_is_versioned_json(self):
        tracer = Tracer()
        tracer.slice(1, "k", "compute", 0.0, 3.0)
        tracer.event("wake", "scheduler", correlation={"rank": 1})
        payload = json.loads(json.dumps(tracer.to_dict()))
        assert payload["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert payload["span_count"] == 1 and payload["event_count"] == 1


# ----------------------------------------------------------------------
# Metrics registry + Prometheus exposition
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3.0
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        with pytest.raises(TypeError):
            registry.gauge("c")

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"0.1": 1, "1.0": 2, "10.0": 3}
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(55.55)

    def test_prometheus_rendering_shape(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "All jobs.").inc(2)
        registry.gauge("repro_depth").set(1.5)
        registry.histogram("repro_wait", buckets=(1.0,)).observe(0.5)
        text = registry.render_prometheus()
        assert "# HELP repro_jobs_total All jobs." in text
        assert "# TYPE repro_jobs_total counter" in text
        assert "repro_jobs_total 2" in text
        assert "repro_depth 1.5" in text
        assert 'repro_wait_bucket{le="1"} 1' in text
        assert 'repro_wait_bucket{le="+Inf"} 1' in text
        assert "repro_wait_count 1" in text
        assert text.endswith("\n")

    def test_snapshot_versioned(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        snapshot = registry.snapshot()
        assert snapshot["schema_version"] == METRICS_SCHEMA_VERSION
        assert registry.counter_totals() == {"c": 1.0}


class TestPrometheusExpositionEdgeCases:
    """Exposition-format corners a real scrape would trip on."""

    def test_empty_registry_renders_empty_string(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_rendered_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0, 50.0):
            histogram.observe(value)
        samples = _parse_prometheus(registry.render_prometheus())
        buckets = [
            samples['repro_lat_bucket{le="0.1"}'],
            samples['repro_lat_bucket{le="1"}'],
            samples['repro_lat_bucket{le="10"}'],
            samples['repro_lat_bucket{le="+Inf"}'],
        ]
        assert buckets == sorted(buckets), "bucket counts must not decrease"
        assert buckets == [1.0, 2.0, 3.0, 5.0]
        assert samples['repro_lat_bucket{le="+Inf"}'] == samples["repro_lat_count"]
        assert samples["repro_lat_sum"] == pytest.approx(105.55)

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_weird",
            "Weird labels.",
            labels={"path": 'C:\\tmp', "note": 'say "hi"\nbye'},
        ).inc(3)
        text = registry.render_prometheus()
        line = next(
            l for l in text.splitlines() if l.startswith("repro_weird{")
        )
        assert '\\\\' in line  # backslash escaped
        assert '\\"' in line  # quote escaped
        assert "\\n" in line and "\n" not in line  # newline stays one line
        samples = _parse_prometheus(text)
        key = 'repro_weird{path="C:\\\\tmp",note="say \\"hi\\"\\nbye"}'
        assert samples[key] == 3.0

    def test_help_text_is_escaped(self):
        registry = MetricsRegistry()
        registry.gauge("repro_g", "line one\nline \\two").set(1.0)
        text = registry.render_prometheus()
        assert "# HELP repro_g line one\\nline \\\\two" in text
        assert len(text.strip().splitlines()) == 3  # HELP, TYPE, sample
        assert _parse_prometheus(text)["repro_g"] == 1.0

    def test_constant_labels_compose_with_le(self):
        registry = MetricsRegistry()
        registry.histogram(
            "repro_h", buckets=(1.0,), labels={"queue": "main"}
        ).observe(0.5)
        samples = _parse_prometheus(registry.render_prometheus())
        assert samples['repro_h_bucket{queue="main",le="1"}'] == 1.0
        assert samples['repro_h_bucket{queue="main",le="+Inf"}'] == 1.0
        assert samples['repro_h_sum{queue="main"}'] == 0.5
        assert samples['repro_h_count{queue="main"}'] == 1.0

    def test_every_line_is_parseable(self):
        registry = MetricsRegistry()
        registry.counter("repro_a", "A.", labels={"k": "v"}).inc()
        registry.gauge("repro_b").set(-2.5)
        registry.histogram("repro_c", buckets=(0.5,)).observe(1.0)
        text = registry.render_prometheus()
        assert text.endswith("\n")
        _parse_prometheus(text)  # raises on any malformed line


# ----------------------------------------------------------------------
# Pipeline instrumentation (single-rank session)
# ----------------------------------------------------------------------
class TestSessionTelemetry:
    def test_replay_session_records_stage_spans_and_gantt(self):
        capture = api.capture(make_small_rm(), warmup_iterations=0)
        tracer = Tracer()
        session = api.replay(capture).iterations(2).with_telemetry(tracer)
        result = session.run()
        assert result.replayed_ops > 0

        stage_spans = [s for s in tracer.iter_spans("pipeline")]
        stage_names = {s.name for s in stage_spans}
        assert "stage:execute" in stage_names
        # Stage spans carry both clocks: wall interval plus virtual window.
        execute = next(s for s in stage_spans if s.name == "stage:execute")
        assert execute.wall_duration_s > 0.0
        assert execute.virtual_start_us is not None

        compute = [s for s in tracer.iter_spans("compute")]
        assert compute, "kernel Gantt slices missing"
        assert all(s.virtual_duration_us >= 0.0 for s in compute)

    @pytest.mark.parametrize("profiling_first", [False, True])
    def test_profiling_and_telemetry_share_one_stage_span(self, profiling_first):
        capture = api.capture(make_small_rm(), warmup_iterations=0)
        tracer = Tracer()
        session = api.replay(capture).iterations(1)
        if profiling_first:
            session.with_profiling().with_telemetry(tracer)
        else:
            session.with_telemetry(tracer).with_profiling()
        result = session.run()

        stage_spans = [s for s in tracer.spans if s.name.startswith("stage:")]
        names = [s.name for s in stage_spans]
        assert sorted(names) == sorted(f"stage:{n}" for n in session.pipeline.stage_names())
        assert {s.category for s in stage_spans} == {"pipeline"}
        # The profile's stage clock is those very spans.
        assert result.profile_report.stage_wall_s == {
            s.name[len("stage:"):]: s.wall_duration_s for s in stage_spans
        }

    def test_export_trace_without_telemetry_raises(self, tmp_path):
        capture = api.capture(make_small_rm(), warmup_iterations=0)
        with pytest.raises(RuntimeError):
            api.replay(capture).export_trace(tmp_path / "out.json")


# ----------------------------------------------------------------------
# Acceptance: 4-rank cluster replay -> valid Chrome trace
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def rm_fleet():
    runner = DistributedRunner(
        lambda rank, world: make_small_rm(rank=rank, world_size=world), world_size=4
    )
    return runner.run()


class TestClusterChromeTrace:
    @pytest.fixture(scope="class")
    def trace_payload(self, rm_fleet, tmp_path_factory):
        path = tmp_path_factory.mktemp("telemetry") / "cluster_trace.json"
        session = (
            api.replay_cluster(rm_fleet)
            .on("A100")
            .iterations(2)
            .configure_rank(0, device="V100")  # straggler -> stalls on 1..3
            .with_telemetry()
        )
        report = session.run()
        assert report.critical_path_us > 0.0
        written = session.export_trace(path)
        return json.loads(written.read_text())

    def test_loads_as_json_with_trace_shape(self, trace_payload):
        assert isinstance(trace_payload["traceEvents"], list)
        assert trace_payload["displayTimeUnit"] == "ms"
        assert trace_payload["metadata"]["exporter"] == "repro.telemetry"

    def test_every_lane_is_ts_monotonic(self, trace_payload):
        lanes = {}
        for event in trace_payload["traceEvents"]:
            if event.get("ph") == "M":
                continue
            lanes.setdefault((event["pid"], event["tid"]), []).append(event["ts"])
        assert lanes
        for lane, ts_values in lanes.items():
            assert ts_values == sorted(ts_values), f"lane {lane} not monotonic"

    def test_rank_lanes_carry_compute_comms_stall(self, trace_payload):
        slices = [
            event
            for event in trace_payload["traceEvents"]
            if event.get("ph") == "X" and event["pid"] == 1
        ]
        categories = {event["cat"] for event in slices}
        assert {"compute", "comms", "stall"} <= categories
        ranks = {
            event["args"]["correlation"]["rank"]
            for event in slices
            if "correlation" in event.get("args", {})
        }
        assert ranks == {0, 1, 2, 3}
        # The V100 straggler stalls the other ranks, never itself.
        stall_ranks = {
            event["args"]["correlation"]["rank"]
            for event in slices
            if event["cat"] == "stall"
        }
        assert stall_ranks and 0 not in stall_ranks

    def test_scheduler_events_present(self, trace_payload):
        names = {
            event["name"]
            for event in trace_payload["traceEvents"]
            if event.get("cat") == "scheduler"
        }
        assert "scheduler:run" in names

    def test_cli_trace_out_writes_chrome_trace(self, rm_fleet, tmp_path):
        fleet_dir = tmp_path / "fleet"
        DistributedRunner.save_captures(rm_fleet, fleet_dir)
        out = tmp_path / "timeline.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "replay-dist", str(fleet_dir),
                "--device", "A100", "-n", "1", "--trace-out", str(out), "--json",
            ],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent.parent,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert any(
            event.get("cat") == "compute" for event in payload["traceEvents"]
        )
        # --json output on stdout stays parseable despite the trace export.
        assert json.loads(proc.stdout)["world_size"] == 4


class TestClusterStageSpans:
    @pytest.mark.parametrize("profiling_first", [False, True])
    def test_one_stage_span_per_rank_and_stage(self, rm_fleet, profiling_first):
        tracer = Tracer()
        session = api.replay_cluster(rm_fleet).on("A100")
        if profiling_first:
            session.with_profiling().with_telemetry(tracer)
        else:
            session.with_telemetry(tracer).with_profiling()
        report = session.run()

        per_rank = {}
        for span in tracer.spans:
            if span.name.startswith("stage:"):
                key = (span.correlation["rank"], span.name[len("stage:"):])
                assert key not in per_rank, f"two stage timers for {key}"
                per_rank[key] = span.wall_duration_s
        assert {rank for rank, _ in per_rank} == {0, 1, 2, 3}
        for rank, profile in report.profile_reports.items():
            assert profile.stage_wall_s == {
                stage: wall for (r, stage), wall in per_rank.items() if r == rank
            }


    def test_non_profile_factory_hook_keeps_telemetry_stage_spans(self, rm_fleet):
        from repro.cluster.engine import ClusterReplayer
        from repro.core.pipeline import ReplayHook
        from repro.core.replayer import ReplayConfig

        class Watcher(ReplayHook):
            def __init__(self):
                self.ops = 0

            def on_op_replayed(self, context, entry, output):
                self.ops += 1

            def report(self, **kwargs):
                return None

        watchers = {rank: Watcher() for rank in range(4)}
        tracer = Tracer()
        replayer = ClusterReplayer(
            ReplayConfig(device="A100", iterations=1),
            profile_hook_factory=watchers.__getitem__,
        )
        replayer.tracer = tracer
        replayer.replay(rm_fleet)

        assert all(w.ops > 0 for w in watchers.values())
        stage_ranks = {
            s.correlation["rank"] for s in tracer.spans if s.name.startswith("stage:")
        }
        assert stage_ranks == {0, 1, 2, 3}


class TestExposedCommAgreement:
    """The Gantt's exposed-comms lane and ``ClusterReport.exposed_comm_us``
    come from one interval algebra, so they agree rank by rank."""

    @pytest.mark.parametrize("straggler", [False, True])
    def test_exposed_comm_slices_match_cluster_report(self, rm_fleet, straggler):
        from repro.hardware.gpu import merge_intervals, total_length

        tracer = Tracer()
        session = api.replay_cluster(rm_fleet).on("A100").iterations(2).with_telemetry(tracer)
        if straggler:
            session.configure_rank(0, device="V100")
        report = session.run()

        exposed = {}
        for span in tracer.iter_spans("exposed-comms"):
            exposed.setdefault(span.correlation["rank"], []).append(
                (span.virtual_start_us, span.virtual_end_us)
            )
        assert len(report.ranks) == 4
        for rank_report in report.ranks:
            assert rank_report.exposed_comm_us > 0.0
            lane = total_length(merge_intervals(exposed.get(rank_report.rank, [])))
            assert lane == pytest.approx(rank_report.exposed_comm_us, rel=1e-9, abs=1e-6)


# ----------------------------------------------------------------------
# Daemon: GET /metrics while a job runs, /health telemetry totals
# ----------------------------------------------------------------------
class TestDaemonMetrics:
    def test_metrics_during_running_job(self, tmp_path):
        from repro.bench.harness import capture_workload
        from repro.daemon import JobSpec, ReplayDaemon
        from repro.daemon.executor import expand_sweep_points
        from repro.daemon.server import DaemonServer
        from repro.service import TraceRepository
        from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload

        repo_dir = tmp_path / "traces"
        repo = TraceRepository(repo_dir)
        workload = ParamLinearWorkload(
            ParamLinearConfig(batch_size=8, num_layers=2, hidden_size=32, input_size=32)
        )
        repo.add(workload.name, capture_workload(workload, warmup_iterations=0).execution_trace)
        payload = {
            "repo": str(repo_dir), "traces": None, "devices": ["A100"],
            "axes": {}, "base": {"iterations": 1},
        }
        (point,) = expand_sweep_points(payload)

        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        with DaemonServer(daemon, port=0) as server:
            # Pre-claim the job's only point so it blocks inside "running"
            # deterministically while we scrape.
            event, mine = daemon.inflight.claim(point.cache_key)
            assert mine
            try:
                record = daemon.submit("alice", JobSpec(kind="sweep", payload=payload))
                deadline = time.time() + WAIT_S
                while daemon.get(record.id, "alice").state != "running":
                    assert time.time() < deadline, "job never started"
                    time.sleep(0.01)

                response = urllib.request.urlopen(server.url + "/metrics")
                assert response.headers["Content-Type"].startswith("text/plain")
                assert "version=0.0.4" in response.headers["Content-Type"]
                text = response.read().decode("utf-8")
                assert _parse_prometheus(text)["repro_jobs_running"] == 1.0
                assert _parse_prometheus(text)["repro_jobs_submitted_total"] == 1.0

                health = json.loads(
                    urllib.request.urlopen(server.url + "/health").read()
                )
                assert health["jobs_by_state"]["running"] == 1
                assert health["telemetry"]["repro_jobs_submitted_total"] == 1.0
                assert health["uptime_s"] > 0.0
            finally:
                daemon.inflight.release(point.cache_key)

            deadline = time.time() + WAIT_S
            while daemon.get(record.id, "alice").state != "completed":
                assert time.time() < deadline, daemon.get(record.id, "alice").state
                time.sleep(0.01)

            done = _parse_prometheus(
                urllib.request.urlopen(server.url + "/metrics").read().decode()
            )
            assert done["repro_jobs_running"] == 0.0
            assert done["repro_jobs_completed_total"] == 1.0
            assert done["repro_job_duration_seconds_count"] == 1.0
            # The executor traced the job + its point under correlation.
            job_spans = [s for s in daemon.tracer.spans if s.category == "daemon"]
            assert {s.name for s in job_spans} == {
                "job:sweep", f"point:{point.label}"
            }
            point_span = next(s for s in job_spans if s.name.startswith("point:"))
            assert point_span.correlation["job_id"] == record.id


def _parse_prometheus(text: str) -> dict:
    """Minimal exposition-format parser: sample name+labels -> value.

    Raises on any non-comment line that does not match the format — the
    'Prometheus-parseable' acceptance check.
    """
    samples = {}
    pattern = re.compile(
        r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9.eE+Inf-]+)$'
    )
    for line in text.strip().splitlines():
        if line.startswith("#"):
            continue
        match = pattern.match(line)
        assert match, f"unparseable exposition line: {line!r}"
        name, labels, value = match.groups()
        samples[name + (labels or "")] = float(value)
    return samples


# ----------------------------------------------------------------------
# Satellite: the bare-print lint rule
# ----------------------------------------------------------------------
class TestBarePrintRule:
    def _run(self, root: Path) -> dict:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
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

    def test_flags_bare_print(self, tmp_path):
        self._tree(tmp_path, "src/repro/core/thing.py", 'print("hello")\n')
        offenders = self._run(tmp_path)
        assert len(offenders["bare-print"]) == 1

    def test_explicit_stream_and_exempt_files_pass(self, tmp_path):
        self._tree(
            tmp_path, "src/repro/api/hooks.py",
            "print('x', file=self.stream)\nconsole.print('y')\n",
        )
        self._tree(tmp_path, "src/repro/service/cli.py", 'print("cli output")\n')
        self._tree(tmp_path, "src/repro/daemon/server.py", 'print("server log")\n')
        offenders = self._run(tmp_path)
        assert "bare-print" not in offenders

    def test_repository_is_clean(self):
        offenders = self._run(Path(__file__).resolve().parent.parent)
        assert "bare-print" not in offenders, offenders.get("bare-print")
