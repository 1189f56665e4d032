"""Tests for the replay daemon (repro.daemon).

Covers the full stack bottom-up — job model, fair queue, durable store,
executor, orchestrator, HTTP API — and the subsystem's acceptance
scenarios:

* pause -> snapshot -> daemon restart -> resume produces byte-identical
  results vs an uninterrupted run, for a single-rank sweep AND a 4-rank
  cluster job;
* two clients submitting overlapping sweeps replay each unique
  (trace, config) point exactly once;
* result-cache eviction honours TTL + max-entries without evicting an
  in-flight job's pinned inputs.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.bench.harness import capture_workload
from repro.daemon import (
    DAEMON_SCHEMA_VERSION,
    JobQueue,
    JobRecord,
    JobSpec,
    JobStateError,
    JobStore,
    ReplayDaemon,
)
from repro.daemon.client import DaemonClient, DaemonClientError
from repro.daemon.daemon import JobAccessError, UnknownJobError
from repro.daemon.jobs import TERMINAL_STATES, cluster_snapshot, sweep_snapshot
from repro.daemon.server import DaemonServer
from repro.service import TraceRepository
from repro.service.cache import ResultCache
from repro.workloads.ddp import DistributedRunner
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from tests.conftest import make_small_rm

WAIT_S = 180.0


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def daemon_repo(tmp_path_factory) -> Path:
    """Two small single-rank traces for sweep jobs."""
    root = tmp_path_factory.mktemp("daemon_traces")
    repo = TraceRepository(root)
    workloads = [
        ParamLinearWorkload(
            ParamLinearConfig(batch_size=8, num_layers=2, hidden_size=32, input_size=32)
        ),
        make_small_rm(),
    ]
    for workload in workloads:
        capture = capture_workload(workload, warmup_iterations=0)
        repo.add(workload.name, capture.execution_trace)
    return root


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory) -> Path:
    """A 4-rank DDP-RM fleet in the on-disk replay-dist format."""
    directory = tmp_path_factory.mktemp("daemon_fleet")
    runner = DistributedRunner(
        lambda rank, world: make_small_rm(rank=rank, world_size=world), world_size=4
    )
    DistributedRunner.save_captures(runner.run(), directory)
    return directory


def sweep_payload(repo: Path, iterations: int = 1, devices=("A100",)) -> dict:
    return {
        "repo": str(repo),
        "traces": None,
        "devices": list(devices),
        "axes": {},
        "base": {"iterations": iterations},
    }


def cluster_payload(fleet: Path, iterations: int = 2) -> dict:
    return {
        "trace_dir": str(fleet),
        "config": {"device": "A100", "iterations": iterations},
    }


def summaries_of(result: dict) -> dict:
    """Per-label replay summaries — the byte-identity comparison surface
    (the ``cached`` flags legitimately differ between runs)."""
    return {row["label"]: row["summary"] for row in result["points"]}


def cache_keys_of(result: dict) -> dict:
    return {row["label"]: row["cache_key"] for row in result["points"]}


# ----------------------------------------------------------------------
# Job model
# ----------------------------------------------------------------------
class TestJobModel:
    def test_legal_lifecycle(self):
        record = JobRecord(id="j1", owner="alice", spec=JobSpec("sweep"))
        for state in ("running", "pausing", "paused", "queued", "running", "completed"):
            record.transition(state)
        assert record.terminal

    def test_illegal_transition_raises(self):
        record = JobRecord(id="j1", owner="alice", spec=JobSpec("sweep"))
        record.transition("running")
        record.transition("completed")
        with pytest.raises(JobStateError, match="cannot go"):
            record.transition("running")

    @pytest.mark.parametrize("terminal", sorted(TERMINAL_STATES))
    def test_terminal_states_never_leave(self, terminal):
        record = JobRecord(id="j1", owner="alice", spec=JobSpec("cluster"), state=terminal)
        for state in ("queued", "running", "pausing", "paused"):
            with pytest.raises(JobStateError):
                record.transition(state)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec("mapreduce")

    def test_record_round_trips_through_dict(self):
        record = JobRecord(
            id="j2",
            owner="bob",
            spec=JobSpec("sweep", {"repo": "traces/"}),
            priority=3,
            seq=7,
            snapshot=sweep_snapshot({}, "rm@A100", None),
        )
        clone = JobRecord.from_dict(record.to_dict())
        assert clone.to_dict() == record.to_dict()

    def test_schema_version_gate(self):
        data = JobRecord(id="j3", owner="a", spec=JobSpec("sweep")).to_dict()
        data["schema_version"] = DAEMON_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            JobRecord.from_dict(data)

    def test_snapshots_are_versioned(self):
        assert sweep_snapshot({}, None, None)["schema_version"] == DAEMON_SCHEMA_VERSION
        assert cluster_snapshot(4)["schema_version"] == DAEMON_SCHEMA_VERSION


# ----------------------------------------------------------------------
# Fair queue
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_priority_dispatches_first(self):
        queue = JobQueue()
        queue.push(0, "alice", 1, "low")
        queue.push(5, "bob", 2, "high")
        assert queue.pop(timeout=0.1) == "high"
        assert queue.pop(timeout=0.1) == "low"

    def test_round_robin_across_owners(self):
        """A burst from one tenant cannot bury an interleaved tenant:
        dispatch alternates owners no matter the submission order."""
        queue = JobQueue()
        for seq in range(1, 4):
            queue.push(0, "alice", seq, f"a{seq}")
        queue.push(0, "bob", 4, "b1")
        order = [queue.pop(timeout=0.1) for _ in range(4)]
        assert order == ["a1", "b1", "a2", "a3"]

    def test_fifo_within_one_owner(self):
        queue = JobQueue()
        for seq in (3, 1, 2):
            queue.push(0, "alice", seq, f"a{seq}")
        assert [queue.pop(timeout=0.1) for _ in range(3)] == ["a1", "a2", "a3"]

    def test_remove_drops_a_queued_job(self):
        queue = JobQueue()
        queue.push(0, "alice", 1, "a1")
        assert queue.remove("a1") is True
        assert queue.remove("a1") is False
        assert queue.pop(timeout=0.05) is None

    def test_close_wakes_blocked_pop(self):
        queue = JobQueue()
        results = []
        thread = threading.Thread(target=lambda: results.append(queue.pop()))
        thread.start()
        queue.close()
        thread.join(timeout=5.0)
        assert results == [None]
        with pytest.raises(RuntimeError, match="closed"):
            queue.push(0, "alice", 1, "a1")

    def test_depth_by_owner(self):
        queue = JobQueue()
        queue.push(0, "alice", 1, "a1")
        queue.push(0, "alice", 2, "a2")
        queue.push(0, "bob", 3, "b1")
        assert queue.depth_by_owner() == {"alice": 2, "bob": 1}
        assert len(queue) == 3


# ----------------------------------------------------------------------
# Durable store
# ----------------------------------------------------------------------
class TestJobStore:
    def make_record(self, job_id: str, state: str = "queued", seq: int = 1) -> JobRecord:
        return JobRecord(
            id=job_id, owner="alice", spec=JobSpec("sweep", {"repo": "r"}),
            state=state, seq=seq,
        )

    def test_save_load_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        record = self.make_record("j1")
        store.save(record)
        assert store.load("j1").to_dict() == record.to_dict()

    def test_recover_requeues_interrupted_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(self.make_record("j1", state="running", seq=1))
        store.save(self.make_record("j2", state="pausing", seq=2))
        store.save(self.make_record("j3", state="paused", seq=3))
        store.save(self.make_record("j4", state="completed", seq=4))
        states = {record.id: record.state for record in store.recover()}
        assert states == {
            "j1": "queued", "j2": "queued", "j3": "paused", "j4": "completed",
        }
        # The repair is itself durable.
        assert store.load("j1").state == "queued"

    def test_corrupt_files_do_not_wedge_startup(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(self.make_record("j1"))
        (store.jobs_dir / "torn.json").write_text("{ not json")
        assert [record.id for record in store.load_all()] == ["j1"]

    def test_load_all_orders_by_submission(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(self.make_record("jz", seq=2))
        store.save(self.make_record("ja", seq=1))
        assert [record.id for record in store.load_all()] == ["ja", "jz"]
        assert store.max_seq() == 2


# ----------------------------------------------------------------------
# Daemon lifecycle (in-process)
# ----------------------------------------------------------------------
class TestDaemonLifecycle:
    def test_sweep_job_completes(self, tmp_path, daemon_repo):
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            record = daemon.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
            final = daemon.wait(record.id, timeout=WAIT_S)
            assert final.state == "completed"
            result = daemon.result(record.id)
            assert result["kind"] == "sweep"
            assert result["total"] == 2
            assert {row["label"] for row in result["points"]} == {
                "param_linear@A100", "rm@A100",
            }

    def test_failed_job_carries_error_details(self, tmp_path):
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            record = daemon.submit(
                "alice", JobSpec("sweep", {"repo": str(tmp_path / "missing")})
            )
            final = daemon.wait(record.id, timeout=WAIT_S)
            assert final.state == "failed"
            assert final.error_type
            assert final.traceback
            with pytest.raises(JobStateError, match="no result"):
                daemon.result(record.id)

    def test_cancel_queued_job_never_runs(self, tmp_path, daemon_repo):
        daemon = ReplayDaemon(tmp_path / "state", workers=1)  # not started
        record = daemon.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
        daemon.cancel(record.id)
        assert daemon.get(record.id).state == "cancelled"
        assert len(daemon.queue) == 0

    def test_pause_queued_then_resume(self, tmp_path, daemon_repo):
        daemon = ReplayDaemon(tmp_path / "state", workers=1)  # not started
        record = daemon.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
        daemon.pause(record.id)
        assert daemon.get(record.id).state == "paused"
        daemon.resume(record.id)
        assert daemon.get(record.id).state == "queued"

    def test_illegal_operations_raise(self, tmp_path, daemon_repo):
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            record = daemon.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
            daemon.wait(record.id, timeout=WAIT_S)
            with pytest.raises(JobStateError):
                daemon.resume(record.id)
            with pytest.raises(JobStateError):
                daemon.pause(record.id)
            with pytest.raises(UnknownJobError):
                daemon.get("no-such-job")

    def test_ownership_is_enforced(self, tmp_path, daemon_repo):
        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        record = daemon.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
        with pytest.raises(JobAccessError):
            daemon.get(record.id, owner="bob")
        with pytest.raises(JobAccessError):
            daemon.cancel(record.id, owner="bob")
        assert daemon.get(record.id, owner="alice").id == record.id
        with pytest.raises(ValueError, match="owner"):
            daemon.submit("", JobSpec("sweep", sweep_payload(daemon_repo)))

    def test_health_payload(self, tmp_path, daemon_repo):
        with ReplayDaemon(tmp_path / "state", workers=1) as daemon:
            record = daemon.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
            daemon.wait(record.id, timeout=WAIT_S)
            health = daemon.health()
            assert health["schema_version"] == DAEMON_SCHEMA_VERSION
            assert health["jobs"] == {"completed": 1}
            assert health["workers"] == 1
            assert "entries" in health["cache"]


# ----------------------------------------------------------------------
# Acceptance: pause -> snapshot -> restart -> resume, byte-identical
# ----------------------------------------------------------------------
class TestPauseResumeAcrossRestart:
    @staticmethod
    def _pause_asap(daemon, job_id):
        """Wait for the job to start, then request a pause; returns the
        resting record.  Tolerates the pause losing the race to the
        finish line (the caller asserts byte-identity either way)."""
        daemon.wait(
            job_id, timeout=WAIT_S,
            until=("running", "completed", "failed", "cancelled"),
        )
        try:
            daemon.pause(job_id)
        except JobStateError:
            pass  # already terminal
        return daemon.wait(job_id, timeout=WAIT_S)

    def test_sweep_resume_is_byte_identical(self, tmp_path, daemon_repo):
        payload = sweep_payload(daemon_repo, iterations=30, devices=("A100", "V100"))

        reference = ReplayDaemon(tmp_path / "ref", workers=1)
        with reference:
            ref_record = reference.submit("alice", JobSpec("sweep", payload))
            assert reference.wait(ref_record.id, timeout=WAIT_S).state == "completed"
        ref_result = ref_record.result

        state_dir = tmp_path / "state"
        first = ReplayDaemon(state_dir, workers=1)
        with first:
            record = first.submit("alice", JobSpec("sweep", payload))
            paused = self._pause_asap(first, record.id)
        if paused.state == "paused":  # the pause can lose the race to the finish
            snapshot = first.snapshot_of(record.id)
            assert snapshot["schema_version"] == DAEMON_SCHEMA_VERSION
            assert snapshot["kind"] == "sweep"

            second = ReplayDaemon(state_dir, workers=1)  # fresh process, same disk
            recovered = second.get(record.id)
            assert recovered.state == "paused"
            assert recovered.snapshot == paused.snapshot
            with second:
                second.resume(record.id)
                final = second.wait(
                    record.id, timeout=WAIT_S, until=("completed", "failed")
                )
        else:
            final = paused
        assert final.state == "completed"
        assert summaries_of(final.result) == summaries_of(ref_result)
        assert cache_keys_of(final.result) == cache_keys_of(ref_result)

    def test_cluster_resume_is_byte_identical(self, tmp_path, fleet_dir):
        payload = cluster_payload(fleet_dir, iterations=8)

        reference = ReplayDaemon(tmp_path / "ref", workers=1)
        with reference:
            ref_record = reference.submit("alice", JobSpec("cluster", payload))
            assert reference.wait(ref_record.id, timeout=WAIT_S).state == "completed"

        state_dir = tmp_path / "state"
        first = ReplayDaemon(state_dir, workers=1)
        with first:
            record = first.submit("alice", JobSpec("cluster", payload))
            paused = self._pause_asap(first, record.id)
        if paused.state == "paused":
            assert paused.snapshot["kind"] == "cluster"
            assert paused.snapshot["completed_steps"] >= 0
            second = ReplayDaemon(state_dir, workers=1)
            with second:
                second.resume(record.id)
                final = second.wait(
                    record.id, timeout=WAIT_S, until=("completed", "failed")
                )
        else:
            final = paused
        assert final.state == "completed"
        # Fleet replay is deterministic: the resumed report is the
        # uninterrupted report, byte for byte.
        assert final.result["report"] == ref_record.result["report"]

    def test_restart_requeues_mid_flight_jobs(self, tmp_path, daemon_repo):
        """A daemon killed without pausing: the job restarts from queued."""
        state_dir = tmp_path / "state"
        first = ReplayDaemon(state_dir, workers=1)  # never started
        record = first.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
        first.get(record.id).transition("running")  # simulate dying mid-run
        first.store.save(first.get(record.id))

        second = ReplayDaemon(state_dir, workers=1)
        assert second.get(record.id).state == "queued"
        with second:
            final = second.wait(record.id, timeout=WAIT_S)
        assert final.state == "completed"


# ----------------------------------------------------------------------
# Acceptance: exactly-once pricing across tenants
# ----------------------------------------------------------------------
class TestExactlyOncePricing:
    def test_overlapping_sweeps_price_each_point_once(self, tmp_path, daemon_repo):
        payload = sweep_payload(daemon_repo, iterations=2, devices=("A100", "V100"))
        with ReplayDaemon(tmp_path / "state", workers=2) as daemon:
            alice = daemon.submit("alice", JobSpec("sweep", payload))
            bob = daemon.submit("bob", JobSpec("sweep", payload))
            final_a = daemon.wait(alice.id, timeout=WAIT_S)
            final_b = daemon.wait(bob.id, timeout=WAIT_S)
            assert final_a.state == final_b.state == "completed"
            # Identical grids -> identical summaries for both tenants...
            assert summaries_of(final_a.result) == summaries_of(final_b.result)
            # ...and each unique (trace, config) point replayed exactly once
            # across BOTH jobs: 4 unique points, 4 replays total.
            replayed = final_a.result["replayed"] + final_b.result["replayed"]
            unique = len({row["cache_key"] for row in final_a.result["points"]})
            assert unique == 4
            assert replayed == unique
            assert daemon.cache.stats()["entries"] == unique


# ----------------------------------------------------------------------
# Acceptance: bounded cache never evicts an in-flight job's inputs
# ----------------------------------------------------------------------
class TestCacheEvictionUnderDaemon:
    def test_ttl_and_max_entries_respect_pins(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", max_entries=1, ttl_s=0.05)
        from repro.core.replayer import ReplayResultSummary

        def summary(total):
            return ReplayResultSummary(iteration_times_us=[float(total)], replayed_ops=1)

        cache.put("pinned", summary(1.0))
        cache.pin("pinned")
        time.sleep(0.1)  # both entries are past the TTL...
        cache.put("victim", summary(2.0))
        cache.evict()
        # ...but only the unpinned one goes (TTL), and max_entries=1 is
        # satisfied without touching the pinned key.
        assert cache.get("pinned") is not None
        assert cache.get("victim") is None
        cache.unpin("pinned")
        time.sleep(0.1)
        cache.evict()
        assert cache.get("pinned") is None

    def test_tight_cache_job_still_completes(self, tmp_path, daemon_repo):
        """max_entries=1 with a 2-point job: pins keep every in-flight
        input resident, and the job completes with correct results."""
        with ReplayDaemon(
            tmp_path / "state", cache_max_entries=1, workers=1
        ) as daemon:
            record = daemon.submit("alice", JobSpec("sweep", sweep_payload(daemon_repo)))
            final = daemon.wait(record.id, timeout=WAIT_S)
            assert final.state == "completed"
            assert final.result["total"] == 2
            assert all(row["summary"] for row in final.result["points"])
            daemon.cache.evict()
            assert daemon.cache.stats()["entries"] <= 1


# ----------------------------------------------------------------------
# HTTP API
# ----------------------------------------------------------------------
class TestHttpApi:
    @pytest.fixture()
    def server(self, tmp_path, daemon_repo):
        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        with DaemonServer(daemon, port=0) as running:
            yield running

    def test_submit_run_result_over_http(self, server, daemon_repo):
        client = DaemonClient(server.url, client_id="alice")
        job = client.submit("sweep", sweep_payload(daemon_repo))
        assert job["state"] == "queued"
        assert job["owner"] == "alice"
        final = client.wait(job["id"], timeout=WAIT_S)
        assert final["state"] == "completed"
        assert final["has_result"] is True
        result = client.result(job["id"])
        assert result["schema_version"] == DAEMON_SCHEMA_VERSION
        assert result["result"]["total"] == 2

    def test_ownership_maps_to_403(self, server, daemon_repo):
        alice = DaemonClient(server.url, client_id="alice")
        bob = DaemonClient(server.url, client_id="bob")
        job = alice.submit("sweep", sweep_payload(daemon_repo))
        with pytest.raises(DaemonClientError) as error:
            bob.status(job["id"])
        assert error.value.status == 403
        with pytest.raises(DaemonClientError) as error:
            bob.cancel(job["id"])
        assert error.value.status == 403

    def test_listing_is_scoped_to_the_caller(self, server, daemon_repo):
        alice = DaemonClient(server.url, client_id="alice")
        bob = DaemonClient(server.url, client_id="bob")
        alice.submit("sweep", sweep_payload(daemon_repo))
        bob.submit("sweep", sweep_payload(daemon_repo))
        assert {job["owner"] for job in alice.list_jobs()["jobs"]} == {"alice"}
        everyone = alice.list_jobs(all_owners=True)["jobs"]
        assert {job["owner"] for job in everyone} == {"alice", "bob"}

    def test_unknown_job_maps_to_404(self, server):
        client = DaemonClient(server.url, client_id="alice")
        with pytest.raises(DaemonClientError) as error:
            client.status("no-such-job")
        assert error.value.status == 404
        with pytest.raises(DaemonClientError) as error:
            client.pause("no-such-job")
        assert error.value.status == 404

    def test_illegal_state_maps_to_400(self, server, daemon_repo):
        client = DaemonClient(server.url, client_id="alice")
        job = client.submit("sweep", sweep_payload(daemon_repo))
        client.wait(job["id"], timeout=WAIT_S)
        with pytest.raises(DaemonClientError) as error:
            client.resume(job["id"])
        assert error.value.status == 400
        with pytest.raises(DaemonClientError) as error:
            client.snapshot(job["id"])
        assert error.value.status == 400

    def test_malformed_submit_maps_to_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=b"{ not json",
            method="POST",
            headers={"X-Repro-Client": "alice", "Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request, timeout=10)
        assert error.value.code == 400
        with pytest.raises(DaemonClientError) as error:
            DaemonClient(server.url).submit("mapreduce", {})
        assert error.value.status == 400

    def test_oversized_body_maps_to_413_and_daemon_keeps_serving(self, server):
        from http.client import HTTPConnection

        from repro.daemon.server import MAX_BODY_BYTES

        host, port = server.address
        connection = HTTPConnection(host, port, timeout=10)
        try:
            # Declare a huge body but send none: the daemon must refuse on
            # the header alone instead of trying to read it into memory.
            connection.putrequest("POST", "/jobs")
            connection.putheader("X-Repro-Client", "alice")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES * 1024))
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 413
        assert body["error_type"] == "RequestTooLarge"
        assert DaemonClient(server.url).health()["schema_version"] == DAEMON_SCHEMA_VERSION

    def test_health_endpoint(self, server):
        health = DaemonClient(server.url).health()
        assert health["schema_version"] == DAEMON_SCHEMA_VERSION
        assert "cache" in health and "queue_depth" in health

    def test_unknown_route_maps_to_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"{server.url}/nope", timeout=10)
        error.value.close()  # the HTTPError holds the open response socket
        assert error.value.code == 404


# ----------------------------------------------------------------------
# Client CLI (through the real argparse surface)
# ----------------------------------------------------------------------
class TestDaemonCli:
    def test_submit_wait_status_result(self, tmp_path, daemon_repo, capsys):
        from repro.service.cli import main

        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        with DaemonServer(daemon, port=0) as server:
            args = ["--url", server.url, "--client", "alice"]
            code = main(
                ["submit", "sweep", "--repo", str(daemon_repo), *args, "--wait"]
            )
            payload = json.loads(capsys.readouterr().out)
            assert code == 0
            assert payload["state"] == "completed"

            assert main(["status", *args, payload["id"]]) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["state"] == "completed"

            assert main(["result", *args, payload["id"]]) == 0
            result = json.loads(capsys.readouterr().out)
            assert result["result"]["total"] == 2

            assert main(["status", *args]) == 0
            listing = json.loads(capsys.readouterr().out)
            assert len(listing["jobs"]) == 1

    def test_client_error_is_reported(self, tmp_path, daemon_repo, capsys):
        from repro.service.cli import main

        daemon = ReplayDaemon(tmp_path / "state", workers=1)
        with DaemonServer(daemon, port=0) as server:
            code = main(
                ["result", "--url", server.url, "--client", "alice", "nojob"]
            )
            assert code == 1
            assert "404" in capsys.readouterr().err
