"""``fleet-256``: a closed loop of 256-rank fleet co-replays.

Set-up captures every rank of a DDP-RM job separately with
``DistributedRunner.run_rank``, so the fleet holds 256 distinct traces.
It does not use ``synthesize_fleet`` clones: those share node objects, and
a cache keyed on object identity would hit for free.  Each request is
``ClusterReplayer(ReplayConfig(iterations=1, warmup_iterations=0,
world_size=256)).replay(captures)``: the only load on ``cluster`` (the
event scheduler, the rendezvous and the per-rank build).  Rank programs
are alike, so plan or parse caching has work to do here.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from repro.cluster.engine import ClusterReplayer, match_collectives
from repro.core.replayer import ReplayConfig
from repro.telemetry import Tracer
from repro.workloads.ddp import DistributedRunner
from repro.workloads.rm import RMConfig, RMWorkload

from common import (
    BUILD_STAGES,
    Outcome,
    digest,
    median,
    overhead_pct,
    peak_rss_mb,
    percentile,
    stage_durations_ms,
    stage_metrics,
    timed_rounds,
    write_trace,
)

WORLD = 256
#: Set-up captures the ranks in this many equal rounds.
SETUP_ROUNDS = 4


def capture_fleet(seed: int) -> tuple:
    """Capture all ranks; the seed sets table shapes and lookup indices,
    which change the traces but not how many ops each rank replays."""
    rng = random.Random(seed)
    dim = rng.choice((8, 16, 32))
    config = RMConfig(
        batch_size=16,
        num_tables=4,
        rows_per_table=rng.randrange(256, 1025),
        embedding_dim=dim,
        pooling_factor=2,
        bottom_mlp=(32, dim),
        top_mlp=(32, 16),
        index_seed=seed,
    )
    runner = DistributedRunner(
        lambda rank, world: RMWorkload(config, rank=rank, world_size=world),
        world_size=WORLD,
        device="A100",
    )
    per_round = WORLD // SETUP_ROUNDS
    rounds, setup_s = timed_rounds(
        SETUP_ROUNDS,
        lambda index: [
            runner.run_rank(rank) for rank in range(index * per_round, (index + 1) * per_round)
        ],
    )
    return [capture for batch in rounds for capture in batch], setup_s


def _replayer(vectorized: bool = True) -> ClusterReplayer:
    return ClusterReplayer(
        ReplayConfig(iterations=1, warmup_iterations=0, world_size=WORLD, vectorized=vectorized)
    )


def run(seed: int, seconds: float, traced: bool, out_dir) -> Outcome:
    captures, setup_s = capture_fleet(seed)
    walls: List[float] = []
    traced_walls: List[float] = []
    reports = []
    attempted = failed = 0
    bench = Tracer() if traced else None
    cluster_tracer = None

    def replay(with_trace: bool) -> None:
        nonlocal attempted, failed, cluster_tracer
        attempted += 1
        replayer = _replayer()
        try:
            if with_trace:
                cluster_tracer = replayer.tracer = Tracer()
                with bench.span("match_collectives", "bench"):
                    match_collectives([capture.execution_trace for capture in captures])
                with bench.span("ClusterReplayer.replay", "bench") as span:
                    report = replayer.replay(captures)
                traced_walls.append(span.wall_duration_s)
            else:
                start = time.perf_counter()
                report = replayer.replay(captures)
                walls.append(time.perf_counter() - start)
        except Exception:  # noqa: BLE001 - a failed fleet replay is a counted failure
            failed += 1
            return
        reports.append(report)

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        replay(False)
        if traced:
            replay(True)

    # Scalar-loop reference, after the timed loop.
    reference = digest(_replayer(vectorized=False).replay(captures).to_dict())
    failed += sum(1 for report in reports if digest(report.to_dict()) != reference)
    notes = [
        ("output_digest", reference, "sha256"),
        ("failed_frac", failed / attempted, "ratio"),
    ]
    first = reports[0]
    rank_ops = sum(rank.summary.replayed_ops for rank in first.ranks)

    if not traced:
        errors = [
            abs(rank.summary.mean_iteration_time_us - captures[rank.rank].iteration_time_us)
            / captures[rank.rank].iteration_time_us
            for rank in first.ranks
        ]
        walls_ms = [wall * 1e3 for wall in walls]
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "latency_ms_p50": median(walls_ms),
            "latency_ms_p90": percentile(walls_ms, 90),
            "throughput_per_s": rank_ops * len(walls) / sum(walls),
        }
        notes.append(("replay_error_pct", 100.0 * sum(errors) / len(errors), "%"))
        return Outcome(attempted, failed, metrics, notes)

    # Split the last traced fleet replay across the layers.
    spans = cluster_tracer.spans
    events = cluster_tracer.events
    (run_span,) = [span for span in spans if span.name == "scheduler:run"]
    by_rank = stage_durations_ms(spans, "rank")
    rows = list(by_rank.values())
    build_ms = sum(row.get(stage, 0.0) for row in rows for stage in BUILD_STAGES)
    outside_execute_ms = sum(ms for row in rows for stage, ms in row.items() if stage != "execute")
    bench_spans = {span.name: span.wall_duration_s for span in bench.spans}
    wall_s = bench_spans["ClusterReplayer.replay"]
    match_ms = bench_spans["match_collectives"] * 1e3
    metrics: Dict[str, float] = {
        **stage_metrics(rows),
        "core.build_share": build_ms / (wall_s * 1e3),
        "core.build_share_base_ms": wall_s * 1e3,
        "core.replayed_ops": rank_ops,
        "core.skipped_ops": sum(rank.summary.skipped_ops for rank in first.ranks),
        "cluster.match_ms": match_ms,
        "cluster.build_ms_per_rank": build_ms / len(rows),
        "cluster.execute_s": run_span.wall_duration_s - outside_execute_ms / 1e3,
        "cluster.aggregate_ms": (wall_s - run_span.wall_duration_s) * 1e3 - match_ms,
        "cluster.parks": sum(1 for event in events if event.name == "park"),
        "cluster.rendezvous": sum(1 for event in events if event.name == "rendezvous"),
        "telemetry.trace_overhead_pct": overhead_pct(walls, traced_walls),
    }
    write_trace(bench, out_dir / f"fleet-256-seed{seed}-bench.json", {"workload": "fleet-256", "seed": seed})
    write_trace(cluster_tracer, out_dir / f"fleet-256-seed{seed}-cluster.json", {"workload": "fleet-256", "seed": seed})
    return Outcome(attempted, failed, metrics, notes)
