"""``single-replay``: one client replaying distinct traces back to back.

Each request is ``api.replay(capture).run()`` at the default
``ReplayConfig`` (1 iteration, no warm-up, vectorized).  Set-up captures a
pool of distinct traces from the seed: seeded variants of the paper's four
families (PARAM-linear, ResNet, ASR, RM) with sizes drawn per trace.  RM
tables go up to paper scale (1M rows), so the value-sensitive embedding
tensors put RM replays in the tail.  Sizes are stratified per family in
blocks, so every prefix of whole blocks covers the size range evenly and
the mix does not swing from seed to seed.

Every trace is distinct, so a cache keyed on trace content gets no hits
here.  The scalar-loop references are computed after the timed loop, so
they cannot warm any cache the timed replays use.
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, List

import repro.api as api
from repro.core.replayer import ReplayConfig
from repro.workloads.asr import ASRConfig, ASRWorkload
from repro.workloads.param_linear import ParamLinearConfig, ParamLinearWorkload
from repro.workloads.resnet import ResNetConfig, ResNetWorkload
from repro.workloads.rm import RMConfig, RMWorkload

from common import (
    BUILD_STAGES,
    Outcome,
    StageSpanHook,
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

FAMILIES = ("param_linear", "resnet", "asr", "rm")
#: Size strata per family in one block; a block holds 4 x STRATA traces.
STRATA = 8
BLOCK = len(FAMILIES) * STRATA
#: Set-up is captured in this many rounds of whole blocks.
SETUP_ROUNDS = 4
#: Pool size per measured second: a little above the ~30 replays one
#: second holds on a 2-core Xeon host, so the pool outlasts the timed loop
#: while set-up and the reference check stay within a minute per run.  A
#: faster program may use up the pool early; the loop then stops there
#: (``pool_exhausted 1``) and the metrics cover the shorter window.
TRACES_PER_SECOND = 34


def pool_size(seconds: int) -> int:
    """Traces to capture: whole blocks in every round, enough for the loop."""
    unit = BLOCK * SETUP_ROUNDS
    return unit * max(1, math.ceil(seconds * TRACES_PER_SECOND / unit))


def _log_interp(low: float, high: float, u: float) -> float:
    return math.exp(math.log(low) + (math.log(high) - math.log(low)) * u)


def make_workload(family: str, u: float, rng: random.Random, serial: int):
    """One seeded workload.  ``u`` in [0, 1) is its size stratum and sets
    every dimension the replay cost depends on; ``rng`` adds jitter, and
    ``serial`` (unique per family) keeps every trace distinct."""

    def size(low: float, high: float) -> int:
        jittered = min(1.0, max(0.0, u + rng.uniform(-0.5, 0.5) / STRATA))
        return round(_log_interp(low, high, jittered))

    if family == "param_linear":
        return ParamLinearWorkload(
            ParamLinearConfig(
                num_layers=size(4, 20),
                hidden_size=size(128, 1728),
                input_size=size(128, 1728),
                batch_size=size(64, 512) + serial,
            )
        )
    if family == "resnet":
        return ResNetWorkload(
            ResNetConfig(
                blocks_per_stage=1 if u < 0.5 else 2,
                image_size=size(32, 224),
                batch_size=size(8, 128) + serial,
            )
        )
    if family == "asr":
        return ASRWorkload(
            ASRConfig(
                num_ffn_blocks=size(1, 6),
                num_lstm_layers=1 if u < 0.5 else 2,
                num_frames=size(100, 800),
                batch_size=size(8, 32) + serial,
            )
        )
    # RM: the embedding lookup count sets the replay cost (4k .. 512k
    # lookups); tables go up to paper scale (1M rows).
    tables = rng.choice((8, 16, 32, 64))
    pooling = rng.choice((4, 8, 16, 32))
    dim = rng.choice((32, 64, 128))
    return RMWorkload(
        RMConfig(
            num_tables=tables,
            pooling_factor=pooling,
            batch_size=max(8, round(size(2 ** 12, 2 ** 19) / (tables * pooling))),
            rows_per_table=round(_log_interp(1e3, 1e6, rng.random())),
            embedding_dim=dim,
            bottom_mlp=(512, 256, dim),
            index_seed=serial,
        )
    )


def trace_plan(seed: int, count: int) -> List[tuple]:
    """``(family, u, serial, rng seed)`` for each trace, in replay order."""
    rng = random.Random(seed)
    strata: Dict[str, List[float]] = {family: [] for family in FAMILIES}
    plan = []
    for index in range(count):
        family = FAMILIES[index % len(FAMILIES)]
        if not strata[family]:
            order = list(range(STRATA))
            rng.shuffle(order)
            strata[family] = [(k + rng.random()) / STRATA for k in order]
        plan.append((family, strata[family].pop(), index // len(FAMILIES), rng.getrandbits(32)))
    return plan


def capture_pool(seed: int, count: int) -> tuple:
    """Capture the pool in :data:`SETUP_ROUNDS` rounds of whole blocks."""
    plan = trace_plan(seed, count)
    per_round = count // SETUP_ROUNDS

    def build(round_index: int):
        return [
            api.capture(make_workload(family, u, random.Random(draw), serial), device="A100")
            for family, u, serial, draw in plan[round_index * per_round:(round_index + 1) * per_round]
        ]

    rounds, setup_s = timed_rounds(SETUP_ROUNDS, build)
    pool = [capture for batch in rounds for capture in batch]
    digests = {capture.execution_trace.digest() for capture in pool}
    if len(digests) != len(pool):
        raise RuntimeError(f"trace pool has {len(pool) - len(digests)} duplicate trace(s)")
    return pool, setup_s


def _reference(capture) -> str:
    config = ReplayConfig(device=capture.device, vectorized=False)
    return digest(api.replay(capture, config=config).run().summarize().to_dict())


def run(seed: int, seconds: float, traced: bool, out_dir) -> Outcome:
    pool, setup_s = capture_pool(seed, pool_size(int(seconds)))
    tracer = api.Tracer() if traced else None
    #: (pool index, summary dict, wall ms, traced?) per completed replay.
    done: List[tuple] = []
    attempted = 0
    failed = 0

    def replay(index: int, with_trace: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        try:
            if with_trace:
                with tracer.scope(replay=index), tracer.span("api.replay.run", "bench") as span:
                    result = api.replay(pool[index]).hook(StageSpanHook(tracer)).run()
                wall_ms = span.wall_duration_s * 1e3
            else:
                start = time.perf_counter()
                result = api.replay(pool[index]).run()
                wall_ms = (time.perf_counter() - start) * 1e3
        except Exception:  # noqa: BLE001 - a failed replay is a counted failure
            failed += 1
            return
        done.append((index, result.summarize().to_dict(), wall_ms, with_trace))

    deadline = time.perf_counter() + seconds
    next_index = 0
    while next_index < len(pool) and time.perf_counter() < deadline:
        if traced:
            # Each trace is replayed with and without tracing; alternate the
            # order so whichever runs second never gets a systematic edge.
            for with_trace in (False, True) if next_index % 2 == 0 else (True, False):
                replay(next_index, with_trace)
        else:
            replay(next_index, False)
        next_index += 1

    # Scalar-loop references for the whole pool, after the timed loop.
    references = [_reference(capture) for capture in pool]
    failed += sum(1 for index, summary, _, _ in done if digest(summary) != references[index])
    notes = [
        ("output_digest", digest(references), "sha256"),
        ("pool_traces", len(pool), "count"),
        ("pool_exhausted", int(next_index == len(pool)), "flag"),
        ("failed_frac", failed / attempted, "ratio"),
    ]
    untraced_ms = [wall for _, _, wall, with_trace in done if not with_trace]

    if not traced:
        errors = [
            abs(summary["mean_iteration_time_us"] - pool[index].iteration_time_us)
            / pool[index].iteration_time_us
            for index, summary, _, _ in done
        ]
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "latency_ms_p50": median(untraced_ms),
            "latency_ms_p90": percentile(untraced_ms, 90),
            "throughput_per_s": len(untraced_ms) / (sum(untraced_ms) / 1e3),
        }
        notes.append(("replay_error_pct", 100.0 * sum(errors) / len(errors), "%"))
        return Outcome(attempted, failed, metrics, notes)

    spans = tracer.spans
    by_replay = stage_durations_ms(spans, "replay")
    rows, coverage, traced_ms = [], [], []
    for span in spans:
        if span.name == "api.replay.run":
            stages = by_replay[span.correlation["replay"]]
            wall_ms = span.wall_duration_s * 1e3
            rows.append(stages)
            coverage.append(sum(stages.values()) / wall_ms)
            traced_ms.append(wall_ms)
    build_ms = sum(row.get(stage, 0.0) for row in rows for stage in BUILD_STAGES)
    traced_outputs = [summary for _, summary, _, with_trace in done if with_trace]
    metrics = {
        **stage_metrics(rows),
        "core.build_share": build_ms / sum(traced_ms),
        "core.build_share_base_ms": sum(traced_ms),
        "core.stage_coverage_pct_min": 100.0 * min(coverage),
        "core.replayed_ops": median([summary["replayed_ops"] for summary in traced_outputs]),
        "core.skipped_ops": median([summary["skipped_ops"] for summary in traced_outputs]),
        "telemetry.trace_overhead_pct": overhead_pct(untraced_ms, traced_ms),
    }
    write_trace(tracer, out_dir / f"single-replay-seed{seed}.json", {"workload": "single-replay", "seed": seed})
    return Outcome(attempted, failed, metrics, notes)
