"""The process-wide, content-addressed operator build.

``parse_schema`` is memoized by schema string, and ``compile_ir`` and
``build_op`` by IR text, so every node, rank and replay that records the
same operator call shares one parsed schema, one parsed graph, one operand
plan and one reconstructed op.  These tests pin what that sharing must not
change: failures still raise on every call, equal content gives the same
op and different content a different one, no replay mutates a shared
constant, concurrent builds agree, and the caches stay bounded.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.api as api
from repro.core.reconstruction import (
    OP_CACHE_SIZE,
    OperatorReconstructor,
    ReconstructionError,
    build_op,
)
from repro.et.schema import ETNode
from repro.torchsim.jit import IR_CACHE_SIZE, compile_ir, parse_ir
from repro.torchsim.ops.schema import SCHEMA_CACHE_SIZE, parse_schema
from repro.workloads.ddp import DistributedRunner

from tests.conftest import make_small_rm


def _node(node_id: int, op_schema: str, p: float = 0.5) -> ETNode:
    return ETNode(
        name="aten::dropout",
        id=node_id,
        parent=0,
        op_schema=op_schema,
        inputs=[[1, 2, 0, 64, 4, "cuda:0"], p, True],
        input_shapes=[[4, 16], [], []],
        input_types=["Tensor(float32)", "Double", "Bool"],
        outputs=[[3, 4, 0, 64, 4, "cuda:0"]],
        output_shapes=[[4, 16]],
        output_types=["Tensor(float32)"],
    )


DROPOUT = "aten::dropout(Tensor input, float p, bool train) -> Tensor"


def test_malformed_schema_raises_on_every_call():
    node = _node(7, "aten::dropout(Tensor input, float p, bool train)")  # no return
    for _ in range(3):
        with pytest.raises(ReconstructionError):
            OperatorReconstructor().reconstruct(node)
    reconstructor = OperatorReconstructor()
    for _ in range(2):
        with pytest.raises(ReconstructionError):
            reconstructor.reconstruct(node)
    assert len(reconstructor) == 0


def test_equal_node_content_builds_equal_callables():
    first = OperatorReconstructor().reconstruct(_node(1, DROPOUT))
    second = OperatorReconstructor().reconstruct(_node(2, DROPOUT))
    assert first.ir_text == second.ir_text
    assert first.function.graph.operand_plan() == second.function.graph.operand_plan()
    assert first.function.graph is second.function.graph  # one build, shared
    # One op per distinct IR program, whichever node or reconstructor asks.
    assert first is second
    assert isinstance(first.tensor_arg_positions, tuple)
    other = OperatorReconstructor().reconstruct(_node(1, DROPOUT, p=0.25))
    assert other is not first
    assert other.ir_text != first.ir_text


# ``vectorized`` is an accepted, ignored field: either value must replay alike.
@pytest.mark.parametrize("vectorized", [False, True])
def test_replays_leave_shared_collective_constants_untouched(vectorized):
    captures = DistributedRunner(
        lambda rank, world_size: make_small_rm(rank, world_size), world_size=4
    ).run()
    # Two measured passes after a warm-up: every pass reuses the shared ops.
    api.replay_cluster(captures).configure(vectorized=vectorized).iterations(2, warmup=1).run()

    collectives = [
        node for node in captures[0].execution_trace.nodes if node.op_schema.startswith("c10d::")
    ]
    assert collectives
    for node in collectives:
        misses = compile_ir.cache_info().misses
        rebuilt = OperatorReconstructor().reconstruct(node)
        assert compile_ir.cache_info().misses == misses  # the replay's build, shared
        cached = rebuilt.function.graph
        fresh = parse_ir(rebuilt.ir_text)
        assert [c.value for c in cached.constants] == [c.value for c in fresh.constants]
        assert cached.operand_plan() == fresh.operand_plan()
        assert any(
            isinstance(payload, dict) and "ranks" in payload
            for kind, payload in cached.operand_plan()
            if kind == "const"
        )


def test_concurrent_builds_agree():
    # Daemon workers reconstruct on threads: misses on one IR text may race,
    # but every caller must get the same, intact result.
    nodes = [
        ETNode(
            name="c10d::barrier",
            id=index,
            parent=0,
            op_schema="c10d::barrier(Dict pg=None, bool async_op=False) -> Tensor",
            inputs=[{"pg_id": 9000 + index % 8, "ranks": list(range(64)), "backend": "nccl"}, False],
            input_types=["Dict", "Bool"],
        )
        for index in range(64)
    ]
    results: dict = {}
    errors: list = []

    def worker(slot: int) -> None:
        try:
            reconstructor = OperatorReconstructor()
            results[slot] = [
                reconstructor.reconstruct(node).function.graph.operand_plan() for node in nodes
            ]
        except Exception as error:  # surfaced by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    expected = [
        parse_ir(OperatorReconstructor().reconstruct(node).ir_text).operand_plan()
        for node in nodes
    ]
    assert all(results[slot] == expected for slot in range(6))


@pytest.mark.parametrize(
    "cache, size",
    [(parse_schema, SCHEMA_CACHE_SIZE), (compile_ir, IR_CACHE_SIZE), (build_op, OP_CACHE_SIZE)],
)
def test_caches_are_bounded(cache, size):
    assert cache.cache_info().maxsize is not None
    assert cache.cache_info().maxsize == size
