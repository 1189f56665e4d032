"""Operator reconstruction (Section 4.3).

For every selected operator the replayer needs a callable that reproduces
the original invocation.  Following the paper:

1. the operator schema captured in the trace is parsed with a string-based
   parser to recover the operator name and argument types,
2. a TorchScript-style IR string is built from the parsed information plus
   the recorded non-tensor argument values,
3. the IR is compiled into a callable function, which during replay invokes
   the operator through the runtime — i.e. through exactly the same dispatch
   path as the original workload.

Reconstruction happens once, during the initialisation phase of the replay,
so it adds no per-iteration overhead (Section 4.3.4).  The IR text is the
op's identity: every node, rank and replay that records the same operator
call shares one immutable :class:`ReconstructedOp` per process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.et.schema import ETNode, is_tensor_type
from repro.torchsim.jit import CompiledFunction, build_ir, compile_ir
from repro.torchsim.ops.registry import OperatorRegistry, global_registry
from repro.torchsim.ops.schema import OperatorSchema, parse_schema


class ReconstructionError(RuntimeError):
    """Raised when an operator node cannot be turned into a callable."""


@dataclass(frozen=True)
class ReconstructedOp:
    """The callable for one distinct IR program plus bookkeeping metadata.

    Shared by every node whose call builds the same IR text: read-only.
    """

    op_name: str
    function: CompiledFunction
    tensor_arg_positions: Tuple[int, ...]
    ir_text: str


#: Distinct IR programs :func:`build_op` keeps per process.
OP_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=OP_CACHE_SIZE)
def build_op(ir_text: str) -> ReconstructedOp:
    """Compile ``ir_text`` into its shared :class:`ReconstructedOp`.

    Tensor arguments are exactly the graph's input operands, so the op is a
    function of the IR text alone.  Failures are not cached.
    """
    graph = compile_ir(ir_text)
    function = CompiledFunction(graph.call.op_name, graph)
    return ReconstructedOp(
        op_name=function.op_name,
        function=function,
        tensor_arg_positions=tuple(
            index for index, (kind, _) in enumerate(graph.operand_plan()) if kind == "input"
        ),
        ir_text=ir_text,
    )


class OperatorReconstructor:
    """Builds callables for trace operators via schema → IR → compile."""

    def __init__(self, registry: Optional[OperatorRegistry] = None):
        self.registry = registry if registry is not None else global_registry
        self._cache: Dict[int, ReconstructedOp] = {}

    # ------------------------------------------------------------------
    def reconstruct(self, node: ETNode) -> ReconstructedOp:
        """Reconstruct the callable for one operator node.

        Raises :class:`ReconstructionError` when the node has no parseable
        schema or the operator is unknown to the registry.
        """
        if node.id in self._cache:
            return self._cache[node.id]
        if not node.op_schema:
            raise ReconstructionError(f"node {node.id} ({node.name}) has no operator schema")
        try:
            schema = parse_schema(node.op_schema)
        except ValueError as error:
            raise ReconstructionError(str(error)) from error
        if not self.registry.has(schema.qualified_name):
            raise ReconstructionError(f"operator {schema.qualified_name} is not registered")

        return_type = schema.returns[0] if schema.returns else "Tensor"
        ir_text = build_ir(
            schema.qualified_name, self._argument_specs(node, schema), return_type=return_type
        )
        reconstructed = build_op(ir_text)
        self._cache[node.id] = reconstructed
        return reconstructed

    # ------------------------------------------------------------------
    def _argument_specs(self, node: ETNode, schema: OperatorSchema) -> List[Tuple[str, str, Any]]:
        """Build ``(name, type, value)`` triples for :func:`build_ir`.

        The recorded inputs are authoritative (the schema may declare more
        trailing arguments than the call site provided); schema argument
        names are used where available, purely for IR readability.
        Tensor-typed arguments become graph inputs, everything else a
        constant.
        """
        specs: List[Tuple[str, str, Any]] = []
        for index, (value, type_str) in enumerate(zip(node.inputs, node.input_types)):
            if index < len(schema.args) and schema.args[index].name:
                arg_name = schema.args[index].name
            else:
                arg_name = f"arg{index}"
            is_tensor_like = is_tensor_type(type_str) or type_str.startswith("GenericList[Tensor")
            if is_tensor_like:
                specs.append((arg_name, type_str, None))
            else:
                specs.append((arg_name, _constant_type(type_str), value))
        return specs

    def __len__(self) -> int:
        return len(self._cache)


def _constant_type(type_str: str) -> str:
    """Map a recorded argument type string onto a TorchScript constant type."""
    mapping = {
        "Int": "int",
        "Double": "float",
        "Bool": "bool",
        "String": "str",
        "None": "NoneType",
        "Dict": "Dict[str, int]",
        "GenericList[Int]": "int[]",
        "GenericList": "int[]",
        "Unknown": "NoneType",
    }
    return mapping.get(type_str, type_str or "NoneType")
