"""Direct execution of optimized IR graphs — the "compiled code" engine.

Instead of emitting machine code, the simulated machine executes the IR
graph directly: fixed nodes are walked in control-flow order, floating
expressions are evaluated on demand, and every executed node is charged
its cycle cost.  Heap effects (allocations, field accesses, monitors) go
through the same :class:`~repro.bytecode.heap.Heap` as the interpreter,
so Table 1's allocation metrics are measured identically in every
configuration.

Failed guards and Deoptimize nodes hand off to
:class:`~repro.runtime.deopt.Deoptimizer`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..bytecode.classfile import Program
from ..bytecode.heap import Heap, VMError
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.nodes import (ArrayLengthNode, BeginNode, BinaryArithmeticNode,
                        ConstantNode, DeoptimizeNode, EndNode,
                        FixedGuardNode, FrameStateNode, IfNode,
                        InstanceOfNode, IntCompareNode, InvokeNode,
                        IsNullNode, LoadFieldNode, LoadIndexedNode,
                        LoadStaticNode, LoopEndNode, MergeNode,
                        MonitorEnterNode, MonitorExitNode, NegNode,
                        NewArrayNode, NewInstanceNode, RefEqualsNode,
                        ReturnNode, StartNode, StoreFieldNode,
                        StoreIndexedNode, StoreStaticNode)
from .costmodel import DEFAULT_COST_MODEL, CostModel, ExecutionStats
from .deopt import MISSING, Deoptimizer

#: Safety valve against miscompiled infinite loops.
MAX_CONTROL_STEPS = 500_000_000


class GraphExecutionError(VMError):
    pass


class GraphInterpreter:
    """Executes one graph per call; reusable across calls."""

    def __init__(self, program: Program, heap: Heap,
                 invoke_callback: Callable[[str, Any, List[Any]], Any],
                 deoptimizer: Optional[Deoptimizer] = None,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 stats: Optional[ExecutionStats] = None,
                 collect_histogram: bool = False):
        self.program = program
        self.heap = heap
        self.invoke_callback = invoke_callback
        self.deoptimizer = deoptimizer
        self.cost_model = cost_model
        self.stats = stats if stats is not None else ExecutionStats()
        self.collect_histogram = collect_histogram
        #: Phi tuples per merge, so loop back-edges don't rebuild the
        #: list on every iteration.  Keyed by node identity; recompiled
        #: graphs bring fresh merge nodes, so stale entries are inert.
        self._phi_cache: Dict[Node, tuple] = {}
        #: Reusable memo dict for top-level expression evaluations
        #: (cleared before each use — identical semantics to a fresh
        #: dict, without the per-node allocation).
        self._scratch: Dict[Node, Any] = {}

    # -- public -----------------------------------------------------------

    def execute(self, graph: Graph, args: List[Any]) -> Any:
        """Run *graph* with *args*; returns the method's result."""
        env: Dict[Node, Any] = {}
        for param in graph.parameters:
            env[param] = args[param.index]
        multiplier = self.cost_model.icache_multiplier(graph.node_count())
        return self._run(graph, env, multiplier)

    # -- evaluation of floating expressions ----------------------------------

    def _evaluate_root(self, node: Node, env: Dict[Node, Any]) -> Any:
        """Top-level expression evaluation: fresh-memo semantics via a
        reused (cleared) scratch dict."""
        scratch = self._scratch
        scratch.clear()
        return self._evaluate(node, env, scratch)

    def _evaluate(self, node: Node, env: Dict[Node, Any],
                  memo: Dict[Node, Any]) -> Any:
        if node in env:
            return env[node]
        if isinstance(node, ConstantNode):
            return node.value
        if node in memo:
            return memo[node]
        if isinstance(node, BinaryArithmeticNode):
            value = node.evaluate(self._evaluate(node.x, env, memo),
                                  self._evaluate(node.y, env, memo))
        elif isinstance(node, IntCompareNode):
            value = node.evaluate(self._evaluate(node.x, env, memo),
                                  self._evaluate(node.y, env, memo))
        elif isinstance(node, NegNode):
            from ..bytecode.interpreter import wrap_int
            value = wrap_int(-self._evaluate(node.value, env, memo))
        else:
            raise GraphExecutionError(
                f"cannot evaluate {node!r} (not in environment)")
        memo[node] = value
        self.stats.cycles += self.cost_model.node_cost(node)
        return value

    # -- the control-flow walk --------------------------------------------------

    def _run(self, graph: Graph, env: Dict[Node, Any],
             multiplier: float) -> Any:
        cost_model = self.cost_model
        heap = self.heap
        stats = self.stats
        phi_cache = self._phi_cache
        histogram = (stats.node_kind_executions
                     if self.collect_histogram else None)
        stats.compiled_invocations += 1
        current: Node = graph.start
        steps = 0
        while True:
            steps += 1
            if steps > MAX_CONTROL_STEPS:
                raise GraphExecutionError("control step budget exceeded")
            stats.node_executions += 1
            stats.cycles += cost_model.node_cost(current) * multiplier
            if histogram is not None:
                kind = type(current).__name__
                histogram[kind] = histogram.get(kind, 0) + 1

            if isinstance(current, (StartNode, BeginNode, MergeNode)):
                current = current.next

            elif isinstance(current, (EndNode, LoopEndNode)):
                if isinstance(current, LoopEndNode):
                    merge = current.loop_begin
                else:
                    merge = current.merge()
                index = merge.end_index(current)
                phis = phi_cache.get(merge)
                if phis is None:
                    phis = tuple(merge.phis())
                    phi_cache[merge] = phis
                new_values = [
                    self._evaluate_root(phi.values[index], env)
                    for phi in phis]
                for phi, value in zip(phis, new_values):
                    env[phi] = value
                current = merge

            elif isinstance(current, IfNode):
                condition = self._evaluate_root(current.condition, env)
                current = (current.true_successor if condition
                           else current.false_successor)

            elif isinstance(current, FixedGuardNode):
                condition = self._evaluate_root(current.condition, env)
                if bool(condition) == current.negated:
                    return self._deoptimize(current.state, current.reason,
                                            env)
                current = current.next

            elif isinstance(current, ReturnNode):
                if current.value is None:
                    return None
                return self._evaluate_root(current.value, env)

            elif isinstance(current, DeoptimizeNode):
                return self._deoptimize(current.state, current.reason,
                                        env)

            elif isinstance(current, NewInstanceNode):
                on_stack = getattr(current, "stack_allocated", False)
                obj = heap.new_instance(current.class_name, on_stack)
                size = self.program.instance_size(current.class_name)
                stats.cycles += (
                    cost_model.stack_allocation_bytes_cost(size)
                    if on_stack
                    else cost_model.allocation_bytes_cost(size))
                env[current] = obj
                current = current.next

            elif isinstance(current, NewArrayNode):
                length = self._evaluate_root(current.length, env)
                on_stack = getattr(current, "stack_allocated", False)
                arr = heap.new_array(current.elem_type, length, on_stack)
                size = self.program.array_size(length)
                stats.cycles += (
                    cost_model.stack_allocation_bytes_cost(size)
                    if on_stack
                    else cost_model.allocation_bytes_cost(size))
                env[current] = arr
                current = current.next

            elif isinstance(current, LoadFieldNode):
                obj = self._evaluate_root(current.object, env)
                env[current] = heap.get_field(obj,
                                              current.field.field_name)
                current = current.next

            elif isinstance(current, StoreFieldNode):
                obj = self._evaluate_root(current.object, env)
                value = self._evaluate_root(current.value, env)
                heap.put_field(obj, current.field.field_name, value)
                current = current.next

            elif isinstance(current, LoadStaticNode):
                env[current] = self.program.get_static(
                    current.field.class_name, current.field.field_name)
                current = current.next

            elif isinstance(current, StoreStaticNode):
                value = self._evaluate_root(current.value, env)
                self.program.set_static(current.field.class_name,
                                        current.field.field_name, value)
                current = current.next

            elif isinstance(current, LoadIndexedNode):
                arr = self._evaluate_root(current.array, env)
                index = self._evaluate_root(current.index, env)
                env[current] = heap.array_load(arr, index)
                current = current.next

            elif isinstance(current, StoreIndexedNode):
                arr = self._evaluate_root(current.array, env)
                index = self._evaluate_root(current.index, env)
                value = self._evaluate_root(current.value, env)
                heap.array_store(arr, index, value)
                current = current.next

            elif isinstance(current, ArrayLengthNode):
                arr = self._evaluate_root(current.array, env)
                env[current] = heap.array_length(arr)
                current = current.next

            elif isinstance(current, RefEqualsNode):
                a = self._evaluate_root(current.x, env)
                b = self._evaluate_root(current.y, env)
                env[current] = 1 if a is b else 0
                current = current.next

            elif isinstance(current, IsNullNode):
                value = self._evaluate_root(current.value, env)
                env[current] = 1 if value is None else 0
                current = current.next

            elif isinstance(current, InstanceOfNode):
                value = self._evaluate_root(current.value, env)
                env[current] = heap.instance_of(value, current.class_name)
                current = current.next

            elif isinstance(current, MonitorEnterNode):
                heap.monitor_enter(self._evaluate_root(current.object, env))
                current = current.next

            elif isinstance(current, MonitorExitNode):
                heap.monitor_exit(self._evaluate_root(current.object, env))
                current = current.next

            elif isinstance(current, InvokeNode):
                arg_values = [self._evaluate_root(a, env)
                              for a in current.arguments]
                result = self.invoke_callback(current.kind, current.target,
                                              arg_values)
                if current.has_value:
                    env[current] = result
                current = current.next

            else:
                raise GraphExecutionError(
                    f"unexecutable node {current!r}")

    def _deoptimize(self, state: FrameStateNode, reason: str,
                    env: Dict[Node, Any]) -> Any:
        if self.deoptimizer is None:
            raise GraphExecutionError(
                f"deoptimization ({reason}) with no deoptimizer attached")
        return self.deoptimizer.deoptimize(
            state, lambda node: env.get(node, MISSING), self.stats,
            self.cost_model)
