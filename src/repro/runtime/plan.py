"""Threaded-code execution plans: optimized IR lowered to closures.

:class:`~repro.runtime.graph_interpreter.GraphInterpreter` re-discovers
the graph's structure on every executed node: a ~20-arm ``isinstance``
ladder per control step, a dict-keyed environment, phi lists
re-materialized at every merge, and per-node costs recomputed on every
visit.  This module performs that discovery *once per compilation*
instead — the step from a switch-dispatched interpreter to
template-compiled threaded code that real VMs (and Graal itself) embody.

An :class:`ExecutionPlan` lowers a graph into:

- a linearized array of fixed nodes with integer instruction pointers,
  so dispatch is ``handlers[ip](slots)`` with no type tests;
- a **dense slot environment**: every value the graph interpreter would
  keep in its ``Dict[Node, Any]`` gets a list index at plan-build time
  (parameters, phis and value-producing fixed nodes);
- **pre-resolved phi moves**: for each End/LoopEnd the (input-expression,
  target-slot) pairs are computed once, preserving parallel-move order
  (all inputs are read before any phi slot is written);
- **pre-flattened floating expressions**: each operand tree is compiled
  to a closure tree, so the recursive ``_evaluate`` disappears from the
  hot path while keeping its exact memoization semantics;
- **pre-folded costs**: ``node_cost(node) * icache_multiplier`` is a
  per-handler constant computed at build time.

The lowering is *observationally identical* to the graph interpreter:
checksums, heap statistics, monitor operations, deoptimization counts
and — because charges are applied to the shared cycle accumulator in the
same order with the same values — bit-identical simulated cycles.  Guard
failures hand the :class:`~repro.runtime.deopt.Deoptimizer` a lookup
over the slot array; it re-evaluates and rematerializes (Section 5.5 of
the paper) exactly as for every other backend.

A plan is built from static information only (graph + program + cost
model) and later *bound* to one VM's runtime objects (heap, stats,
invoke callback, deoptimizer), producing a :class:`BoundPlan` whose
handler closures capture everything they need.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..bytecode.classfile import Program
from ..bytecode.heap import Heap
from ..bytecode.interpreter import wrap_int
from ..ir.graph import Graph
from ..ir.node import IRError, Node
from ..ir.nodes import (ARITHMETIC_EVAL, COMPARE_EVAL, INTERIOR,
                        ArrayLengthNode, BeginNode, BinaryArithmeticNode,
                        ConstantNode, DeoptimizeNode, EndNode,
                        FixedGuardNode, IfNode, InstanceOfNode,
                        IntCompareNode, InvokeNode, IsNullNode,
                        LoadFieldNode, LoadIndexedNode, LoadStaticNode,
                        LoopEndNode, MergeNode, MonitorEnterNode,
                        MonitorExitNode, NegNode, NewArrayNode,
                        NewInstanceNode, ParameterNode, PhiNode,
                        RefEqualsNode, ReturnNode, StartNode,
                        StoreFieldNode, StoreIndexedNode, StoreStaticNode,
                        expr_children)
from ..scheduler.cfg import control_successors
from .costmodel import CostModel, ExecutionStats
from .deopt import MISSING, Deoptimizer
from .graph_interpreter import MAX_CONTROL_STEPS, GraphExecutionError


class PlanError(Exception):
    """The graph cannot be lowered to a plan (unknown node kind or a
    structural problem).  The VM falls back to the graph interpreter."""


#: An unwritten slot (``None`` is a legal null value) — the sentinel a
#: frame lookup hands the Deoptimizer for a node with no value.
_UNSET = MISSING

#: Slot 0 of every activation holds the method result.
_RESULT_SLOT = 0

#: Node kinds that simply fall through to ``next`` at zero cost.
_PASSTHROUGH = (StartNode, BeginNode, MergeNode)


def _raise_unset(node: Node):
    raise GraphExecutionError(
        f"cannot evaluate {node!r} (not in environment)")


class ExecutionPlan:
    """The static lowering of one graph: linearization + validation.

    Built by the compiler as part of its
    :class:`~repro.jit.compiler.CompilationResult`; runtime-independent
    (no heap, no stats) so it can be built and inspected without a VM.
    """

    def __init__(self, graph: Graph, program: Program,
                 cost_model: CostModel):
        self.graph = graph
        self.program = program
        self.cost_model = cost_model
        #: The i-cache pressure factor, folded once (the graph does not
        #: change after compilation).
        self.multiplier = cost_model.icache_multiplier(graph.node_count())
        if graph.start is None:
            raise PlanError("graph has no start node")
        self.nodes: List[Node] = self._linearize(graph)
        self.ip_of: Dict[Node, int] = {
            node: ip for ip, node in enumerate(self.nodes)}
        self._validate()

    # -- static analysis ---------------------------------------------------

    @staticmethod
    def _linearize(graph: Graph) -> List[Node]:
        """All reachable fixed nodes in deterministic DFS order."""
        order: List[Node] = []
        seen: Set[Node] = set()
        stack: List[Node] = [graph.start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            order.append(node)
            try:
                stack.extend(control_successors(node))
            except IRError as error:
                raise PlanError(str(error)) from error
        return order

    def _validate(self):
        supported = _PASSTHROUGH + (
            EndNode, LoopEndNode, IfNode, FixedGuardNode, ReturnNode,
            DeoptimizeNode, NewInstanceNode, NewArrayNode, LoadFieldNode,
            StoreFieldNode, LoadStaticNode, StoreStaticNode,
            LoadIndexedNode, StoreIndexedNode, ArrayLengthNode,
            RefEqualsNode, IsNullNode, InstanceOfNode,
            MonitorEnterNode, MonitorExitNode, InvokeNode)
        for node in self.nodes:
            if not isinstance(node, supported):
                raise PlanError(f"cannot lower {node!r} to a plan")
            if isinstance(node, _FIXED_WITH_NEXT_REQUIRED) and \
                    node.next is None:
                raise PlanError(f"{node} has no next")

    # -- serialization -----------------------------------------------------

    def payload(self) -> List[int]:
        """The plan's pre-lowering table: the linearized instruction
        order as graph node ids.  Everything else about a plan is
        derived from (graph, cost model), so this list is all the
        compilation cache needs to persist; closures are re-linked per
        VM at :meth:`bind` time as usual."""
        return [node.id for node in self.nodes]

    @classmethod
    def from_payload(cls, graph: Graph, program: Program,
                     cost_model: CostModel,
                     order: List[int]) -> "ExecutionPlan":
        """Rebuild a plan from a cached graph and a persisted
        linearization order, skipping the DFS."""
        plan = cls.__new__(cls)
        plan.graph = graph
        plan.program = program
        plan.cost_model = cost_model
        plan.multiplier = cost_model.icache_multiplier(graph.node_count())
        if graph.start is None:
            raise PlanError("graph has no start node")
        try:
            plan.nodes = [graph._nodes[node_id] for node_id in order]
        except KeyError as missing:
            raise PlanError(f"stale plan order: no node {missing}")
        if not plan.nodes or plan.nodes[0] is not graph.start:
            raise PlanError("stale plan order: start mismatch")
        plan.ip_of = {node: ip for ip, node in enumerate(plan.nodes)}
        plan._validate()
        return plan

    # -- binding -----------------------------------------------------------

    def bind(self, heap: Heap, stats: ExecutionStats,
             invoke_callback: Callable[[str, Any, List[Any]], Any],
             deoptimizer: Optional[Deoptimizer] = None,
             collect_histogram: bool = False) -> "BoundPlan":
        """Link the plan against one VM's runtime objects."""
        return _PlanBinder(self, heap, stats, invoke_callback,
                           deoptimizer, collect_histogram).build()


_FIXED_WITH_NEXT_REQUIRED = _PASSTHROUGH + (
    NewInstanceNode, NewArrayNode, LoadFieldNode, StoreFieldNode,
    LoadStaticNode, StoreStaticNode, LoadIndexedNode, StoreIndexedNode,
    ArrayLengthNode, RefEqualsNode, IsNullNode, InstanceOfNode,
    MonitorEnterNode, MonitorExitNode, InvokeNode, FixedGuardNode)


class BoundPlan:
    """A plan linked to one VM: ready-to-run threaded code."""

    __slots__ = ("handlers", "entry_ip", "param_moves", "slot_count",
                 "stats", "plan")

    def __init__(self, plan: ExecutionPlan, handlers: List[Callable],
                 entry_ip: int, param_moves: List[Tuple[int, int]],
                 slot_count: int, stats: ExecutionStats):
        self.plan = plan
        self.handlers = handlers
        self.entry_ip = entry_ip
        self.param_moves = param_moves
        self.slot_count = slot_count
        self.stats = stats

    def execute(self, args: List[Any]) -> Any:
        """Run the compiled method with *args*; returns its result."""
        slots = [_UNSET] * self.slot_count
        for slot, index in self.param_moves:
            slots[slot] = args[index]
        stats = self.stats
        stats.compiled_invocations += 1
        handlers = self.handlers
        ip = self.entry_ip
        steps = 0
        while ip >= 0:
            steps += 1
            if steps > MAX_CONTROL_STEPS:
                raise GraphExecutionError("control step budget exceeded")
            ip = handlers[ip](slots)
        return slots[_RESULT_SLOT]


class _PlanBinder:
    """Builds the handler closures for one (plan, VM) pair."""

    def __init__(self, plan: ExecutionPlan, heap: Heap,
                 stats: ExecutionStats, invoke_callback, deoptimizer,
                 collect_histogram: bool):
        self.plan = plan
        self.heap = heap
        self.stats = stats
        self.invoke_callback = invoke_callback
        self.deoptimizer = deoptimizer
        self.collect_histogram = collect_histogram
        #: node -> dense slot index (slot 0 is the result).
        self.slot_of: Dict[Node, int] = {}
        self._slot_count = 1
        self._phi_tuples: Dict[MergeNode, Tuple[PhiNode, ...]] = {}
        self._run_deopt = self._make_run_deopt()

    # -- slots -------------------------------------------------------------

    def _slot_for(self, node: Node) -> int:
        slot = self.slot_of.get(node)
        if slot is None:
            slot = self._slot_count
            self._slot_count += 1
            self.slot_of[node] = slot
        return slot

    # -- expression compilation -------------------------------------------

    def _is_leaf(self, node: Node) -> bool:
        return (node.is_fixed or isinstance(node, (ParameterNode,
                                                   PhiNode)))

    def _find_shared(self, root: Node) -> Set[Node]:
        """Interior nodes referenced more than once below *root* — the
        ones the interpreter's per-evaluation memo would deduplicate."""
        counts: Dict[Node, int] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if not isinstance(node, INTERIOR):
                continue
            seen = counts.get(node, 0) + 1
            counts[node] = seen
            if seen == 1:
                stack.extend(expr_children(node))
        return {node for node, count in counts.items() if count > 1}

    def _compile_value(self, root: Node) -> Callable[[List[Any]], Any]:
        """A ``closure(slots) -> value`` equivalent to one top-level
        ``GraphInterpreter._evaluate(root, env)`` call (fresh memo)."""
        if isinstance(root, ConstantNode):
            value = root.value
            return lambda slots: value
        if self._is_leaf(root):
            slot = self._slot_for(root)

            def read(slots, _slot=slot, _node=root):
                value = slots[_slot]
                if value is _UNSET:
                    raise GraphExecutionError(
                        f"cannot evaluate {_node!r} (not in environment)")
                return value

            return read
        shared = self._find_shared(root)
        if shared:
            inner = self._compile_expr(root, shared)
            return lambda slots, _inner=inner: _inner(slots, {})
        # No shared subexpressions: the memo can never hit, so compile
        # single-argument closures (one less indirection on the hot path;
        # cost-charging order is unchanged).
        return self._compile_expr_nomemo(root)

    def _operand_nomemo(self, node: Node):
        """Classify an operand for closure fusion: ``("const", value)``,
        ``("slot", index)`` or ``("closure", fn)``."""
        if isinstance(node, ConstantNode):
            return "const", node.value
        if self._is_leaf(node):
            return "slot", self._slot_for(node)
        return "closure", self._compile_expr_nomemo(node)

    def _compile_expr_nomemo(self, node: Node):
        """Like :meth:`_compile_expr` but for trees without shared
        interior nodes: ``closure(slots) -> value``."""
        if isinstance(node, ConstantNode):
            value = node.value
            return lambda slots: value
        if self._is_leaf(node):
            slot = self._slot_for(node)

            def read(slots, _slot=slot, _node=node):
                value = slots[_slot]
                if value is _UNSET:
                    raise GraphExecutionError(
                        f"cannot evaluate {_node!r} (not in environment)")
                return value

            return read
        stats = self.stats
        if isinstance(node, (BinaryArithmeticNode, IntCompareNode)):
            table = (ARITHMETIC_EVAL
                     if isinstance(node, BinaryArithmeticNode)
                     else COMPARE_EVAL)
            op = table[node.op]
            cost = self.plan.cost_model.node_cost(node)
            # Fuse slot/constant operands into the closure — saves a
            # closure call per operand on the hottest expression shape.
            mx, px = self._operand_nomemo(node.x)
            my, py = self._operand_nomemo(node.y)
            if mx == "slot" and my == "slot":
                def evaluate(slots, _op=op, _sx=px, _sy=py, _cost=cost,
                             _stats=stats, _nx=node.x, _ny=node.y):
                    a = slots[_sx]
                    if a is _UNSET:
                        _raise_unset(_nx)
                    b = slots[_sy]
                    if b is _UNSET:
                        _raise_unset(_ny)
                    value = _op(a, b)
                    _stats.cycles += _cost
                    return value

                return evaluate
            if mx == "slot" and my == "const":
                def evaluate(slots, _op=op, _sx=px, _b=py, _cost=cost,
                             _stats=stats, _nx=node.x):
                    a = slots[_sx]
                    if a is _UNSET:
                        _raise_unset(_nx)
                    value = _op(a, _b)
                    _stats.cycles += _cost
                    return value

                return evaluate
            if mx == "const" and my == "slot":
                def evaluate(slots, _op=op, _a=px, _sy=py, _cost=cost,
                             _stats=stats, _ny=node.y):
                    b = slots[_sy]
                    if b is _UNSET:
                        _raise_unset(_ny)
                    value = _op(_a, b)
                    _stats.cycles += _cost
                    return value

                return evaluate
            x = px if mx == "closure" else self._compile_expr_nomemo(
                node.x)
            y = py if my == "closure" else self._compile_expr_nomemo(
                node.y)

            def evaluate(slots, _op=op, _x=x, _y=y, _cost=cost,
                         _stats=stats):
                value = _op(_x(slots), _y(slots))
                _stats.cycles += _cost
                return value

            return evaluate
        if isinstance(node, NegNode):
            operand = self._compile_expr_nomemo(node.value)
            cost = self.plan.cost_model.node_cost(node)

            def evaluate(slots, _operand=operand, _cost=cost,
                         _stats=stats):
                value = wrap_int(-_operand(slots))
                _stats.cycles += _cost
                return value

            return evaluate

        def evaluate(slots, _node=node):
            raise GraphExecutionError(
                f"cannot evaluate {_node!r} (not in environment)")

        return evaluate

    def _compile_expr(self, node: Node, shared: Set[Node],
                      compiled: Dict[Node, Callable] = None):
        """A ``closure(slots, memo) -> value`` for one expression node,
        charging costs in the interpreter's (post-order) order.

        *compiled* caches the closure built for each shared node: a
        shared node's closure is memo-checked at runtime anyway, so
        every reference can reuse one closure object.  Without this the
        compile-time walk re-expands shared subtrees once per
        reference — exponential on chains like
        ``acc = f(acc, acc); acc = f(acc, acc); ...``."""
        if compiled is None:
            compiled = {}
        cached = compiled.get(node)
        if cached is not None:
            return cached
        if isinstance(node, ConstantNode):
            value = node.value
            return lambda slots, memo: value
        if self._is_leaf(node):
            slot = self._slot_for(node)

            def read(slots, memo, _slot=slot, _node=node):
                value = slots[_slot]
                if value is _UNSET:
                    raise GraphExecutionError(
                        f"cannot evaluate {_node!r} (not in environment)")
                return value

            return read
        stats = self.stats
        if isinstance(node, (BinaryArithmeticNode, IntCompareNode)):
            table = (ARITHMETIC_EVAL
                     if isinstance(node, BinaryArithmeticNode)
                     else COMPARE_EVAL)
            op = table[node.op]
            x = self._compile_expr(node.x, shared, compiled)
            y = self._compile_expr(node.y, shared, compiled)
            cost = self.plan.cost_model.node_cost(node)

            def evaluate(slots, memo, _op=op, _x=x, _y=y, _cost=cost,
                         _stats=stats):
                value = _op(_x(slots, memo), _y(slots, memo))
                _stats.cycles += _cost
                return value

        elif isinstance(node, NegNode):
            operand = self._compile_expr(node.value, shared, compiled)
            cost = self.plan.cost_model.node_cost(node)

            def evaluate(slots, memo, _operand=operand, _cost=cost,
                         _stats=stats):
                value = wrap_int(-_operand(slots, memo))
                _stats.cycles += _cost
                return value

        else:
            def evaluate(slots, memo, _node=node):
                raise GraphExecutionError(
                    f"cannot evaluate {_node!r} (not in environment)")

            return evaluate
        if node in shared:
            def memoized(slots, memo, _node=node, _evaluate=evaluate):
                value = memo.get(_node, _UNSET)
                if value is not _UNSET:
                    return value
                value = _evaluate(slots, memo)
                memo[_node] = value
                return value

            compiled[node] = memoized
            return memoized
        return evaluate

    # -- deoptimization ----------------------------------------------------

    def _make_run_deopt(self):
        stats = self.stats
        cost_model = self.plan.cost_model
        deoptimizer = self.deoptimizer
        slot_of = self.slot_of

        def run_deopt(state, reason, slots):
            if deoptimizer is None:
                raise GraphExecutionError(
                    f"deoptimization ({reason}) with no deoptimizer "
                    f"attached")

            def lookup(node):
                slot = slot_of.get(node)
                return _UNSET if slot is None else slots[slot]

            return deoptimizer.deoptimize(state, lookup, stats,
                                          cost_model)

        return run_deopt

    # -- handler construction ----------------------------------------------

    def build(self) -> BoundPlan:
        plan = self.plan
        param_moves = [(self._slot_for(param), param.index)
                       for param in plan.graph.parameters]
        handlers: List[Callable] = [None] * len(plan.nodes)
        for ip, node in enumerate(plan.nodes):
            handler = self._build_handler(node)
            if self.collect_histogram:
                handler = self._with_histogram(handler, node)
            handlers[ip] = handler
        return BoundPlan(plan, handlers, plan.ip_of[plan.graph.start],
                         param_moves, self._slot_count, self.stats)

    def _with_histogram(self, handler, node):
        histogram = self.stats.node_kind_executions
        kind = type(node).__name__

        def counted(slots, _handler=handler, _kind=kind,
                    _histogram=histogram):
            _histogram[_kind] = _histogram.get(_kind, 0) + 1
            return _handler(slots)

        return counted

    def _phis_of(self, merge: MergeNode) -> Tuple[PhiNode, ...]:
        phis = self._phi_tuples.get(merge)
        if phis is None:
            phis = tuple(merge.phis())
            self._phi_tuples[merge] = phis
        return phis

    def _fixed_cost(self, node: Node) -> float:
        """``node_cost * icache_multiplier``, folded once per node."""
        return self.plan.cost_model.node_cost(node) * self.plan.multiplier

    def _build_handler(self, node: Node) -> Callable:
        stats = self.stats
        heap = self.heap
        program = self.plan.program
        ip_of = self.plan.ip_of
        cost = self._fixed_cost(node)

        if isinstance(node, _PASSTHROUGH):
            next_ip = ip_of[node.next]

            def handler(slots, _next=next_ip, _stats=stats):
                _stats.node_executions += 1
                return _next

            return handler

        if isinstance(node, (EndNode, LoopEndNode)):
            if isinstance(node, LoopEndNode):
                merge = node.loop_begin
            else:
                merge = node.merge()
            merge_ip = ip_of[merge]
            index = merge.end_index(node)
            moves = tuple(
                (self._compile_value(phi.values[index]),
                 self._slot_for(phi))
                for phi in self._phis_of(merge))
            if not moves:
                def handler(slots, _next=merge_ip, _stats=stats):
                    _stats.node_executions += 1
                    return _next

            elif len(moves) == 1:
                value_of, slot = moves[0]

                def handler(slots, _value_of=value_of, _slot=slot,
                            _next=merge_ip, _stats=stats):
                    _stats.node_executions += 1
                    slots[_slot] = _value_of(slots)
                    return _next

            else:
                def handler(slots, _moves=moves, _next=merge_ip,
                            _stats=stats):
                    _stats.node_executions += 1
                    # Parallel move: read every input before writing any
                    # phi slot (loop phis may feed each other).
                    values = [value_of(slots) for value_of, __ in _moves]
                    for (__, slot), value in zip(_moves, values):
                        slots[slot] = value
                    return _next

            return handler

        if isinstance(node, IfNode):
            condition = self._compile_value(node.condition)
            true_ip = ip_of[node.true_successor]
            false_ip = ip_of[node.false_successor]

            def handler(slots, _condition=condition, _true=true_ip,
                        _false=false_ip, _cost=cost, _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                return _true if _condition(slots) else _false

            return handler

        if isinstance(node, FixedGuardNode):
            condition = self._compile_value(node.condition)
            next_ip = ip_of[node.next]
            state = node.state
            reason = node.reason
            negated = node.negated
            run_deopt = self._run_deopt

            def handler(slots, _condition=condition, _negated=negated,
                        _state=state, _reason=reason, _next=next_ip,
                        _cost=cost, _stats=stats, _run_deopt=run_deopt):
                _stats.node_executions += 1
                _stats.cycles += _cost
                if bool(_condition(slots)) == _negated:
                    slots[_RESULT_SLOT] = _run_deopt(_state, _reason,
                                                     slots)
                    return -1
                return _next

            return handler

        if isinstance(node, ReturnNode):
            if node.value is None:
                def handler(slots, _stats=stats):
                    _stats.node_executions += 1
                    slots[_RESULT_SLOT] = None
                    return -1

            else:
                value_of = self._compile_value(node.value)

                def handler(slots, _value_of=value_of, _stats=stats):
                    _stats.node_executions += 1
                    slots[_RESULT_SLOT] = _value_of(slots)
                    return -1

            return handler

        if isinstance(node, DeoptimizeNode):
            state = node.state
            reason = node.reason
            run_deopt = self._run_deopt

            def handler(slots, _state=state, _reason=reason, _cost=cost,
                        _stats=stats, _run_deopt=run_deopt):
                _stats.node_executions += 1
                _stats.cycles += _cost
                slots[_RESULT_SLOT] = _run_deopt(_state, _reason, slots)
                return -1

            return handler

        if isinstance(node, NewInstanceNode):
            next_ip = ip_of[node.next]
            slot = self._slot_for(node)
            class_name = node.class_name
            on_stack = getattr(node, "stack_allocated", False)
            size = program.instance_size(class_name)
            cost_model = self.plan.cost_model
            bytes_cost = (cost_model.stack_allocation_bytes_cost(size)
                          if on_stack
                          else cost_model.allocation_bytes_cost(size))
            new_instance = heap.new_instance

            def handler(slots, _new=new_instance, _cn=class_name,
                        _on_stack=on_stack, _slot=slot, _next=next_ip,
                        _cost=cost, _bytes=bytes_cost, _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                obj = _new(_cn, _on_stack)
                _stats.cycles += _bytes
                slots[_slot] = obj
                return _next

            return handler

        if isinstance(node, NewArrayNode):
            next_ip = ip_of[node.next]
            slot = self._slot_for(node)
            elem_type = node.elem_type
            on_stack = getattr(node, "stack_allocated", False)
            length_of = self._compile_value(node.length)
            cost_model = self.plan.cost_model
            bytes_cost = (cost_model.stack_allocation_bytes_cost
                          if on_stack
                          else cost_model.allocation_bytes_cost)
            array_size = program.array_size
            new_array = heap.new_array

            def handler(slots, _length_of=length_of, _new=new_array,
                        _et=elem_type, _on_stack=on_stack, _slot=slot,
                        _next=next_ip, _cost=cost, _bytes=bytes_cost,
                        _size=array_size, _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                length = _length_of(slots)
                arr = _new(_et, length, _on_stack)
                _stats.cycles += _bytes(_size(length))
                slots[_slot] = arr
                return _next

            return handler

        if isinstance(node, LoadFieldNode):
            next_ip = ip_of[node.next]
            slot = self._slot_for(node)
            object_of = self._compile_value(node.object)
            field_name = node.field.field_name
            get_field = heap.get_field

            def handler(slots, _object_of=object_of, _get=get_field,
                        _field=field_name, _slot=slot, _next=next_ip,
                        _cost=cost, _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                slots[_slot] = _get(_object_of(slots), _field)
                return _next

            return handler

        if isinstance(node, StoreFieldNode):
            next_ip = ip_of[node.next]
            object_of = self._compile_value(node.object)
            value_of = self._compile_value(node.value)
            field_name = node.field.field_name
            put_field = heap.put_field

            def handler(slots, _object_of=object_of, _value_of=value_of,
                        _put=put_field, _field=field_name, _next=next_ip,
                        _cost=cost, _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                obj = _object_of(slots)
                value = _value_of(slots)
                _put(obj, _field, value)
                return _next

            return handler

        if isinstance(node, LoadStaticNode):
            next_ip = ip_of[node.next]
            slot = self._slot_for(node)
            class_name = node.field.class_name
            field_name = node.field.field_name
            get_static = program.get_static

            def handler(slots, _get=get_static, _cn=class_name,
                        _field=field_name, _slot=slot, _next=next_ip,
                        _cost=cost, _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                slots[_slot] = _get(_cn, _field)
                return _next

            return handler

        if isinstance(node, StoreStaticNode):
            next_ip = ip_of[node.next]
            value_of = self._compile_value(node.value)
            class_name = node.field.class_name
            field_name = node.field.field_name
            set_static = program.set_static

            def handler(slots, _value_of=value_of, _set=set_static,
                        _cn=class_name, _field=field_name, _next=next_ip,
                        _cost=cost, _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                _set(_cn, _field, _value_of(slots))
                return _next

            return handler

        if isinstance(node, LoadIndexedNode):
            next_ip = ip_of[node.next]
            slot = self._slot_for(node)
            array_of = self._compile_value(node.array)
            index_of = self._compile_value(node.index)
            array_load = heap.array_load

            def handler(slots, _array_of=array_of, _index_of=index_of,
                        _load=array_load, _slot=slot, _next=next_ip,
                        _cost=cost, _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                arr = _array_of(slots)
                index = _index_of(slots)
                slots[_slot] = _load(arr, index)
                return _next

            return handler

        if isinstance(node, StoreIndexedNode):
            next_ip = ip_of[node.next]
            array_of = self._compile_value(node.array)
            index_of = self._compile_value(node.index)
            value_of = self._compile_value(node.value)
            array_store = heap.array_store

            def handler(slots, _array_of=array_of, _index_of=index_of,
                        _value_of=value_of, _store=array_store,
                        _next=next_ip, _cost=cost, _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                arr = _array_of(slots)
                index = _index_of(slots)
                value = _value_of(slots)
                _store(arr, index, value)
                return _next

            return handler

        if isinstance(node, ArrayLengthNode):
            next_ip = ip_of[node.next]
            slot = self._slot_for(node)
            array_of = self._compile_value(node.array)
            array_length = heap.array_length

            def handler(slots, _array_of=array_of, _length=array_length,
                        _slot=slot, _next=next_ip, _cost=cost,
                        _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                slots[_slot] = _length(_array_of(slots))
                return _next

            return handler

        if isinstance(node, RefEqualsNode):
            next_ip = ip_of[node.next]
            slot = self._slot_for(node)
            x_of = self._compile_value(node.x)
            y_of = self._compile_value(node.y)

            def handler(slots, _x_of=x_of, _y_of=y_of, _slot=slot,
                        _next=next_ip, _cost=cost, _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                a = _x_of(slots)
                b = _y_of(slots)
                slots[_slot] = 1 if a is b else 0
                return _next

            return handler

        if isinstance(node, IsNullNode):
            next_ip = ip_of[node.next]
            slot = self._slot_for(node)
            value_of = self._compile_value(node.value)

            def handler(slots, _value_of=value_of, _slot=slot,
                        _next=next_ip, _cost=cost, _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                slots[_slot] = 1 if _value_of(slots) is None else 0
                return _next

            return handler

        if isinstance(node, InstanceOfNode):
            next_ip = ip_of[node.next]
            slot = self._slot_for(node)
            value_of = self._compile_value(node.value)
            class_name = node.class_name
            instance_of = heap.instance_of

            def handler(slots, _value_of=value_of, _test=instance_of,
                        _cn=class_name, _slot=slot, _next=next_ip,
                        _cost=cost, _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                slots[_slot] = _test(_value_of(slots), _cn)
                return _next

            return handler

        if isinstance(node, MonitorEnterNode):
            next_ip = ip_of[node.next]
            object_of = self._compile_value(node.object)
            monitor_enter = heap.monitor_enter

            def handler(slots, _object_of=object_of,
                        _enter=monitor_enter, _next=next_ip, _cost=cost,
                        _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                _enter(_object_of(slots))
                return _next

            return handler

        if isinstance(node, MonitorExitNode):
            next_ip = ip_of[node.next]
            object_of = self._compile_value(node.object)
            monitor_exit = heap.monitor_exit

            def handler(slots, _object_of=object_of, _exit=monitor_exit,
                        _next=next_ip, _cost=cost, _stats=stats):
                _stats.node_executions += 1
                _stats.cycles += _cost
                _exit(_object_of(slots))
                return _next

            return handler

        if isinstance(node, InvokeNode):
            next_ip = ip_of[node.next]
            argument_closures = tuple(self._compile_value(argument)
                                      for argument in node.arguments)
            kind = node.kind
            target = node.target
            invoke = self.invoke_callback
            if node.has_value:
                slot = self._slot_for(node)

                def handler(slots, _arguments=argument_closures,
                            _invoke=invoke, _kind=kind, _target=target,
                            _slot=slot, _next=next_ip, _cost=cost,
                            _stats=stats):
                    _stats.node_executions += 1
                    _stats.cycles += _cost
                    values = [argument_of(slots)
                              for argument_of in _arguments]
                    slots[_slot] = _invoke(_kind, _target, values)
                    return _next

            else:
                def handler(slots, _arguments=argument_closures,
                            _invoke=invoke, _kind=kind, _target=target,
                            _next=next_ip, _cost=cost, _stats=stats):
                    _stats.node_executions += 1
                    _stats.cycles += _cost
                    values = [argument_of(slots)
                              for argument_of in _arguments]
                    _invoke(_kind, _target, values)
                    return _next

            return handler

        raise PlanError(f"unexecutable node {node!r}")  # pragma: no cover
