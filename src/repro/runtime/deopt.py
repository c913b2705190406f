"""Deoptimization: transfer from optimized code to the interpreter.

Implements Section 5.5 of the paper end to end, once for every execution
backend: when compiled code hits a failed guard (or an explicit
Deoptimize), the backend hands :meth:`Deoptimizer.deoptimize` the failing
frame state and a *lookup* over its own frame (an env dict, a slot array
or a generated function's locals).  The deoptimizer charges the deopt,
re-evaluates the floating values the compiled frame never computed,
*rematerializes* virtual (scalar-replaced) objects on the heap from their
EscapeObjectStateNode snapshots — including cyclic object graphs and
elided locks — and continues in the bytecode interpreter.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..bytecode.classfile import Program
from ..bytecode.heap import Heap, VMError
from ..bytecode.interpreter import Interpreter, wrap_int
from ..bytecode.opcodes import INVOKES
from ..ir.nodes import (BinaryArithmeticNode, ConstantNode,
                        FrameStateNode, IntCompareNode, NegNode,
                        VirtualArrayNode, VirtualInstanceNode,
                        VirtualObjectNode)
from .costmodel import CostModel, ExecutionStats


class _Missing:
    __slots__ = ()

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<missing>"


#: What a backend's frame lookup returns for a node the compiled frame
#: holds no value for (``None`` is a legal null value).
MISSING = _Missing()


class DeoptError(VMError):
    """The frame state could not be decoded (a compiler bug)."""


class Deoptimizer:
    """Decodes frame states and resumes execution in the interpreter."""

    def __init__(self, program: Program, heap: Heap,
                 interpreter: Interpreter,
                 notify: Optional[Callable[[Any, Any], None]] = None):
        self.program = program
        self.heap = heap
        self.interpreter = interpreter
        #: Internal VM channel, called as ``notify(root_method, state)``
        #: before the interpreter continuation runs.  External code
        #: observes deoptimization through
        #: :class:`repro.jit.listeners.VMListener` registered via
        #: ``VM.add_listener()`` — not by mutating this.
        self._notify = notify
        #: Deoptless dispatch hook, called as ``dispatch(frame_state,
        #: locals_, stack)`` for the innermost frame after its live
        #: state is rematerialized.  Returns ``(True, value)`` when
        #: execution transferred into a specialized continuation (the
        #: value is what the frame returned), ``(False, None)`` to fall
        #: back to the interpreter.  Set by the VM when
        #: ``config.deoptless`` is on; all three execution backends
        #: funnel deopts through here, so this is the single dispatch
        #: point.
        self.dispatch: Optional[Callable] = None

    def deoptimize(self, state: FrameStateNode,
                   lookup: Callable[[Any], Any], stats: ExecutionStats,
                   cost_model: CostModel) -> Any:
        """Continue at *state* in the interpreter; returns the value the
        compiled method would have returned.

        *lookup* maps an IR value node to its value in the compiled
        frame, or to :data:`MISSING` for a floating node that frame
        never computed.  Those are re-evaluated here through one memo
        per deopt, each charged its node cost to the executing
        backend's *stats* after the deopt itself.
        """
        stats.deopts += 1
        stats.cycles += cost_model.deopt
        evaluate = _evaluator(lookup, stats, cost_model)
        materialized: Dict[VirtualObjectNode, Any] = {}

        def resolve(node):
            if node is None:
                return None
            if isinstance(node, VirtualObjectNode):
                return self._materialize(node, state, evaluate,
                                         materialized)
            return evaluate(node)

        states = list(state.outer_chain())  # innermost first
        if self._notify is not None:
            self._notify(states[-1].method, state)
        result: Any = None
        has_result = False
        for index, frame_state in enumerate(states):
            method = frame_state.method
            locals_ = [resolve(v) for v in frame_state.locals_values]
            stack = [resolve(v) for v in frame_state.stack_values]
            locks = [resolve(v) for v in frame_state.locks]
            if index == 0:
                if self.dispatch is not None and not locks:
                    # Deoptless: hand the rematerialized innermost frame
                    # to the dispatcher, which may transfer into a
                    # continuation compilation instead of interpreting.
                    # Frames holding locks stay on the interpreter path
                    # (continuation entries have no lock re-entry
                    # prologue).  Outer (inlined-caller) frames below
                    # still interpret to their returns as usual.
                    handled, value = self.dispatch(frame_state, locals_,
                                                   stack)
                    if handled:
                        result = value
                        has_result = True
                        continue
                pc = frame_state.bci  # re-execute the guarded instruction
            else:
                # Outer frame: resume after the invoke, pushing the
                # callee's result.
                invoke_insn = method.code[frame_state.bci]
                if invoke_insn.op not in INVOKES:
                    raise DeoptError(
                        f"outer state bci {frame_state.bci} of "
                        f"{method.qualified_name} is not an invoke")
                callee = self.program.resolve_method(
                    invoke_insn.operand.class_name,
                    invoke_insn.operand.method_name)
                if callee.return_type != "void":
                    if not has_result:
                        raise DeoptError("missing callee result")
                    stack.append(result)
                pc = frame_state.bci + 1
            try:
                result = self.interpreter.execute_frame(
                    method, locals_, stack, pc)
                has_result = True
            finally:
                # Method-level locks are normally released by the
                # compiled epilogue; after deopt this frame will never
                # reach it, so release here.
                for lock in reversed(locks):
                    if lock is not None:
                        self.heap.monitor_exit(lock)
        return result

    # -- rematerialization ---------------------------------------------------

    def _materialize(self, virtual: VirtualObjectNode,
                     state: FrameStateNode,
                     evaluate: Callable[[Any], Any],
                     materialized: Dict[VirtualObjectNode, Any]):
        """Recreate *virtual* on the heap (Figure 8 / Section 5.5).

        Allocate-then-fill so cyclic virtual object graphs terminate.
        """
        if virtual in materialized:
            return materialized[virtual]
        mapping = state.find_mapping(virtual)
        if mapping is None:
            raise DeoptError(f"no EscapeObjectState for {virtual} in "
                             f"frame state {state}")
        if isinstance(virtual, VirtualInstanceNode):
            obj = self.heap.new_instance(virtual.class_name)
            materialized[virtual] = obj
            for name, entry in zip(virtual.field_names, mapping.entries):
                value = self._resolve_entry(entry, state, evaluate,
                                            materialized)
                obj.fields[name] = value
        elif isinstance(virtual, VirtualArrayNode):
            obj = self.heap.new_array(virtual.elem_type, virtual.length)
            materialized[virtual] = obj
            for index, entry in enumerate(mapping.entries):
                obj.elements[index] = self._resolve_entry(
                    entry, state, evaluate, materialized)
        else:  # pragma: no cover
            raise DeoptError(f"unknown virtual node {virtual}")
        # Restore elided locks so later monitorexits stay balanced.
        for _ in range(mapping.lock_count):
            self.heap.monitor_enter(obj)
        return obj

    def _resolve_entry(self, entry, state, evaluate, materialized):
        if entry is None:
            return None
        if isinstance(entry, VirtualObjectNode):
            return self._materialize(entry, state, evaluate, materialized)
        return evaluate(entry)


def _evaluator(lookup: Callable[[Any], Any], stats: ExecutionStats,
               cost_model: CostModel) -> Callable[[Any], Any]:
    """The value of an IR node at one deopt: what *lookup* finds in the
    compiled frame, else a constant, else a floating arithmetic,
    compare or negate node recomputed from its inputs —
    once per deopt, charged its node cost when computed."""
    node_cost = cost_model.node_cost
    memo: Dict[Any, Any] = {}

    def evaluate(node):
        value = lookup(node)
        if value is not MISSING:
            return value
        if isinstance(node, ConstantNode):
            return node.value
        if node in memo:
            return memo[node]
        if isinstance(node, (BinaryArithmeticNode, IntCompareNode)):
            value = node.evaluate(evaluate(node.x), evaluate(node.y))
        elif isinstance(node, NegNode):
            value = wrap_int(-evaluate(node.value))
        else:
            raise DeoptError(
                f"cannot evaluate {node!r} (not in environment)")
        memo[node] = value
        stats.cycles += node_cost(node)
        return value

    return evaluate
