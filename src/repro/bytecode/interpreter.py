"""The bytecode interpreter — the stand-in for the HotSpot interpreter.

This is the *reference* execution engine: it makes no assumptions, executes
every allocation and monitor operation for real, and is the target of
deoptimization.  :meth:`Interpreter.execute_frame` can start execution at an
arbitrary bytecode index with given locals/stack/locked objects, which is
exactly what a deoptimizing compiled frame needs (Section 5.5 of the paper).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, List, Optional

from .classfile import JMethod, Program
from .heap import ArithmeticTrap, Heap, NullPointerError, VMError
from .opcodes import Op

_INT_MASK = (1 << 64) - 1
_INT_SIGN = 1 << 63
_INT_WRAP = 1 << 64

MAX_CALL_DEPTH = 256


def wrap_int(value: int) -> int:
    """Wrap a Python int to 64-bit two's-complement."""
    value &= _INT_MASK
    return value - (1 << 64) if value & _INT_SIGN else value


def java_div(a: int, b: int) -> int:
    """Java integer division (truncates toward zero)."""
    if b == 0:
        raise ArithmeticTrap("division by zero")
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return wrap_int(quotient)


def java_rem(a: int, b: int) -> int:
    """Java integer remainder (sign follows the dividend)."""
    if b == 0:
        raise ArithmeticTrap("remainder by zero")
    return wrap_int(a - java_div(a, b) * b)


def java_shr(a: int, b: int) -> int:
    """Arithmetic shift right with Java's shift-count masking."""
    return wrap_int(a >> (b & 63))


def java_shl(a: int, b: int) -> int:
    return wrap_int(a << (b & 63))


#: Sentinel returned by an OSR handler that declines to tier up (the
#: loop keeps interpreting).  Distinct from ``None``, which is a legal
#: method result.
NO_OSR = object()


class BudgetExceeded(VMError):
    """The step budget ran out — an (assumed) infinite loop."""


class ThrownException(VMError):
    """A user-level THROW; carries the thrown object to the top caller."""

    def __init__(self, value):
        super().__init__(f"uncaught exception: {value!r}")
        self.value = value


@dataclass
class InterpreterStats:
    """Execution-shape counters (distinct from heap counters)."""

    steps: int = 0
    invocations: int = 0
    max_depth: int = 0


class Profile:
    """Branch and invocation profile collected while interpreting.

    The JIT uses invocation counts for compile triggers and branch counts
    to order If successors and to speculate on never-taken branches.
    Keys: methods for invocations; ``(method, bci)`` for branches.
    """

    def __init__(self):
        self.invocations = {}
        self.branch_taken = {}
        self.branch_not_taken = {}
        #: (method, bci) -> {receiver class name: count} at invokevirtual.
        self.receiver_types = {}
        #: (method, loop-header bci) -> backedge executions; the second
        #: axis of the tiering policy (on-stack replacement).
        self.backedges = {}
        #: (method, loop-header bci) -> completed OSR transfers.  A loop
        #: that has tiered up runs its iterations in compiled code, out
        #: of the interpreter's sight, so its branch profile goes stale
        #: from that point on (see :meth:`loop_has_osr`).
        self.osr_entries = {}

    def record_invocation(self, method: JMethod):
        self.invocations[method] = self.invocations.get(method, 0) + 1

    def record_backedge(self, method: JMethod, bci: int) -> int:
        """Count one backedge execution targeting loop header *bci*;
        returns the updated count."""
        key = (method, bci)
        count = self.backedges.get(key, 0) + 1
        self.backedges[key] = count
        return count

    def record_osr_entry(self, method: JMethod, bci: int):
        key = (method, bci)
        self.osr_entries[key] = self.osr_entries.get(key, 0) + 1

    def loop_has_osr(self, method: JMethod, bci: int) -> bool:
        """Whether the loop headed at *bci* ever tiered up through OSR.

        Decision-level query for the compiler: once a loop runs inside
        compiled OSR code, the interpreter stops observing its exits, so
        an exit branch that looks never-taken must not be speculated on
        (it would deoptimize deterministically at the first exit)."""
        return (method, bci) in self.osr_entries

    def record_branch(self, method: JMethod, bci: int, taken: bool):
        table = self.branch_taken if taken else self.branch_not_taken
        key = (method, bci)
        table[key] = table.get(key, 0) + 1

    def invocation_count(self, method: JMethod) -> int:
        return self.invocations.get(method, 0)

    def record_receiver(self, method: JMethod, bci: int,
                        class_name: str):
        table = self.receiver_types.setdefault((method, bci), {})
        table[class_name] = table.get(class_name, 0) + 1

    def monomorphic_receiver(self, method: JMethod, bci: int,
                             min_samples: int):
        """The single receiver class seen at this call site, or None if
        polymorphic / under-sampled."""
        table = self.receiver_types.get((method, bci))
        if not table or len(table) != 1:
            return None
        ((class_name, count),) = table.items()
        return class_name if count >= min_samples else None

    def branch_counts(self, method: JMethod, bci: int):
        """``(taken, not_taken)`` sample counts for one branch site."""
        key = (method, bci)
        return (self.branch_taken.get(key, 0),
                self.branch_not_taken.get(key, 0))

    def branch_outcome(self, method: JMethod, bci: int,
                       min_samples: int):
        """The branch-speculation decision for one site: ``True`` when
        the branch was always taken, ``False`` when never taken, else
        ``None`` (under-sampled or both sides seen).

        The compiler speculates on branches only through this
        decision-level query (plus :meth:`taken_probability` for
        display-only edge probabilities), so the compilation cache can
        record the *decisions* a compilation consumed rather than raw
        counters — decisions stay stable as counts grow, raw counters do
        not."""
        taken, not_taken = self.branch_counts(method, bci)
        if taken + not_taken < min_samples:
            return None
        if taken == 0:
            return False
        if not_taken == 0:
            return True
        return None

    def taken_probability(self, method: JMethod, bci: int) -> float:
        taken, not_taken = self.branch_counts(method, bci)
        total = taken + not_taken
        return 0.5 if total == 0 else taken / total

    def snapshot(self) -> dict:
        """A process-portable copy of the profiling state, keyed by
        qualified method names instead of :class:`JMethod` objects.
        Used by the benchmark harness's warm-up records; restored
        against any program with the same declarations by
        :meth:`restore`."""
        return {
            "invocations": {m.qualified_name: n
                            for m, n in self.invocations.items()},
            "branch_taken": [[m.qualified_name, bci, n]
                             for (m, bci), n in
                             self.branch_taken.items()],
            "branch_not_taken": [[m.qualified_name, bci, n]
                                 for (m, bci), n in
                                 self.branch_not_taken.items()],
            "receiver_types": [[m.qualified_name, bci, dict(classes)]
                               for (m, bci), classes in
                               self.receiver_types.items()],
            "backedges": [[m.qualified_name, bci, n]
                          for (m, bci), n in self.backedges.items()],
            "osr_entries": [[m.qualified_name, bci, n]
                            for (m, bci), n in self.osr_entries.items()],
        }

    def restore(self, program: Program, snapshot: dict) -> None:
        """Install :meth:`snapshot` state, resolving method names in
        *program*.  Raises ``KeyError`` for names it cannot resolve
        (the snapshot belongs to a different program)."""
        method = program.method
        self.invocations = {method(q): n for q, n in
                            snapshot["invocations"].items()}
        self.branch_taken = {(method(q), bci): n for q, bci, n in
                             snapshot["branch_taken"]}
        self.branch_not_taken = {(method(q), bci): n for q, bci, n in
                                 snapshot["branch_not_taken"]}
        self.receiver_types = {(method(q), bci): dict(classes)
                               for q, bci, classes in
                               snapshot["receiver_types"]}
        self.backedges = {(method(q), bci): n for q, bci, n in
                          snapshot["backedges"]}
        self.osr_entries = {(method(q), bci): n for q, bci, n in
                            snapshot["osr_entries"]}


class Interpreter:
    """Executes bytecode against a :class:`Heap`."""

    def __init__(self, program: Program, heap: Optional[Heap] = None,
                 profile: Optional[Profile] = None,
                 step_budget: int = 200_000_000):
        self.program = program
        self.heap = heap if heap is not None else Heap(program)
        self.profile = profile
        self.stats = InterpreterStats()
        self.step_budget = step_budget
        #: Optional tiered-VM hook: when set, calls dispatch through it
        #: (``dispatcher(method, args) -> value``) so hot callees run
        #: compiled even when the caller is interpreted.
        self.dispatcher = None
        #: Optional on-stack replacement hook, called at loop backedges
        #: (empty operand stack) as ``osr_handler(method, target_bci,
        #: locals_)``.  Returns :data:`NO_OSR` to keep interpreting, or
        #: the method's result when it transferred control into compiled
        #: code and ran the method to completion.
        self.osr_handler = None

    # -- public API -----------------------------------------------------

    def invoke(self, method: JMethod, args: List[Any], depth: int = 0):
        """Invoke *method* with *args*, returning its result."""
        if depth > MAX_CALL_DEPTH:
            raise VMError(f"call stack overflow in {method.qualified_name}")
        self.stats.invocations += 1
        self.stats.max_depth = max(self.stats.max_depth, depth)
        # With a tiered VM attached every call funnels through its
        # dispatcher, which counts it; counting here too would tally
        # calls once or twice depending on which tier the caller ran
        # in — and tiering decisions must not depend on that.
        if self.profile is not None and self.dispatcher is None:
            self.profile.record_invocation(method)
        if method.is_native:
            if method.native_impl is None:
                raise VMError(f"native method {method.qualified_name} "
                              "has no implementation")
            return method.native_impl(self, args)
        if len(args) != method.arg_count:
            raise VMError(
                f"{method.qualified_name} expects {method.arg_count} "
                f"args, got {len(args)}")
        local_slots = max(method.max_locals, len(args))
        locals_ = list(args) + [None] * (local_slots - len(args))
        sync_receiver = None
        if method.is_synchronized and not method.is_static:
            sync_receiver = args[0]
            self.heap.monitor_enter(sync_receiver)
        try:
            return self.execute_frame(method, locals_, [], 0, depth)
        finally:
            if sync_receiver is not None:
                self.heap.monitor_exit(sync_receiver)

    def call(self, qualified: str, *args):
        """Convenience: invoke ``"Class.method"`` with *args*."""
        return self.invoke(self.program.method(qualified), list(args))

    def _call(self, callee: JMethod, args: List[Any], depth: int):
        """Dispatch a callee: through the tiered VM when attached,
        recursively otherwise."""
        if self.dispatcher is not None:
            return self.dispatcher(callee, args)
        return self.invoke(callee, args, depth + 1)

    # -- the dispatch loop -----------------------------------------------

    def execute_frame(self, method: JMethod, locals_: List[Any],
                      stack: List[Any], pc: int, depth: int = 0):
        """Run *method* from *pc* with the given frame contents.

        This is both the normal execution path (``pc == 0``, empty stack)
        and the deoptimization entry point (arbitrary ``pc``/stack).
        """
        code = method.code
        code_len = len(code)
        heap = self.heap
        program = self.program
        stats = self.stats
        profile = self.profile
        step_budget = self.step_budget
        osr_handler = self.osr_handler
        while True:
            stats.steps += 1
            if stats.steps > step_budget:
                raise BudgetExceeded(
                    f"step budget exceeded in {method.qualified_name}")
            if not 0 <= pc < code_len:
                raise VMError(
                    f"pc {pc} out of range in {method.qualified_name}")
            insn = code[pc]
            op = insn.op

            if op is Op.CONST:
                stack.append(insn.operand)
            elif op is Op.LOAD:
                stack.append(locals_[insn.operand])
            elif op is Op.STORE:
                locals_[insn.operand] = stack.pop()
            elif op is Op.POP:
                stack.pop()
            elif op is Op.DUP:
                stack.append(stack[-1])
            elif op is Op.SWAP:
                stack[-1], stack[-2] = stack[-2], stack[-1]

            elif op is Op.ADD:
                b, a = stack.pop(), stack.pop()
                v = (a + b) & _INT_MASK
                stack.append(v - _INT_WRAP if v & _INT_SIGN else v)
            elif op is Op.SUB:
                b, a = stack.pop(), stack.pop()
                v = (a - b) & _INT_MASK
                stack.append(v - _INT_WRAP if v & _INT_SIGN else v)
            elif op is Op.MUL:
                b, a = stack.pop(), stack.pop()
                v = (a * b) & _INT_MASK
                stack.append(v - _INT_WRAP if v & _INT_SIGN else v)
            elif op is Op.DIV:
                b, a = stack.pop(), stack.pop()
                stack.append(java_div(a, b))
            elif op is Op.REM:
                b, a = stack.pop(), stack.pop()
                stack.append(java_rem(a, b))
            elif op is Op.NEG:
                stack.append(wrap_int(-stack.pop()))
            elif op is Op.AND:
                b, a = stack.pop(), stack.pop()
                stack.append(wrap_int(a & b))
            elif op is Op.OR:
                b, a = stack.pop(), stack.pop()
                stack.append(wrap_int(a | b))
            elif op is Op.XOR:
                b, a = stack.pop(), stack.pop()
                stack.append(wrap_int(a ^ b))
            elif op is Op.SHL:
                b, a = stack.pop(), stack.pop()
                stack.append(java_shl(a, b))
            elif op is Op.SHR:
                b, a = stack.pop(), stack.pop()
                stack.append(java_shr(a, b))

            elif op is Op.GOTO:
                target = insn.operand
                if target <= pc and osr_handler is not None and \
                        not stack:
                    result = osr_handler(method, target, locals_)
                    if result is not NO_OSR:
                        return result
                pc = target
                continue
            elif op in _COMPARE_FNS:
                b, a = stack.pop(), stack.pop()
                taken = _COMPARE_FNS[op](a, b)
                if profile is not None:
                    profile.record_branch(method, pc, taken)
                if taken:
                    target = insn.operand
                    if target <= pc and osr_handler is not None and \
                            not stack:
                        result = osr_handler(method, target, locals_)
                        if result is not NO_OSR:
                            return result
                    pc = target
                    continue
            elif op is Op.IF_NULL or op is Op.IF_NONNULL:
                value = stack.pop()
                taken = (value is None) == (op is Op.IF_NULL)
                if profile is not None:
                    profile.record_branch(method, pc, taken)
                if taken:
                    target = insn.operand
                    if target <= pc and osr_handler is not None and \
                            not stack:
                        result = osr_handler(method, target, locals_)
                        if result is not NO_OSR:
                            return result
                    pc = target
                    continue

            elif op is Op.NEW:
                stack.append(heap.new_instance(insn.operand))
            elif op is Op.GETFIELD:
                obj = stack.pop()
                stack.append(heap.get_field(obj, insn.operand.field_name))
            elif op is Op.PUTFIELD:
                value, obj = stack.pop(), stack.pop()
                heap.put_field(obj, insn.operand.field_name, value)
            elif op is Op.GETSTATIC:
                ref = insn.operand
                stack.append(
                    program.get_static(ref.class_name, ref.field_name))
            elif op is Op.PUTSTATIC:
                ref = insn.operand
                program.set_static(ref.class_name, ref.field_name,
                                   stack.pop())
            elif op is Op.NEWARRAY:
                length = stack.pop()
                stack.append(heap.new_array(insn.operand, length))
            elif op is Op.ALOAD:
                index, arr = stack.pop(), stack.pop()
                stack.append(heap.array_load(arr, index))
            elif op is Op.ASTORE:
                value, index, arr = stack.pop(), stack.pop(), stack.pop()
                heap.array_store(arr, index, value)
            elif op is Op.ARRAYLENGTH:
                stack.append(heap.array_length(stack.pop()))
            elif op is Op.INSTANCEOF:
                stack.append(heap.instance_of(stack.pop(), insn.operand))
            elif op is Op.CHECKCAST:
                stack.append(heap.check_cast(stack.pop(), insn.operand))

            elif op is Op.INVOKESTATIC:
                ref = insn.operand
                callee = program.resolve_method(ref.class_name,
                                                ref.method_name)
                args = _pop_args(stack, ref.arg_count)
                stack_result = self._call(callee, args, depth)
                if callee.return_type != "void":
                    stack.append(stack_result)
            elif op is Op.INVOKESPECIAL:
                ref = insn.operand
                callee = program.resolve_method(ref.class_name,
                                                ref.method_name)
                args = _pop_args(stack, ref.arg_count)
                if args[0] is None:
                    raise NullPointerError(
                        f"invokespecial {ref} on null")
                stack_result = self._call(callee, args, depth)
                if callee.return_type != "void":
                    stack.append(stack_result)
            elif op is Op.INVOKEVIRTUAL:
                ref = insn.operand
                args = _pop_args(stack, ref.arg_count)
                receiver = args[0]
                if receiver is None:
                    raise NullPointerError(f"invokevirtual {ref} on null")
                callee = program.resolve_virtual(receiver.class_name,
                                                 ref.method_name)
                if profile is not None:
                    profile.record_receiver(method, pc,
                                            receiver.class_name)
                stack_result = self._call(callee, args, depth)
                if callee.return_type != "void":
                    stack.append(stack_result)

            elif op is Op.MONITORENTER:
                heap.monitor_enter(stack.pop())
            elif op is Op.MONITOREXIT:
                heap.monitor_exit(stack.pop())

            elif op is Op.RETURN:
                return None
            elif op is Op.RETURN_VALUE:
                return stack.pop()
            elif op is Op.THROW:
                raise ThrownException(stack.pop())
            else:  # pragma: no cover - exhaustiveness guard
                raise VMError(f"unimplemented opcode {op}")

            pc += 1


#: Branch condition evaluators (C-implemented operators — faster than an
#: if-chain in the hot dispatch loop).
_COMPARE_FNS = {
    Op.IF_EQ: operator.eq,
    Op.IF_NE: operator.ne,
    Op.IF_LT: operator.lt,
    Op.IF_LE: operator.le,
    Op.IF_GT: operator.gt,
    Op.IF_GE: operator.ge,
    Op.IF_ACMP_EQ: operator.is_,
    Op.IF_ACMP_NE: operator.is_not,
}


def _compare(op: Op, a, b) -> bool:
    if op is Op.IF_EQ:
        return a == b
    if op is Op.IF_NE:
        return a != b
    if op is Op.IF_LT:
        return a < b
    if op is Op.IF_LE:
        return a <= b
    if op is Op.IF_GT:
        return a > b
    if op is Op.IF_GE:
        return a >= b
    if op is Op.IF_ACMP_EQ:
        return a is b
    if op is Op.IF_ACMP_NE:
        return a is not b
    raise AssertionError(op)


def _pop_args(stack: List[Any], count: int) -> List[Any]:
    if count == 0:
        return []
    args = stack[-count:]
    del stack[-count:]
    return args
