"""Bytecode verifier.

Performs the structural checks a JVM verifier would: every branch target is
in range, control cannot fall off the end of the code, the operand stack
has a consistent depth at every instruction regardless of the path taken,
local slots are in range, and all symbolic references resolve.  The graph
builder relies on these invariants (notably the consistent stack depth at
merge points, which is what lets it create one Phi per slot).
"""

from __future__ import annotations

from typing import Dict, List

from .classfile import JMethod, Program, ResolutionError
from .opcodes import Op, OperandKind, info


class VerificationError(Exception):
    """The method's bytecode violates a structural invariant."""

    def __init__(self, method: JMethod, message: str):
        super().__init__(f"{method.qualified_name}: {message}")
        self.method = method


def verify_method(program: Program, method: JMethod) -> None:
    """Verify one method; raises :class:`VerificationError` on failure."""
    if method.is_native:
        if method.code:
            raise VerificationError(method, "native method has code")
        return
    code = method.code
    if not code:
        raise VerificationError(method, "empty code")

    # Pass 1: operands are well-formed and targets in range.
    for bci, insn in enumerate(code):
        kind = info(insn.op).operand
        if kind is OperandKind.TARGET:
            if not 0 <= insn.operand < len(code):
                raise VerificationError(
                    method, f"bci {bci}: branch target {insn.operand} "
                    "out of range")
        elif kind is OperandKind.LOCAL:
            if not 0 <= insn.operand < max(method.max_locals, 1):
                raise VerificationError(
                    method, f"bci {bci}: local slot {insn.operand} out of "
                    f"range (max_locals={method.max_locals})")
        elif kind is OperandKind.CLASS:
            try:
                if insn.operand not in ("int", "boolean"):
                    program.lookup_class(insn.operand)
            except ResolutionError as exc:
                raise VerificationError(method, f"bci {bci}: {exc}")
        elif kind is OperandKind.FIELD:
            ref = insn.operand
            try:
                jfield = program.resolve_field(ref.class_name,
                                               ref.field_name)
            except ResolutionError as exc:
                raise VerificationError(method, f"bci {bci}: {exc}")
            wants_static = insn.op in (Op.GETSTATIC, Op.PUTSTATIC)
            if jfield.is_static != wants_static:
                raise VerificationError(
                    method, f"bci {bci}: static-ness mismatch on {ref}")
        elif kind is OperandKind.METHOD:
            ref = insn.operand
            try:
                callee = program.resolve_method(ref.class_name,
                                                ref.method_name)
            except ResolutionError as exc:
                raise VerificationError(method, f"bci {bci}: {exc}")
            if callee.arg_count != ref.arg_count:
                raise VerificationError(
                    method, f"bci {bci}: {ref} resolves to a method with "
                    f"{callee.arg_count} parameters")
            if (insn.op is Op.INVOKESTATIC) != callee.is_static:
                raise VerificationError(
                    method, f"bci {bci}: static-ness mismatch on {ref}")

    # Pass 2: abstract interpretation of stack depth.
    depth_at: Dict[int, int] = {0: 0}
    worklist: List[int] = [0]
    while worklist:
        bci = worklist.pop()
        depth = depth_at[bci]
        insn = code[bci]
        op = insn.op
        op_info = info(op)
        if op in (Op.INVOKESTATIC, Op.INVOKEVIRTUAL, Op.INVOKESPECIAL):
            callee = program.resolve_method(insn.operand.class_name,
                                            insn.operand.method_name)
            pops = insn.operand.arg_count
            pushes = 0 if callee.return_type == "void" else 1
        else:
            pops, pushes = op_info.pops, op_info.pushes
        if depth < pops:
            raise VerificationError(
                method, f"bci {bci}: stack underflow "
                f"(depth {depth}, {op.value} pops {pops})")
        new_depth = depth - pops + pushes

        successors: List[int] = []
        if op_info.is_branch:
            successors.append(insn.operand)
            if op is not Op.GOTO:
                successors.append(bci + 1)
        elif op_info.is_terminator:
            if op is Op.RETURN_VALUE and method.return_type == "void":
                raise VerificationError(
                    method, f"bci {bci}: value return in void method")
            if op is Op.RETURN and method.return_type != "void":
                raise VerificationError(
                    method, f"bci {bci}: void return in non-void method")
        else:
            successors.append(bci + 1)

        for succ in successors:
            if succ >= len(code):
                raise VerificationError(
                    method, f"bci {bci}: control falls off the end")
            if succ in depth_at:
                if depth_at[succ] != new_depth:
                    raise VerificationError(
                        method, f"bci {succ}: inconsistent stack depth "
                        f"({depth_at[succ]} vs {new_depth})")
            else:
                depth_at[succ] = new_depth
                worklist.append(succ)

    # Pass 3: the last reachable instruction chain must terminate.
    last = code[-1]
    if not (last.is_terminator and not last.is_branch) \
            and last.op is not Op.GOTO:
        # Falling off the end is only OK if the final bci is unreachable.
        if len(code) - 1 in depth_at:
            raise VerificationError(
                method, "control can fall off the end of the code")


def verify_program(program: Program) -> None:
    """Verify every method of every class in the program."""
    for method in program.all_methods():
        verify_method(program, method)
