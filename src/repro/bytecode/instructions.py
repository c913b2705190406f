"""Instruction representation and reference types for the bytecode."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .opcodes import Op, OperandKind, info


@dataclass(frozen=True)
class FieldRef:
    """A symbolic reference to a field: ``ClassName.fieldName``."""

    class_name: str
    field_name: str

    def __str__(self):
        return f"{self.class_name}.{self.field_name}"


@dataclass(frozen=True)
class MethodRef:
    """A symbolic reference to a method.

    ``arg_count`` includes the receiver for virtual/special calls so the
    interpreter and the graph builder know how many stack slots to pop
    without resolving the callee first.
    """

    class_name: str
    method_name: str
    arg_count: int

    def __str__(self):
        return f"{self.class_name}.{self.method_name}/{self.arg_count}"


@dataclass(frozen=True)
class Instruction:
    """One bytecode instruction.

    Immutable, so cloned programs share their instructions (see
    :meth:`~repro.bytecode.classfile.Program.clone`).

    ``operand`` is interpreted according to the opcode's
    :class:`~repro.bytecode.opcodes.OperandKind`:

    - ``CONST``: a literal (int, bool, str or ``None``)
    - ``LOCAL``: a local slot index (int)
    - ``TARGET``: a branch target (instruction index, int)
    - ``CLASS``: a class name (str)
    - ``FIELD``: a :class:`FieldRef`
    - ``METHOD``: a :class:`MethodRef`
    """

    op: Op
    operand: Any = None

    def __post_init__(self):
        kind = info(self.op).operand
        if kind is OperandKind.NONE and self.operand is not None:
            raise ValueError(f"{self.op.value} takes no operand")
        if kind is OperandKind.FIELD and not isinstance(self.operand,
                                                        FieldRef):
            raise TypeError(f"{self.op.value} needs a FieldRef operand")
        if kind is OperandKind.METHOD and not isinstance(self.operand,
                                                         MethodRef):
            raise TypeError(f"{self.op.value} needs a MethodRef operand")
        if kind in (OperandKind.LOCAL, OperandKind.TARGET):
            if not isinstance(self.operand, int) or isinstance(
                    self.operand, bool):
                raise TypeError(
                    f"{self.op.value} needs an int operand, "
                    f"got {self.operand!r}")

    @property
    def is_branch(self):
        return info(self.op).is_branch

    @property
    def is_terminator(self):
        return info(self.op).is_terminator

    def __str__(self):
        if self.operand is None and info(self.op).operand is OperandKind.NONE:
            return self.op.value
        if info(self.op).operand is OperandKind.CONST:
            return f"{self.op.value} {self.operand!r}"
        return f"{self.op.value} {self.operand}"


def const(value) -> Instruction:
    """Shorthand for a CONST instruction."""
    return Instruction(Op.CONST, value)


def load(slot: int) -> Instruction:
    """Shorthand for a LOAD instruction."""
    return Instruction(Op.LOAD, slot)


def store(slot: int) -> Instruction:
    """Shorthand for a STORE instruction."""
    return Instruction(Op.STORE, slot)


def getfield(class_name: str, field_name: str) -> Instruction:
    """Shorthand for a GETFIELD instruction."""
    return Instruction(Op.GETFIELD, FieldRef(class_name, field_name))


def putfield(class_name: str, field_name: str) -> Instruction:
    """Shorthand for a PUTFIELD instruction."""
    return Instruction(Op.PUTFIELD, FieldRef(class_name, field_name))


def invokestatic(class_name: str, method_name: str,
                 arg_count: int) -> Instruction:
    """Shorthand for an INVOKESTATIC instruction."""
    return Instruction(Op.INVOKESTATIC,
                       MethodRef(class_name, method_name, arg_count))


def invokevirtual(class_name: str, method_name: str,
                  arg_count: int) -> Instruction:
    """Shorthand for an INVOKEVIRTUAL instruction (receiver included)."""
    return Instruction(Op.INVOKEVIRTUAL,
                       MethodRef(class_name, method_name, arg_count))
