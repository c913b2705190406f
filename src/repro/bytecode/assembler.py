"""A label-based bytecode builder.

Writing branch targets as raw instruction indices is unmaintainable; the
:class:`BytecodeBuilder` lets tests, the language code generator and the
benchmark workloads emit code with symbolic labels that are resolved to
instruction indices when the method is finished.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .classfile import JMethod
from .instructions import FieldRef, Instruction, MethodRef
from .opcodes import Op, OperandKind, info


class Label:
    """A forward- or backward-referencable position in the code."""

    __slots__ = ("name", "position")

    def __init__(self, name: str = ""):
        self.name = name
        self.position: Optional[int] = None

    def __repr__(self):
        where = self.position if self.position is not None else "?"
        return f"<Label {self.name or id(self)}@{where}>"


class AssemblyError(Exception):
    pass


class BytecodeBuilder:
    """Accumulates instructions and resolves labels.

    Usage::

        b = BytecodeBuilder()
        loop = b.new_label("loop")
        b.bind(loop)
        b.load(0).const(1).sub().store(0)
        b.load(0).const(0).branch(Op.IF_GT, loop)
        b.const(None).return_value()
        method.code = b.finish()
    """

    def __init__(self):
        self._code: List[Instruction] = []
        self._labels: List[Label] = []
        self._pending: List[int] = []  # indices whose operand is a Label

    # -- labels -----------------------------------------------------------

    def new_label(self, name: str = "") -> Label:
        label = Label(name)
        self._labels.append(label)
        return label

    def bind(self, label: Label) -> "BytecodeBuilder":
        if label.position is not None:
            raise AssemblyError(f"label {label!r} bound twice")
        label.position = len(self._code)
        return self

    @property
    def here(self) -> int:
        """The index the next emitted instruction will have."""
        return len(self._code)

    # -- raw emission --------------------------------------------------------

    def emit(self, op: Op, operand: Any = None) -> "BytecodeBuilder":
        if info(op).operand is OperandKind.TARGET and isinstance(
                operand, Label):
            self._pending.append(len(self._code))
            # Temporarily store the label (bypassing validation and the
            # frozen dataclass); replaced in finish().
            insn = Instruction.__new__(Instruction)
            object.__setattr__(insn, "op", op)
            object.__setattr__(insn, "operand", operand)
            self._code.append(insn)
            return self
        self._code.append(Instruction(op, operand))
        return self

    # -- finish -----------------------------------------------------------------

    def finish(self) -> List[Instruction]:
        """Resolve labels and return the instruction list."""
        for index in self._pending:
            insn = self._code[index]
            label = insn.operand
            if label.position is None:
                raise AssemblyError(f"unbound label {label!r}")
            self._code[index] = Instruction(insn.op, label.position)
        self._pending.clear()
        return self._code

    def into(self, method: JMethod, max_locals: Optional[int] = None
             ) -> JMethod:
        """Finish and install the code into *method*."""
        method.code = self.finish()
        if max_locals is not None:
            method.max_locals = max_locals
        return method

    # -- fluent helpers, one per opcode family ------------------------------

    def const(self, value) -> "BytecodeBuilder":
        return self.emit(Op.CONST, value)

    def load(self, slot: int) -> "BytecodeBuilder":
        return self.emit(Op.LOAD, slot)

    def store(self, slot: int) -> "BytecodeBuilder":
        return self.emit(Op.STORE, slot)

    def pop(self) -> "BytecodeBuilder":
        return self.emit(Op.POP)

    def dup(self) -> "BytecodeBuilder":
        return self.emit(Op.DUP)

    def swap(self) -> "BytecodeBuilder":
        return self.emit(Op.SWAP)

    def add(self) -> "BytecodeBuilder":
        return self.emit(Op.ADD)

    def sub(self) -> "BytecodeBuilder":
        return self.emit(Op.SUB)

    def mul(self) -> "BytecodeBuilder":
        return self.emit(Op.MUL)

    def div(self) -> "BytecodeBuilder":
        return self.emit(Op.DIV)

    def rem(self) -> "BytecodeBuilder":
        return self.emit(Op.REM)

    def neg(self) -> "BytecodeBuilder":
        return self.emit(Op.NEG)

    def band(self) -> "BytecodeBuilder":
        return self.emit(Op.AND)

    def bor(self) -> "BytecodeBuilder":
        return self.emit(Op.OR)

    def bxor(self) -> "BytecodeBuilder":
        return self.emit(Op.XOR)

    def shl(self) -> "BytecodeBuilder":
        return self.emit(Op.SHL)

    def shr(self) -> "BytecodeBuilder":
        return self.emit(Op.SHR)

    def goto(self, target: Label) -> "BytecodeBuilder":
        return self.emit(Op.GOTO, target)

    def branch(self, op: Op, target: Label) -> "BytecodeBuilder":
        if not info(op).is_branch:
            raise AssemblyError(f"{op} is not a branch")
        return self.emit(op, target)

    def new(self, class_name: str) -> "BytecodeBuilder":
        return self.emit(Op.NEW, class_name)

    def getfield(self, class_name: str, field_name: str
                 ) -> "BytecodeBuilder":
        return self.emit(Op.GETFIELD, FieldRef(class_name, field_name))

    def putfield(self, class_name: str, field_name: str
                 ) -> "BytecodeBuilder":
        return self.emit(Op.PUTFIELD, FieldRef(class_name, field_name))

    def getstatic(self, class_name: str, field_name: str
                  ) -> "BytecodeBuilder":
        return self.emit(Op.GETSTATIC, FieldRef(class_name, field_name))

    def putstatic(self, class_name: str, field_name: str
                  ) -> "BytecodeBuilder":
        return self.emit(Op.PUTSTATIC, FieldRef(class_name, field_name))

    def newarray(self, elem_type: str) -> "BytecodeBuilder":
        return self.emit(Op.NEWARRAY, elem_type)

    def aload(self) -> "BytecodeBuilder":
        return self.emit(Op.ALOAD)

    def astore(self) -> "BytecodeBuilder":
        return self.emit(Op.ASTORE)

    def arraylength(self) -> "BytecodeBuilder":
        return self.emit(Op.ARRAYLENGTH)

    def instanceof(self, class_name: str) -> "BytecodeBuilder":
        return self.emit(Op.INSTANCEOF, class_name)

    def checkcast(self, class_name: str) -> "BytecodeBuilder":
        return self.emit(Op.CHECKCAST, class_name)

    def invokestatic(self, class_name: str, method_name: str,
                     arg_count: int) -> "BytecodeBuilder":
        return self.emit(Op.INVOKESTATIC,
                         MethodRef(class_name, method_name, arg_count))

    def invokevirtual(self, class_name: str, method_name: str,
                      arg_count: int) -> "BytecodeBuilder":
        return self.emit(Op.INVOKEVIRTUAL,
                         MethodRef(class_name, method_name, arg_count))

    def invokespecial(self, class_name: str, method_name: str,
                      arg_count: int) -> "BytecodeBuilder":
        return self.emit(Op.INVOKESPECIAL,
                         MethodRef(class_name, method_name, arg_count))

    def monitorenter(self) -> "BytecodeBuilder":
        return self.emit(Op.MONITORENTER)

    def monitorexit(self) -> "BytecodeBuilder":
        return self.emit(Op.MONITOREXIT)

    def return_void(self) -> "BytecodeBuilder":
        return self.emit(Op.RETURN)

    def return_value(self) -> "BytecodeBuilder":
        return self.emit(Op.RETURN_VALUE)

    def throw(self) -> "BytecodeBuilder":
        return self.emit(Op.THROW)
