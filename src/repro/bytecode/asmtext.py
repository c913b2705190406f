"""Textual bytecode assembler.

Parses a class/method/instruction format close to the disassembler's
output, so bytecode-level tests and tools can be written without going
through the source language::

    class Point
      field int x
      field static int instances

    class Main
      method main(int) -> int static locals=2
        load 0
        const 1
        add
        store 1
      loop:
        load 1
        const 0
        if_le done
        load 1
        const 1
        sub
        store 1
        goto loop
      done:
        load 0
        return_value

Field references are written ``Class.field``, method references
``Class.method/argcount``; branch targets are labels declared as
``name:`` on their own line.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .assembler import BytecodeBuilder
from .classfile import JClass, JField, JMethod, Program
from .instructions import FieldRef, MethodRef
from .opcodes import Op, OperandKind, info
from .verifier import verify_program

_OPS_BY_NAME = {op.value: op for op in Op}


class AsmSyntaxError(Exception):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _parse_const(text: str, line_number: int):
    if text == "null":
        return None
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        raise AsmSyntaxError(f"bad constant {text!r}", line_number) \
            from None


def _parse_field(text: str, line_number: int) -> FieldRef:
    class_name, sep, field_name = text.partition(".")
    if not sep or not field_name:
        raise AsmSyntaxError(f"bad field reference {text!r}",
                             line_number)
    return FieldRef(class_name, field_name)


def _parse_method(text: str, line_number: int) -> MethodRef:
    ref, sep, count = text.partition("/")
    if not sep:
        raise AsmSyntaxError(f"bad method reference {text!r} "
                             "(want Class.method/argcount)", line_number)
    class_name, dot, method_name = ref.partition(".")
    if not dot or not method_name:
        raise AsmSyntaxError(f"bad method reference {text!r}",
                             line_number)
    try:
        arg_count = int(count)
    except ValueError:
        raise AsmSyntaxError(f"bad argument count {count!r}",
                             line_number) from None
    return MethodRef(class_name, method_name, arg_count)


class _MethodParser:
    def __init__(self, method: JMethod):
        self.method = method
        self.builder = BytecodeBuilder()
        self.labels: Dict[str, object] = {}

    def label(self, name: str):
        if name not in self.labels:
            self.labels[name] = self.builder.new_label(name)
        return self.labels[name]

    def parse_line(self, line: str, line_number: int):
        if line.endswith(":"):
            name = line[:-1].strip()
            if not name:
                raise AsmSyntaxError("empty label", line_number)
            self.builder.bind(self.label(name))
            return
        mnemonic, __, rest = line.partition(" ")
        rest = rest.strip()
        op = _OPS_BY_NAME.get(mnemonic)
        if op is None:
            raise AsmSyntaxError(f"unknown opcode {mnemonic!r}",
                                 line_number)
        kind = info(op).operand
        if kind is OperandKind.NONE:
            if rest:
                raise AsmSyntaxError(f"{mnemonic} takes no operand",
                                     line_number)
            self.builder.emit(op)
        elif kind is OperandKind.CONST:
            self.builder.emit(op, _parse_const(rest, line_number))
        elif kind is OperandKind.LOCAL:
            try:
                self.builder.emit(op, int(rest))
            except ValueError:
                raise AsmSyntaxError(f"bad local slot {rest!r}",
                                     line_number) from None
        elif kind is OperandKind.TARGET:
            if not rest:
                raise AsmSyntaxError(f"{mnemonic} needs a label",
                                     line_number)
            self.builder.emit(op, self.label(rest))
        elif kind is OperandKind.CLASS:
            if not rest:
                raise AsmSyntaxError(f"{mnemonic} needs a class name",
                                     line_number)
            self.builder.emit(op, rest)
        elif kind is OperandKind.FIELD:
            self.builder.emit(op, _parse_field(rest, line_number))
        elif kind is OperandKind.METHOD:
            self.builder.emit(op, _parse_method(rest, line_number))

    def finish(self):
        self.builder.into(self.method, max_locals=self.method.max_locals)


def _parse_method_header(rest: str, line_number: int) -> JMethod:
    # name(params) -> ret [static] [synchronized] [native] [locals=N]
    head, arrow, tail = rest.partition("->")
    if not arrow:
        raise AsmSyntaxError("method header needs '-> returntype'",
                             line_number)
    name_part = head.strip()
    if "(" not in name_part or not name_part.endswith(")"):
        raise AsmSyntaxError("method header needs a parameter list",
                             line_number)
    name, __, params_text = name_part.partition("(")
    params_text = params_text[:-1]
    params = [p.strip() for p in params_text.split(",") if p.strip()]
    tail_words = tail.split()
    if not tail_words:
        raise AsmSyntaxError("missing return type", line_number)
    return_type = tail_words[0]
    method = JMethod(name.strip(), params, return_type)
    for word in tail_words[1:]:
        if word == "static":
            method.is_static = True
        elif word == "synchronized":
            method.is_synchronized = True
        elif word == "native":
            method.is_native = True
        elif word.startswith("locals="):
            method.max_locals = int(word[len("locals="):])
        else:
            raise AsmSyntaxError(f"unknown method flag {word!r}",
                                 line_number)
    if method.max_locals < len(params):
        method.max_locals = len(params)
    return method


def _format_operand(instruction, labels: Dict[int, str],
                    line_number_hint: int = 0) -> str:
    kind = info(instruction.op).operand
    operand = instruction.operand
    if kind is OperandKind.NONE:
        return ""
    if kind is OperandKind.CONST:
        if operand is None:
            return " null"
        if isinstance(operand, bool):
            return f" {int(operand)}"
        if isinstance(operand, str):
            return f' "{operand}"'
        return f" {operand}"
    if kind is OperandKind.TARGET:
        return f" {labels[operand]}"
    # LOCAL / CLASS / FIELD / METHOD all stringify to assembler syntax.
    return f" {operand}"


def method_to_asm(method: JMethod, indent: str = "    ") -> List[str]:
    """Render one method as assembler lines (header + body)."""
    header = (f"  method {method.name}"
              f"({', '.join(method.param_types)}) "
              f"-> {method.return_type}")
    if method.is_static:
        header += " static"
    if method.is_synchronized:
        header += " synchronized"
    if method.is_native:
        header += " native"
        return [header]
    header += f" locals={method.max_locals}"
    lines = [header]
    targets = sorted({inst.operand for inst in method.code
                     if info(inst.op).operand is OperandKind.TARGET})
    labels = {bci: f"L{bci}" for bci in targets}
    for bci, instruction in enumerate(method.code):
        if bci in labels:
            lines.append(f"  {labels[bci]}:")
        lines.append(f"{indent}{instruction.op.value}"
                     f"{_format_operand(instruction, labels)}")
    return lines


def to_asm(program: Program) -> str:
    """Render *program* in the textual format :func:`assemble` parses.

    Round-trip: ``assemble(to_asm(p))`` reproduces an equivalent
    program (same classes, fields, methods and instruction streams).
    The implicit empty ``Object`` root class is omitted.  This is what
    the fuzzer uses to persist reproducers in ``tests/corpus/``.
    """
    lines: List[str] = []
    for jclass in program.classes.values():
        if (jclass.superclass_name is None and not jclass.fields
                and not jclass.methods):
            continue  # the implicit Object root
        header = f"class {jclass.name}"
        if jclass.superclass_name not in (None, "Object"):
            header += f" extends {jclass.superclass_name}"
        if lines:
            lines.append("")
        lines.append(header)
        for jfield in jclass.fields.values():
            static = "static " if jfield.is_static else ""
            lines.append(f"  field {static}{jfield.type_name} "
                         f"{jfield.name}")
        for method in jclass.methods.values():
            lines.extend(method_to_asm(method))
    return "\n".join(lines) + "\n"


def assemble(text: str, verify: bool = True) -> Program:
    """Assemble *text* into a verified :class:`Program`."""
    program = Program()
    current_class: Optional[JClass] = None
    current_method: Optional[_MethodParser] = None

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";")[0].strip()  # ';' starts a comment
        if not line:
            continue
        word, __, rest = line.partition(" ")
        rest = rest.strip()
        if word == "class":
            if current_method is not None:
                current_method.finish()
                current_method = None
            parts = rest.split()
            if not parts:
                raise AsmSyntaxError("class needs a name", line_number)
            superclass = "Object"
            if len(parts) == 3 and parts[1] == "extends":
                superclass = parts[2]
            elif len(parts) != 1:
                raise AsmSyntaxError("bad class header", line_number)
            current_class = program.define_class(parts[0], superclass)
        elif word == "field":
            if current_class is None:
                raise AsmSyntaxError("field outside class", line_number)
            parts = rest.split()
            is_static = False
            if parts and parts[0] == "static":
                is_static = True
                parts = parts[1:]
            if len(parts) != 2:
                raise AsmSyntaxError(
                    "field wants: field [static] type name", line_number)
            current_class.add_field(JField(parts[1], parts[0],
                                           is_static))
        elif word == "method":
            if current_class is None:
                raise AsmSyntaxError("method outside class", line_number)
            if current_method is not None:
                current_method.finish()
            method = _parse_method_header(rest, line_number)
            current_class.add_method(method)
            current_method = None if method.is_native else \
                _MethodParser(method)
        else:
            if current_method is None:
                raise AsmSyntaxError(f"instruction outside method: "
                                     f"{line!r}", line_number)
            current_method.parse_line(line, line_number)

    if current_method is not None:
        current_method.finish()
    if verify:
        verify_program(program)
    return program
