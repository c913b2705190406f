"""Bytecode generation from the type-checked AST."""

from __future__ import annotations

from typing import Dict, List

from ..bytecode import BytecodeBuilder, JField, JMethod, Label, Op, Program
from . import ast_nodes as ast
from .typechecker import TypeChecker, is_reference, same_type

_SWAPPED_COMPARE = {"<": Op.IF_LT, "<=": Op.IF_LE, ">": Op.IF_GT,
                    ">=": Op.IF_GE, "==": Op.IF_EQ, "!=": Op.IF_NE}
_NEGATED_COMPARE = {"<": Op.IF_GE, "<=": Op.IF_GT, ">": Op.IF_LE,
                    ">=": Op.IF_LT, "==": Op.IF_NE, "!=": Op.IF_EQ}
_ARITH_OP = {"+": Op.ADD, "-": Op.SUB, "*": Op.MUL, "/": Op.DIV,
             "%": Op.REM, "&": Op.AND, "|": Op.OR, "^": Op.XOR,
             "<<": Op.SHL, ">>": Op.SHR}


class _LoopContext:
    """Targets and monitor depth for break/continue inside a loop."""

    def __init__(self, break_label: Label, continue_label: Label,
                 monitor_depth: int):
        self.break_label = break_label
        self.continue_label = continue_label
        self.monitor_depth = monitor_depth


class MethodGenerator:
    """Generates bytecode for one method body."""

    def __init__(self, checker: TypeChecker, cdecl: ast.ClassDecl,
                 mdecl: ast.MethodDecl):
        self.checker = checker
        self.cdecl = cdecl
        self.mdecl = mdecl
        self.builder = BytecodeBuilder()
        self.slots: Dict[str, int] = {}
        self.next_slot = 0
        self.scope_stack: List[List[str]] = [[]]
        self.loops: List[_LoopContext] = []
        #: Slots holding objects locked by enclosing synchronized blocks.
        self.monitor_slots: List[int] = []

    # -- slots -------------------------------------------------------------

    def _declare(self, name: str) -> int:
        slot = self.next_slot
        self.next_slot += 1
        self.slots[name] = slot
        self.scope_stack[-1].append(name)
        return slot

    def _temp_slot(self) -> int:
        slot = self.next_slot
        self.next_slot += 1
        return slot

    def _push_scope(self):
        self.scope_stack.append([])

    def _pop_scope(self):
        for name in self.scope_stack.pop():
            del self.slots[name]

    # -- entry --------------------------------------------------------------

    def generate(self) -> List:
        if not self.mdecl.is_static:
            self._declare("this")
        for param in self.mdecl.params:
            self._declare(param.name)
        self._gen_block(self.mdecl.body)
        # Implicit return for void methods falling off the end.
        if self.mdecl.return_type.name == "void":
            self.builder.return_void()
        else:
            # The verifier rejects falling off the end; emit a trap value
            # return only if the last statement isn't a guaranteed exit.
            # A conservative THROW keeps the verifier happy and traps at
            # runtime if ever reached.
            self.builder.const(None).throw()
        return self.builder.finish()

    # -- statements -----------------------------------------------------------

    def _gen_block(self, block: ast.Block) -> None:
        self._push_scope()
        for stmt in block.statements:
            self._gen_stmt(stmt)
        self._pop_scope()

    def _gen_stmt(self, stmt: ast.Stmt) -> None:
        b = self.builder
        if isinstance(stmt, ast.Block):
            self._gen_block(stmt)
        elif isinstance(stmt, ast.LocalDecl):
            slot = self._declare(stmt.name)
            if stmt.init is not None:
                self._gen_expr(stmt.init)
                b.store(slot)
        elif isinstance(stmt, ast.Assign):
            self._gen_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._gen_expr(stmt.expr)
            if stmt.expr.type is not None and stmt.expr.type.name != "void":
                b.pop()
        elif isinstance(stmt, ast.If):
            else_label = b.new_label("else")
            self._gen_condition(stmt.condition, else_label,
                                jump_if_true=False)
            self._gen_stmt(stmt.then_branch)
            if stmt.else_branch is not None:
                end_label = b.new_label("endif")
                b.goto(end_label)
                b.bind(else_label)
                self._gen_stmt(stmt.else_branch)
                b.bind(end_label)
            else:
                b.bind(else_label)
        elif isinstance(stmt, ast.While):
            head = b.new_label("while.head")
            exit_ = b.new_label("while.exit")
            b.bind(head)
            self._gen_condition(stmt.condition, exit_, jump_if_true=False)
            self.loops.append(_LoopContext(exit_, head,
                                           len(self.monitor_slots)))
            self._gen_stmt(stmt.body)
            self.loops.pop()
            b.goto(head)
            b.bind(exit_)
        elif isinstance(stmt, ast.For):
            self._push_scope()
            if stmt.init is not None:
                self._gen_stmt(stmt.init)
            head = b.new_label("for.head")
            update = b.new_label("for.update")
            exit_ = b.new_label("for.exit")
            b.bind(head)
            if stmt.condition is not None:
                self._gen_condition(stmt.condition, exit_,
                                    jump_if_true=False)
            self.loops.append(_LoopContext(exit_, update,
                                           len(self.monitor_slots)))
            self._gen_stmt(stmt.body)
            self.loops.pop()
            b.bind(update)
            if stmt.update is not None:
                self._gen_stmt(stmt.update)
            b.goto(head)
            b.bind(exit_)
            self._pop_scope()
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._gen_expr(stmt.value)
                self._exit_monitors(0)
                b.return_value()
            else:
                self._exit_monitors(0)
                b.return_void()
        elif isinstance(stmt, ast.Break):
            context = self.loops[-1]
            self._exit_monitors(context.monitor_depth)
            b.goto(context.break_label)
        elif isinstance(stmt, ast.Continue):
            context = self.loops[-1]
            self._exit_monitors(context.monitor_depth)
            b.goto(context.continue_label)
        elif isinstance(stmt, ast.Throw):
            self._gen_expr(stmt.value)
            b.throw()
        elif isinstance(stmt, ast.Synchronized):
            self._gen_expr(stmt.monitor)
            slot = self._temp_slot()
            b.dup().store(slot).monitorenter()
            self.monitor_slots.append(slot)
            self._gen_stmt(stmt.body)
            self.monitor_slots.pop()
            b.load(slot).monitorexit()
        else:  # pragma: no cover
            raise AssertionError(f"unhandled statement {stmt!r}")

    def _exit_monitors(self, down_to: int) -> None:
        """Emit monitorexit for blocks being left by a jump."""
        for slot in reversed(self.monitor_slots[down_to:]):
            self.builder.load(slot).monitorexit()

    def _gen_assign(self, stmt: ast.Assign) -> None:
        b = self.builder
        target = stmt.target
        if isinstance(target, ast.VarRef):
            if target.resolution == "local":
                self._gen_expr(stmt.value)
                b.store(self.slots[target.name])
            elif target.resolution == "field":
                b.load(self.slots["this"])
                self._gen_expr(stmt.value)
                b.putfield(target.declaring_class, target.name)
            elif target.resolution == "static":
                self._gen_expr(stmt.value)
                b.putstatic(target.declaring_class, target.name)
            else:  # pragma: no cover
                raise AssertionError(target.resolution)
        elif isinstance(target, ast.FieldAccess):
            if target.resolution == "static":
                self._gen_expr(stmt.value)
                b.putstatic(target.declaring_class, target.name)
            else:
                self._gen_expr(target.receiver)
                self._gen_expr(stmt.value)
                b.putfield(target.declaring_class, target.name)
        elif isinstance(target, ast.ArrayIndex):
            self._gen_expr(target.array)
            self._gen_expr(target.index)
            self._gen_expr(stmt.value)
            b.astore()
        else:  # pragma: no cover
            raise AssertionError(f"bad assignment target {target!r}")

    # -- conditions ------------------------------------------------------------

    def _gen_condition(self, expr: ast.Expr, target: Label,
                       jump_if_true: bool) -> None:
        """Emit code that jumps to *target* when ``expr == jump_if_true``
        and falls through otherwise."""
        b = self.builder
        if isinstance(expr, ast.BoolLiteral):
            if expr.value == jump_if_true:
                b.goto(target)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self._gen_condition(expr.operand, target, not jump_if_true)
            return
        if isinstance(expr, ast.Binary):
            op = expr.op
            if op == "&&":
                if jump_if_true:
                    fall = b.new_label("and.fall")
                    self._gen_condition(expr.left, fall,
                                        jump_if_true=False)
                    self._gen_condition(expr.right, target,
                                        jump_if_true=True)
                    b.bind(fall)
                else:
                    self._gen_condition(expr.left, target,
                                        jump_if_true=False)
                    self._gen_condition(expr.right, target,
                                        jump_if_true=False)
                return
            if op == "||":
                if jump_if_true:
                    self._gen_condition(expr.left, target,
                                        jump_if_true=True)
                    self._gen_condition(expr.right, target,
                                        jump_if_true=True)
                else:
                    fall = b.new_label("or.fall")
                    self._gen_condition(expr.left, fall, jump_if_true=True)
                    self._gen_condition(expr.right, target,
                                        jump_if_true=False)
                    b.bind(fall)
                return
            if op in _SWAPPED_COMPARE:
                left_ref = (is_reference(expr.left.type)
                            or expr.left.type.name == "null")
                self._gen_expr(expr.left)
                self._gen_expr(expr.right)
                if left_ref and op in ("==", "!="):
                    branch = Op.IF_ACMP_EQ if (op == "==") == jump_if_true \
                        else Op.IF_ACMP_NE
                else:
                    table = _SWAPPED_COMPARE if jump_if_true \
                        else _NEGATED_COMPARE
                    branch = table[op]
                b.branch(branch, target)
                return
        # Generic boolean value: compare against zero.
        self._gen_expr(expr)
        b.const(0)
        b.branch(Op.IF_NE if jump_if_true else Op.IF_EQ, target)

    def _gen_bool_value(self, expr: ast.Expr) -> None:
        """Materialize a boolean expression as 0/1 on the stack."""
        b = self.builder
        true_label = b.new_label("bool.true")
        end_label = b.new_label("bool.end")
        self._gen_condition(expr, true_label, jump_if_true=True)
        b.const(0).goto(end_label)
        b.bind(true_label)
        b.const(1)
        b.bind(end_label)

    # -- expressions ------------------------------------------------------------

    def _gen_expr(self, expr: ast.Expr) -> None:
        b = self.builder
        if isinstance(expr, ast.IntLiteral):
            b.const(expr.value)
        elif isinstance(expr, ast.BoolLiteral):
            b.const(1 if expr.value else 0)
        elif isinstance(expr, ast.NullLiteral):
            b.const(None)
        elif isinstance(expr, ast.StringLiteral):
            # Java interns string literals: identical literals are the
            # same object, so reference equality works on them.
            import sys
            b.const(sys.intern(expr.value))
        elif isinstance(expr, ast.ThisRef):
            b.load(self.slots["this"])
        elif isinstance(expr, ast.VarRef):
            if expr.resolution == "local":
                b.load(self.slots[expr.name])
            elif expr.resolution == "field":
                b.load(self.slots["this"])
                b.getfield(expr.declaring_class, expr.name)
            elif expr.resolution == "static":
                b.getstatic(expr.declaring_class, expr.name)
            else:  # pragma: no cover
                raise AssertionError(expr.resolution)
        elif isinstance(expr, ast.FieldAccess):
            if expr.resolution == "static":
                b.getstatic(expr.declaring_class, expr.name)
            elif expr.resolution == "arraylength":
                self._gen_expr(expr.receiver)
                b.arraylength()
            else:
                self._gen_expr(expr.receiver)
                b.getfield(expr.declaring_class, expr.name)
        elif isinstance(expr, ast.ArrayIndex):
            self._gen_expr(expr.array)
            self._gen_expr(expr.index)
            b.aload()
        elif isinstance(expr, ast.Unary):
            if expr.op == "-":
                self._gen_expr(expr.operand)
                b.neg()
            else:  # "!"
                self._gen_bool_value(expr)
        elif isinstance(expr, ast.Binary):
            if expr.op in _ARITH_OP and same_type(expr.type,
                                                  ast.TypeRef(name="int")):
                self._gen_expr(expr.left)
                self._gen_expr(expr.right)
                b.emit(_ARITH_OP[expr.op])
            else:
                self._gen_bool_value(expr)
        elif isinstance(expr, ast.Ternary):
            else_label = b.new_label("ternary.else")
            end_label = b.new_label("ternary.end")
            self._gen_condition(expr.condition, else_label,
                                jump_if_true=False)
            self._gen_expr(expr.when_true)
            b.goto(end_label)
            b.bind(else_label)
            self._gen_expr(expr.when_false)
            b.bind(end_label)
        elif isinstance(expr, ast.InstanceOf):
            self._gen_expr(expr.operand)
            b.instanceof(expr.class_name)
        elif isinstance(expr, ast.Cast):
            self._gen_expr(expr.operand)
            b.checkcast(expr.class_name)
        elif isinstance(expr, ast.NewObject):
            b.new(expr.class_name)
            ctor = self.checker.resolve_method(expr.class_name, "<init>")
            if ctor is not None:
                b.dup()
                for arg in expr.args:
                    self._gen_expr(arg)
                b.invokespecial(ctor.declaring_class, "<init>",
                                1 + len(expr.args))
        elif isinstance(expr, ast.NewArray):
            self._gen_expr(expr.length)
            b.newarray(expr.elem_type.name)
        elif isinstance(expr, ast.Call):
            self._gen_call(expr)
        else:  # pragma: no cover
            raise AssertionError(f"unhandled expression {expr!r}")

    def _gen_call(self, expr: ast.Call) -> None:
        b = self.builder
        if expr.is_static_receiver:
            for arg in expr.args:
                self._gen_expr(arg)
            b.invokestatic(expr.declaring_class, expr.method_name,
                           len(expr.args))
            return
        if expr.receiver is None:
            b.load(self.slots["this"])
        else:
            self._gen_expr(expr.receiver)
        for arg in expr.args:
            self._gen_expr(arg)
        b.invokevirtual(expr.declaring_class, expr.method_name,
                        1 + len(expr.args))


def generate_program(checker: TypeChecker,
                     unit: ast.CompilationUnit) -> Program:
    """Generate a :class:`Program` from a type-checked unit."""
    program = Program()
    program.define_class("String")

    # Declare all classes/fields/method shells first (mutual references).
    for cdecl in unit.classes:
        jclass = program.define_class(cdecl.name,
                                      cdecl.superclass or "Object")
        for fdecl in cdecl.fields:
            jclass.add_field(JField(fdecl.name, str(fdecl.decl_type),
                                    fdecl.is_static))
        for mdecl in cdecl.methods:
            param_types = [str(p.decl_type) for p in mdecl.params]
            if not mdecl.is_static:
                param_types.insert(0, cdecl.name)
            jclass.add_method(JMethod(
                mdecl.name, param_types, str(mdecl.return_type),
                is_static=mdecl.is_static,
                is_synchronized=mdecl.is_synchronized,
                is_native=mdecl.is_native))

    # Generate bodies.
    for cdecl in unit.classes:
        jclass = program.lookup_class(cdecl.name)
        for mdecl in cdecl.methods:
            if mdecl.is_native:
                continue
            generator = MethodGenerator(checker, cdecl, mdecl)
            code = generator.generate()
            method = jclass.methods[mdecl.name]
            method.code = code
            method.max_locals = generator.next_slot
    return program
