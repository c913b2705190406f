"""Recursive-descent parser for the source language."""

from __future__ import annotations

from typing import List

from . import ast_nodes as ast
from .errors import ParseError
from .lexer import Token, TokenKind, tokenize

#: Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7, "instanceof": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_EXPR_START_PUNCT = ("(", "!", "-")


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def check(self, text: str) -> bool:
        return self.current.text == text and self.current.kind in (
            TokenKind.PUNCT, TokenKind.KEYWORD)

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            raise ParseError(
                f"expected {text!r}, found {self.current.text!r}",
                self.current.line, self.current.column)
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind is not TokenKind.IDENT:
            raise ParseError(
                f"expected identifier, found {self.current.text!r}",
                self.current.line, self.current.column)
        return self.advance()

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.current.line, self.current.column)

    # -- entry point ----------------------------------------------------------

    def parse_unit(self) -> ast.CompilationUnit:
        unit = ast.CompilationUnit(self.current.line, self.current.column)
        while self.current.kind is not TokenKind.EOF:
            unit.classes.append(self.parse_class())
        return unit

    # -- declarations ------------------------------------------------------------

    def parse_class(self) -> ast.ClassDecl:
        start = self.expect("class")
        name = self.expect_ident().text
        decl = ast.ClassDecl(start.line, start.column, name=name)
        if self.accept("extends"):
            decl.superclass = self.expect_ident().text
        self.expect("{")
        while not self.accept("}"):
            self.parse_member(decl)
        return decl

    def parse_member(self, decl: ast.ClassDecl) -> None:
        start = self.current
        is_static = False
        is_synchronized = False
        is_native = False
        while True:
            if self.accept("static"):
                is_static = True
            elif self.accept("synchronized"):
                is_synchronized = True
            elif self.accept("native"):
                is_native = True
            else:
                break

        # Constructor: ClassName '(' ...
        if (self.current.kind is TokenKind.IDENT
                and self.current.text == decl.name
                and self.peek(1).text == "("):
            name = self.advance().text
            method = ast.MethodDecl(
                start.line, start.column, name="<init>",
                return_type=ast.TypeRef(name="void"),
                is_synchronized=is_synchronized, is_constructor=True)
            if is_static or is_native:
                raise self.error("constructors cannot be static/native")
            self._parse_method_rest(method)
            decl.methods.append(method)
            return

        member_type = self.parse_type()
        name = self.expect_ident().text
        if self.check("("):
            method = ast.MethodDecl(
                start.line, start.column, name=name,
                return_type=member_type, is_static=is_static,
                is_synchronized=is_synchronized, is_native=is_native)
            self._parse_method_rest(method)
            decl.methods.append(method)
        else:
            if is_synchronized or is_native:
                raise self.error("fields cannot be synchronized/native")
            self.expect(";")
            decl.fields.append(ast.FieldDecl(
                start.line, start.column, decl_type=member_type,
                name=name, is_static=is_static))

    def _parse_method_rest(self, method: ast.MethodDecl) -> None:
        self.expect("(")
        if not self.check(")"):
            while True:
                param_type = self.parse_type()
                param_name = self.expect_ident().text
                method.params.append(ast.Param(
                    self.current.line, self.current.column,
                    decl_type=param_type, name=param_name))
                if not self.accept(","):
                    break
        self.expect(")")
        if method.is_native:
            self.expect(";")
        else:
            method.body = self.parse_block()

    def parse_type(self) -> ast.TypeRef:
        token = self.current
        if token.text in ("int", "boolean", "void"):
            self.advance()
            name = token.text
        elif token.kind is TokenKind.IDENT:
            self.advance()
            name = token.text
        else:
            raise self.error(f"expected a type, found {token.text!r}")
        type_ref = ast.TypeRef(token.line, token.column, name=name)
        if self.check("[") and self.peek(1).text == "]":
            self.advance()
            self.advance()
            type_ref.is_array = True
        return type_ref

    # -- statements -----------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        start = self.expect("{")
        block = ast.Block(start.line, start.column)
        while not self.accept("}"):
            block.statements.append(self.parse_statement())
        return block

    def parse_statement(self) -> ast.Stmt:
        token = self.current
        if self.check("{"):
            return self.parse_block()
        if self.accept("if"):
            self.expect("(")
            condition = self.parse_expression()
            self.expect(")")
            then_branch = self.parse_statement()
            else_branch = None
            if self.accept("else"):
                else_branch = self.parse_statement()
            return ast.If(token.line, token.column, condition=condition,
                          then_branch=then_branch,
                          else_branch=else_branch)
        if self.accept("while"):
            self.expect("(")
            condition = self.parse_expression()
            self.expect(")")
            body = self.parse_statement()
            return ast.While(token.line, token.column, condition=condition,
                             body=body)
        if self.accept("for"):
            self.expect("(")
            init = None if self.check(";") else self.parse_simple_statement()
            self.expect(";")
            condition = None if self.check(";") else self.parse_expression()
            self.expect(";")
            update = None if self.check(")") else \
                self.parse_simple_statement()
            self.expect(")")
            body = self.parse_statement()
            return ast.For(token.line, token.column, init=init,
                           condition=condition, update=update, body=body)
        if self.accept("return"):
            value = None if self.check(";") else self.parse_expression()
            self.expect(";")
            return ast.Return(token.line, token.column, value=value)
        if self.accept("break"):
            self.expect(";")
            return ast.Break(token.line, token.column)
        if self.accept("continue"):
            self.expect(";")
            return ast.Continue(token.line, token.column)
        if self.accept("throw"):
            value = self.parse_expression()
            self.expect(";")
            return ast.Throw(token.line, token.column, value=value)
        if self.accept("synchronized"):
            self.expect("(")
            monitor = self.parse_expression()
            self.expect(")")
            body = self.parse_block()
            return ast.Synchronized(token.line, token.column,
                                    monitor=monitor, body=body)
        statement = self.parse_simple_statement()
        self.expect(";")
        return statement

    def parse_simple_statement(self) -> ast.Stmt:
        """A declaration, assignment or expression (no trailing ';')."""
        token = self.current
        if self._looks_like_declaration():
            decl_type = self.parse_type()
            name = self.expect_ident().text
            init = None
            if self.accept("="):
                init = self.parse_expression()
            return ast.LocalDecl(token.line, token.column,
                                 decl_type=decl_type, name=name, init=init)
        expr = self.parse_expression()
        if self.accept("="):
            if not isinstance(expr, (ast.VarRef, ast.FieldAccess,
                                     ast.ArrayIndex)):
                raise self.error("invalid assignment target")
            value = self.parse_expression()
            return ast.Assign(token.line, token.column, target=expr,
                              value=value)
        return ast.ExprStmt(token.line, token.column, expr=expr)

    def _looks_like_declaration(self) -> bool:
        token = self.current
        if token.text in ("int", "boolean"):
            return True
        if token.kind is not TokenKind.IDENT:
            return False
        # "C x", "C x = ...", "C[] x"
        if self.peek(1).kind is TokenKind.IDENT:
            return True
        return (self.peek(1).text == "[" and self.peek(2).text == "]"
                and self.peek(3).kind is TokenKind.IDENT)

    # -- expressions ---------------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        condition = self.parse_binary(1)
        if not self.accept("?"):
            return condition
        token = self.current
        when_true = self.parse_expression()
        self.expect(":")
        when_false = self.parse_expression()
        return ast.Ternary(token.line, token.column, condition=condition,
                           when_true=when_true, when_false=when_false)

    def parse_binary(self, min_precedence: int) -> ast.Expr:
        left = self.parse_unary()
        while True:
            op = self.current.text
            precedence = _PRECEDENCE.get(op)
            if precedence is None or precedence < min_precedence:
                return left
            token = self.advance()
            if op == "instanceof":
                class_name = self.expect_ident().text
                left = ast.InstanceOf(token.line, token.column,
                                      operand=left, class_name=class_name)
                continue
            right = self.parse_binary(precedence + 1)
            left = ast.Binary(token.line, token.column, op=op, left=left,
                              right=right)

    def parse_unary(self) -> ast.Expr:
        token = self.current
        if self.accept("!"):
            return ast.Unary(token.line, token.column, op="!",
                             operand=self.parse_unary())
        if self.accept("-"):
            operand = self.parse_unary()
            if isinstance(operand, ast.IntLiteral):
                operand.value = -operand.value
                return operand
            return ast.Unary(token.line, token.column, op="-",
                             operand=operand)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            token = self.current
            if self.accept("."):
                name = self.expect_ident().text
                if self.check("("):
                    args = self.parse_args()
                    expr = ast.Call(token.line, token.column, receiver=expr,
                                    method_name=name, args=args)
                else:
                    expr = ast.FieldAccess(token.line, token.column,
                                           receiver=expr, name=name)
            elif self.check("[") and self.peek(1).text != "]":
                self.advance()
                index = self.parse_expression()
                self.expect("]")
                expr = ast.ArrayIndex(token.line, token.column, array=expr,
                                      index=index)
            else:
                return expr

    def parse_args(self) -> List[ast.Expr]:
        self.expect("(")
        args: List[ast.Expr] = []
        if not self.check(")"):
            while True:
                args.append(self.parse_expression())
                if not self.accept(","):
                    break
        self.expect(")")
        return args

    def parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind is TokenKind.INT:
            self.advance()
            return ast.IntLiteral(token.line, token.column,
                                  value=int(token.text))
        if token.kind is TokenKind.STRING:
            self.advance()
            return ast.StringLiteral(token.line, token.column,
                                     value=token.text)
        if self.accept("true"):
            return ast.BoolLiteral(token.line, token.column, value=True)
        if self.accept("false"):
            return ast.BoolLiteral(token.line, token.column, value=False)
        if self.accept("null"):
            return ast.NullLiteral(token.line, token.column)
        if self.accept("this"):
            return ast.ThisRef(token.line, token.column)
        if self.accept("new"):
            type_token = self.current
            if type_token.text in ("int", "boolean"):
                self.advance()
                elem = ast.TypeRef(type_token.line, type_token.column,
                                   name=type_token.text)
                self.expect("[")
                length = self.parse_expression()
                self.expect("]")
                return ast.NewArray(token.line, token.column,
                                    elem_type=elem, length=length)
            class_name = self.expect_ident().text
            if self.check("["):
                self.advance()
                length = self.parse_expression()
                self.expect("]")
                elem = ast.TypeRef(type_token.line, type_token.column,
                                   name=class_name)
                return ast.NewArray(token.line, token.column,
                                    elem_type=elem, length=length)
            args = self.parse_args()
            return ast.NewObject(token.line, token.column,
                                 class_name=class_name, args=args)
        if self.check("("):
            if self._looks_like_cast():
                self.advance()
                class_name = self.expect_ident().text
                self.expect(")")
                operand = self.parse_unary()
                return ast.Cast(token.line, token.column,
                                class_name=class_name, operand=operand)
            self.advance()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if token.kind is TokenKind.IDENT:
            self.advance()
            if self.check("("):
                args = self.parse_args()
                return ast.Call(token.line, token.column, receiver=None,
                                method_name=token.text, args=args)
            return ast.VarRef(token.line, token.column, name=token.text)
        raise self.error(f"unexpected token {token.text!r}")

    def _looks_like_cast(self) -> bool:
        """``( Ident )`` followed by something that starts an expression."""
        if self.peek(1).kind is not TokenKind.IDENT:
            return False
        if self.peek(2).text != ")":
            return False
        after = self.peek(3)
        if after.kind in (TokenKind.IDENT, TokenKind.INT, TokenKind.STRING):
            return True
        if after.kind is TokenKind.KEYWORD and after.text in (
                "this", "new", "null", "true", "false"):
            return True
        return after.text in ("(", "!")


def parse(source: str) -> ast.CompilationUnit:
    """Parse *source* into a compilation unit."""
    return Parser(tokenize(source)).parse_unit()
