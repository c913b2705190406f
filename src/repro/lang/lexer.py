"""Lexer for the Java-like source language.

The language is a compact Java subset ("MJ"): classes with single
inheritance, int/boolean/reference types, one-dimensional arrays,
``synchronized`` methods and blocks, and the usual expression grammar.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from .errors import LexError

KEYWORDS = frozenset({
    "class", "extends", "static", "synchronized", "native", "new", "return",
    "if", "else", "while", "for", "int", "boolean", "void", "true", "false",
    "null", "this", "instanceof", "break", "continue", "throw",
})


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


PUNCTUATION = (
    # Longest first so maximal munch works.
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "(", ")", "{", "}", "[", "]", ";", ",", ".",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^",
    "?", ":",
)


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    def __str__(self):
        return f"{self.kind.value}({self.text!r})@{self.line}:{self.column}"


def tokenize(source: str) -> List[Token]:
    """Tokenize *source*, returning tokens ending with an EOF token."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    line_start = 0
    length = len(source)

    def column():
        return pos - line_start + 1

    while pos < length:
        ch = source[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if source.startswith("//", pos):
            end = source.find("\n", pos)
            pos = length if end == -1 else end
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end == -1:
                raise LexError("unterminated block comment", line, column())
            line += source.count("\n", pos, end)
            if "\n" in source[pos:end]:
                line_start = pos + source[pos:end].rindex("\n") + 1
            pos = end + 2
            continue
        if ch.isdigit():
            start = pos
            while pos < length and source[pos].isdigit():
                pos += 1
            tokens.append(Token(TokenKind.INT, source[start:pos], line,
                                start - line_start + 1))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < length and (source[pos].isalnum()
                                    or source[pos] == "_"):
                pos += 1
            text = source[start:pos]
            kind = (TokenKind.KEYWORD if text in KEYWORDS
                    else TokenKind.IDENT)
            tokens.append(Token(kind, text, line, start - line_start + 1))
            continue
        if ch == '"':
            start = pos
            pos += 1
            chars: List[str] = []
            while pos < length and source[pos] != '"':
                if source[pos] == "\n":
                    raise LexError("unterminated string literal", line,
                                   start - line_start + 1)
                if source[pos] == "\\":
                    pos += 1
                    if pos >= length:
                        raise LexError("bad escape", line, column())
                    escape = source[pos]
                    chars.append({"n": "\n", "t": "\t", '"': '"',
                                  "\\": "\\"}.get(escape, escape))
                else:
                    chars.append(source[pos])
                pos += 1
            if pos >= length:
                raise LexError("unterminated string literal", line,
                               start - line_start + 1)
            pos += 1  # closing quote
            tokens.append(Token(TokenKind.STRING, "".join(chars), line,
                                start - line_start + 1))
            continue
        for punct in PUNCTUATION:
            if source.startswith(punct, pos):
                tokens.append(Token(TokenKind.PUNCT, punct, line, column()))
                pos += len(punct)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, column())

    tokens.append(Token(TokenKind.EOF, "", line, column()))
    return tokens
