"""Floating value nodes: constants, parameters, phis, arithmetic."""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ...bytecode.interpreter import (java_div, java_rem, java_shl, java_shr,
                                     wrap_int)
from ..node import FloatingNode, IRError, Node


class ConstantNode(FloatingNode):
    """A compile-time constant: int, bool (as int), str or None (null)."""

    def __init__(self, value: Any, **inputs):
        super().__init__(**inputs)
        self.value = value

    @property
    def is_null(self):
        return self.value is None

    def extra_repr(self):
        return repr(self.value)


class ParameterNode(FloatingNode):
    """The *index*-th parameter of the compiled method."""

    def __init__(self, index: int, **inputs):
        super().__init__(**inputs)
        self.index = index

    def extra_repr(self):
        return f"P({self.index})"


class PhiNode(FloatingNode):
    """An SSA phi attached to a MergeNode.

    ``values[i]`` corresponds to the merge's i-th predecessor (forward
    ends first, then loop ends for loop headers).
    """

    _input_slots = ("merge",)
    _input_lists = ("values",)

    @property
    def values(self):
        return self.input_list("values")

    def is_degenerate(self) -> Optional["PhiNode"]:
        """If all inputs are the same node (or self), return that node."""
        unique = None
        for value in self.values:
            if value is self or value is None:
                continue
            if unique is None:
                unique = value
            elif unique is not value:
                return None
        return unique

    def extra_repr(self):
        return f"({', '.join(str(v.id) if v else '?' for v in self.values)})"


#: Arithmetic ops usable with BinaryArithmeticNode, with evaluators.
ARITHMETIC_EVAL = {
    "add": lambda a, b: wrap_int(a + b),
    "sub": lambda a, b: wrap_int(a - b),
    "mul": lambda a, b: wrap_int(a * b),
    "div": java_div,
    "rem": java_rem,
    "and": lambda a, b: wrap_int(a & b),
    "or": lambda a, b: wrap_int(a | b),
    "xor": lambda a, b: wrap_int(a ^ b),
    "shl": java_shl,
    "shr": java_shr,
}

#: Commutative subset (used by global value numbering).
COMMUTATIVE_OPS = frozenset(("add", "mul", "and", "or", "xor"))

#: Integer comparison ops, with evaluators producing 0/1.
#: "below" is the bounds-check compare: ``0 <= a < b`` (an unsigned
#: below when b is a non-negative array length).
COMPARE_EVAL = {
    "eq": lambda a, b: 1 if a == b else 0,
    "ne": lambda a, b: 1 if a != b else 0,
    "lt": lambda a, b: 1 if a < b else 0,
    "le": lambda a, b: 1 if a <= b else 0,
    "gt": lambda a, b: 1 if a > b else 0,
    "ge": lambda a, b: 1 if a >= b else 0,
    "below": lambda a, b: 1 if 0 <= a < b else 0,
}

#: Mirror op when operands are swapped (x < y  <=>  y > x).
MIRRORED_COMPARE = {"eq": "eq", "ne": "ne", "lt": "gt", "le": "ge",
                    "gt": "lt", "ge": "le"}

#: Negated op (for branch polarity flips).
NEGATED_COMPARE = {"eq": "ne", "ne": "eq", "lt": "ge", "le": "gt",
                   "gt": "le", "ge": "lt"}


class BinaryArithmeticNode(FloatingNode):
    """``op(x, y)`` over 64-bit wrapping integers."""

    _input_slots = ("x", "y")

    def __init__(self, op: str, **inputs):
        if op not in ARITHMETIC_EVAL:
            raise IRError(f"unknown arithmetic op {op!r}")
        super().__init__(**inputs)
        self.op = op

    def evaluate(self, x: int, y: int) -> int:
        return ARITHMETIC_EVAL[self.op](x, y)

    def extra_repr(self):
        return self.op


class NegNode(FloatingNode):
    """Integer negation."""

    _input_slots = ("value",)


class IntCompareNode(FloatingNode):
    """``op(x, y)`` over ints, producing 0 or 1."""

    _input_slots = ("x", "y")

    def __init__(self, op: str, **inputs):
        if op not in COMPARE_EVAL:
            raise IRError(f"unknown compare op {op!r}")
        super().__init__(**inputs)
        self.op = op

    def evaluate(self, x: int, y: int) -> int:
        return COMPARE_EVAL[self.op](x, y)

    def extra_repr(self):
        return self.op


#: Floating kinds every backend evaluates on demand from their operands;
#: anything else that appears as an operand already holds a value.
INTERIOR = (BinaryArithmeticNode, IntCompareNode, NegNode)


def expr_children(node: FloatingNode) -> Tuple[Node, ...]:
    """The operands of an :data:`INTERIOR` node, in evaluation order."""
    if isinstance(node, NegNode):
        return (node.value,)
    return (node.x, node.y)
