"""Control-flow nodes: Start, Begin, End, Merge, If, Return, Deoptimize."""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..node import (ControlSinkNode, ControlSplitNode, FixedNode,
                    FixedWithNextNode, IRError)


class StartNode(FixedWithNextNode):
    """The unique entry of a graph."""


class BeginNode(FixedWithNextNode):
    """Marks the entry of a basic block after a control split (a path
    that leaves a loop starts with one too)."""


class EndNode(FixedNode):
    """Ends a branch; a forward input to exactly one MergeNode."""

    def merge(self) -> Optional["MergeNode"]:
        for user in self.usages:
            if isinstance(user, MergeNode):
                return user
        return None


class MergeNode(FixedWithNextNode):
    """A control-flow join.  Its forward predecessors are EndNodes held in
    the ``ends`` input list; data joins are expressed by PhiNodes whose
    ``merge`` input points here."""

    _input_lists = ("ends",)

    @property
    def ends(self):
        return self.input_list("ends")

    def add_end(self, end: EndNode):
        self.ends.append(end)

    def end_index(self, end: EndNode) -> int:
        """The phi-input index corresponding to forward end *end*."""
        return self.ends.index(end)

    def phis(self) -> Iterator["PhiNode"]:
        from .values import PhiNode
        for user in self.usages:
            if isinstance(user, PhiNode) and user.merge is self:
                yield user

    def phi_input_count(self) -> int:
        return len(self.ends)

    def remove_end(self, end: EndNode):
        """Remove a forward end and the matching phi inputs."""
        index = self.ends.index(end)
        for phi in list(self.phis()):
            phi.values.pop(index)
        self.ends.pop(index)


class LoopBeginNode(MergeNode):
    """A loop header.  Forward entry arrives via ``ends`` (exactly one
    after graph building); back edges are LoopEndNodes in ``loop_ends``.
    Phi inputs are ordered: forward ends first, then loop ends."""

    _input_lists = ("loop_ends",)

    @property
    def loop_ends(self):
        return self.input_list("loop_ends")

    def add_loop_end(self, loop_end: "LoopEndNode"):
        self.loop_ends.append(loop_end)
        loop_end.loop_begin = self

    def phi_input_count(self) -> int:
        return len(self.ends) + len(self.loop_ends)

    def end_index(self, end: FixedNode) -> int:
        """Phi-input index for a forward end or a loop end."""
        if isinstance(end, LoopEndNode):
            return len(self.ends) + self.loop_ends.index(end)
        return self.ends.index(end)


class LoopEndNode(FixedNode):
    """A back edge: jumps to its loop's LoopBeginNode."""

    _input_slots = ("loop_begin",)


class IfNode(ControlSplitNode):
    """A two-way control split on an int condition (0 = false)."""

    _input_slots = ("condition",)
    _successor_slots = ("true_successor", "false_successor")

    #: Estimated probability that the condition is true (from profiling).
    true_probability: float = 0.5

    def extra_repr(self):
        return f"p={self.true_probability:.2f}"


class ReturnNode(ControlSinkNode):
    """Method return; ``value`` is None for void methods."""

    _input_slots = ("value",)


class DeoptimizeNode(ControlSinkNode):
    """Transfers execution to the interpreter at ``state``.

    ``reason`` is a diagnostic tag (``"null_check"``, ``"bounds_check"``,
    ``"unreached"``, ``"throw"``, ...).
    """

    _input_slots = ("state",)

    def __init__(self, reason: str = "deopt", **inputs):
        super().__init__(**inputs)
        self.reason = reason

    def extra_repr(self):
        return self.reason
