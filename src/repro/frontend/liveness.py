"""Local-variable liveness over bytecode.

Graal clears non-live locals when building frame states and loop phis
("clearNonLiveLocals"); without this, stale object references linger in
local slots, creating phantom loop-carried values that force Partial
Escape Analysis to materialize objects that are actually dead.

Standard backward dataflow, solved by the generic
:class:`~repro.analysis.dataflow.BackwardSolver` over the bytecode CFG:
``LOAD n`` uses slot *n*, ``STORE n`` defines it.  The result answers
"is local *n* live immediately before *bci*?".
"""

from __future__ import annotations

from typing import List, Set

from ..analysis.dataflow import BackwardSolver, BytecodeCFG
from ..bytecode.opcodes import Op
from .blocks import BlockGraph


class LocalLiveness:
    """The live-before set of every bci.  The instance is also the
    solver's analysis: states are sets of live slots, joined by union
    over a block's successors."""

    def __init__(self, block_graph: BlockGraph):
        self.method = block_graph.method
        self.block_graph = block_graph
        #: live-before sets, one per bci.
        self._live_before: List[Set[int]] = [
            set() for _ in self.method.code]
        BackwardSolver(BytecodeCFG(block_graph), self).solve()

    # -- queries ----------------------------------------------------------

    def live_before(self, bci: int) -> Set[int]:
        return self._live_before[bci]

    def is_live_before(self, bci: int, slot: int) -> bool:
        return slot in self._live_before[bci]

    # -- analysis -----------------------------------------------------------

    @staticmethod
    def bottom() -> Set[int]:
        return set()

    @staticmethod
    def join(a: Set[int], b: Set[int]) -> Set[int]:
        return a | b

    def transfer(self, block_id: int, live_out: Set[int]) -> Set[int]:
        """Walk the block backward from the slots live at its end,
        recording the live-before set of every bci; returns the slots
        live at its start.  The solver's last visit of a block sees the
        fixed point, so the recorded sets end up final."""
        block = self.block_graph.blocks[block_id]
        code = self.method.code
        live = set(live_out)
        for bci in range(block.end, block.start - 1, -1):
            insn = code[bci]
            if insn.op is Op.STORE:
                live.discard(insn.operand)
            elif insn.op is Op.LOAD:
                live.add(insn.operand)
            self._live_before[bci] = set(live)
        return live
