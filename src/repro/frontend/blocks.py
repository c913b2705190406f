"""Basic-block analysis over bytecode: CFG, dominators, loop headers.

The graph builder processes blocks in reverse post order and needs to
know, for every block, which predecessors reach it over a back edge and
whether it is a loop header (the target of a back edge).  Back edges are
classified by dominance (edge ``u -> v`` is a back edge iff ``v``
dominates ``u``), which also rejects irreducible control flow — our
bytecode producers only emit reducible graphs.  The order, dominators
and loops come from :mod:`repro.scheduler.controlflow`, shared with the
IR's :class:`~repro.scheduler.cfg.ControlFlowGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..bytecode.classfile import JMethod
from ..bytecode.opcodes import Op, info
from ..scheduler.controlflow import (dominates, immediate_dominators,
                                     natural_loop, reverse_post_order)


class IrreducibleLoopError(Exception):
    """The bytecode contains irreducible control flow."""


@dataclass
class BasicBlock:
    """A maximal straight-line bytecode range [start, end] (inclusive)."""

    index: int  # dense block id
    start: int  # first bci
    end: int  # last bci (the terminator, or last instruction)
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)
    is_loop_header: bool = False
    #: Predecessor block ids whose edge into this block is a back edge.
    back_edge_preds: List[int] = field(default_factory=list)


class BlockGraph:
    """The CFG of one method's bytecode."""

    def __init__(self, method: JMethod):
        self.method = method
        self.blocks: List[BasicBlock] = []
        self.block_of_bci: Dict[int, int] = {}
        self.rpo: List[int] = []
        self.reachable: Set[int] = set()
        #: Immediate dominators of the reachable blocks (entry: None).
        self.idom: Dict[int, Optional[int]] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self):
        code = self.method.code
        leaders = self._find_leaders(code)
        starts = sorted(leaders)
        # Create blocks.
        for index, start in enumerate(starts):
            end = (starts[index + 1] - 1 if index + 1 < len(starts)
                   else len(code) - 1)
            # The block may end earlier at a terminator.
            for bci in range(start, end + 1):
                self.block_of_bci[bci] = index
            self.blocks.append(BasicBlock(index, start, end))
        # Edges.
        for block in self.blocks:
            terminator = code[block.end]
            op = terminator.op
            op_info = info(op)
            targets: List[int] = []
            if op_info.is_branch:
                targets.append(terminator.operand)
                if op is not Op.GOTO:
                    targets.append(block.end + 1)
            elif not op_info.is_terminator:
                targets.append(block.end + 1)
            for target in targets:
                succ = self.block_of_bci[target]
                if self.blocks[succ].start != target:
                    raise AssertionError(
                        f"branch target {target} is not a leader")
                block.successors.append(succ)
                self.blocks[succ].predecessors.append(block.index)
        self._compute_order_and_dominators()
        self._classify_back_edges()

    @staticmethod
    def _find_leaders(code) -> Set[int]:
        leaders = {0}
        for bci, insn in enumerate(code):
            op_info = info(insn.op)
            if op_info.is_branch:
                leaders.add(insn.operand)
                if bci + 1 < len(code):
                    leaders.add(bci + 1)
            elif op_info.is_terminator and bci + 1 < len(code):
                leaders.add(bci + 1)
        return {bci for bci in leaders if bci < len(code)}

    def _compute_order_and_dominators(self):
        blocks = self.blocks
        self.rpo = reverse_post_order(0, lambda b: blocks[b].successors)
        self.reachable = set(self.rpo)
        # Prune edges from unreachable blocks.
        for block in blocks:
            if block.index not in self.reachable:
                for succ in block.successors:
                    succ_block = blocks[succ]
                    if block.index in succ_block.predecessors:
                        succ_block.predecessors.remove(block.index)
                block.successors = []
        self.idom = immediate_dominators(
            self.rpo, lambda b: blocks[b].predecessors)

    def _classify_back_edges(self):
        for block in self.blocks:
            if block.index not in self.reachable:
                continue
            for succ in block.successors:
                if dominates(self.idom, succ, block.index):
                    succ_block = self.blocks[succ]
                    succ_block.is_loop_header = True
                    succ_block.back_edge_preds.append(block.index)
        # Reducibility check: every retreating edge must be a back edge.
        rpo_index = {b: i for i, b in enumerate(self.rpo)}
        for block in self.blocks:
            if block.index not in self.reachable:
                continue
            for succ in block.successors:
                if rpo_index.get(succ, 0) <= rpo_index.get(block.index, 0):
                    if block.index not in \
                            self.blocks[succ].back_edge_preds:
                        raise IrreducibleLoopError(
                            f"{self.method.qualified_name}: retreating "
                            f"edge {block.index}->{succ} is not a back "
                            "edge")

    # -- queries ------------------------------------------------------------

    def loop_blocks(self, header: int) -> Set[int]:
        """All blocks in the natural loop of *header*."""
        return natural_loop(header, self.blocks[header].back_edge_preds,
                            lambda b: self.blocks[b].predecessors)
