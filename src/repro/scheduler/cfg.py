"""Control-flow graph over the IR's fixed nodes.

Partial Escape Analysis iterates blocks in reverse post order and needs
loop membership to run its iterative loop processing (Section 5.4); the
cost model uses block/node counts as its code-size proxy.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set

from ..ir.graph import Graph
from ..ir.node import FixedNode, FixedWithNextNode, IRError, Node
from ..ir.nodes import EndNode, LoopBeginNode, LoopEndNode, MergeNode
from .controlflow import (immediate_dominators, natural_loop,
                          reverse_post_order)


def control_successors(node: FixedNode) -> Iterable[FixedNode]:
    """The fixed nodes control passes to from *node*: an End's merge, a
    LoopEnd's loop begin (neither has successor slots), else its
    successor slots in declaration order."""
    if isinstance(node, EndNode):
        merge = node.merge()
        if merge is None:
            raise IRError(f"{node} feeds no merge")
        return (merge,)
    if isinstance(node, LoopEndNode):
        if node.loop_begin is None:
            raise IRError(f"{node} has no loop begin")
        return (node.loop_begin,)
    return node.successors()


class IRBlock:
    """A maximal straight-line sequence of fixed nodes."""

    def __init__(self, index: int, nodes: List[FixedNode]):
        self.index = index
        self.nodes = nodes
        self.successors: List["IRBlock"] = []
        self.predecessors: List["IRBlock"] = []

    @property
    def first(self) -> FixedNode:
        return self.nodes[0]

    @property
    def last(self) -> FixedNode:
        return self.nodes[-1]

    @property
    def is_loop_header(self) -> bool:
        return isinstance(self.first, LoopBeginNode)

    def __repr__(self):
        return (f"<IRBlock {self.index}: {self.first!r} .. "
                f"{self.last!r}>")


class ControlFlowGraph:
    """Blocks, reverse post order and natural loops of a graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.blocks: List[IRBlock] = []
        self.block_of: Dict[Node, IRBlock] = {}
        self.rpo: List[IRBlock] = []
        self._loop_members: Dict[IRBlock, Set[IRBlock]] = {}
        self._build()

    # -- construction ---------------------------------------------------

    def _build(self):
        graph = self.graph
        entries: List[FixedNode] = [graph.start]
        seen: Set[Node] = {graph.start}
        while entries:
            first = entries.pop()
            nodes: List[FixedNode] = [first]
            current = first
            while isinstance(current, FixedWithNextNode):
                successor = current.next
                if successor is None:
                    raise IRError(f"{current} has no next")
                if isinstance(successor, MergeNode):
                    break  # merge starts its own block
                nodes.append(successor)
                current = successor
            block = IRBlock(len(self.blocks), nodes)
            self.blocks.append(block)
            for node in nodes:
                self.block_of[node] = block
            # Discover new block entries.
            for target in control_successors(nodes[-1]):
                if target not in seen:
                    seen.add(target)
                    entries.append(target)

        # Edges (now that all blocks exist).
        for block in self.blocks:
            for succ in control_successors(block.last):
                succ_block = self.block_of[succ]
                block.successors.append(succ_block)
                succ_block.predecessors.append(block)

        # The order skips back edges (LoopEnd -> LoopBegin).
        self.rpo = reverse_post_order(
            self.block_of[graph.start],
            lambda block: () if isinstance(block.last, LoopEndNode)
            else block.successors)
        for block in self.blocks:
            if block.is_loop_header:
                latches = [self.block_of[end]
                           for end in block.first.loop_ends]
                self._loop_members[block] = natural_loop(
                    block, latches, attrgetter("predecessors"))

    # -- dominators ------------------------------------------------------------

    @cached_property
    def idom(self) -> Dict[IRBlock, Optional[IRBlock]]:
        """Immediate dominators, in block order (entry: ``None``)."""
        idom = immediate_dominators(self.rpo, attrgetter("predecessors"))
        return {block: idom.get(block) for block in self.blocks}

    def dominator_children(self) -> Dict[IRBlock, List[IRBlock]]:
        children: Dict[IRBlock, List[IRBlock]] = {b: [] for b in
                                                  self.blocks}
        for block, parent in self.idom.items():
            if parent is not None:
                children[parent].append(block)
        return children

    # -- queries --------------------------------------------------------------

    def loop_members(self, header_block: IRBlock) -> Set[IRBlock]:
        return self._loop_members[header_block]

    def block_containing(self, node: Node) -> Optional[IRBlock]:
        return self.block_of.get(node)
