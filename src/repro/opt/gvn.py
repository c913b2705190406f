"""Global value numbering over pure floating nodes.

Constants are value-numbered at creation by the graph; this phase
hash-conses arithmetic, comparisons and negations (with commutative
normalization), so that e.g. the two ``key.idx == tmp1.idx`` operand
trees of an inlined equals() collapse.

Fixed nodes are never value-numbered: memory reads need a memory
dependence analysis to be safely combined (Graal does this as part of
read elimination inside PEA; out of scope here).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..ir.graph import Graph
from ..ir.nodes import (COMMUTATIVE_OPS, BinaryArithmeticNode,
                        IntCompareNode, NegNode)
from .phase import Phase


class GlobalValueNumberingPhase(Phase):
    name = "gvn"

    def run(self, graph: Graph) -> bool:
        table: Dict[Tuple, object] = {}
        changed = False
        again = True
        while again:
            again = False
            for node in graph.nodes():
                if node.graph is not graph:
                    continue
                key = self._key(node)
                if key is None:
                    continue
                existing = table.get(key)
                if existing is None or existing.graph is not graph:
                    table[key] = node
                elif existing is not node:
                    node.replace_at_usages(existing)
                    node.clear_inputs()
                    node.safe_delete()
                    changed = True
                    again = True
        return changed

    @staticmethod
    def _key(node):
        if isinstance(node, BinaryArithmeticNode):
            x, y = node.x, node.y
            if x is None or y is None:
                return None
            if node.op in COMMUTATIVE_OPS and y.id < x.id:
                x, y = y, x
            return ("arith", node.op, x.id, y.id)
        if isinstance(node, IntCompareNode):
            if node.x is None or node.y is None:
                return None
            return ("cmp", node.op, node.x.id, node.y.id)
        if isinstance(node, NegNode):
            if node.value is None:
                return None
            return ("neg", node.value.id)
        return None
