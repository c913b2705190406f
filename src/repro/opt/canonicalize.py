"""Canonicalization: constant folding, algebraic simplification,
degenerate-phi removal, constant-condition If/guard folding.

Runs to a fixed point.  Partial Escape Analysis depends on this phase
picking up the constants it produces (e.g. a RefEquals folded to 0/1
turning an If into straight-line code, which in turn keeps an allocation
virtual on the surviving path).
"""

from __future__ import annotations

from typing import Optional

from ..bytecode.heap import ArithmeticTrap
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.nodes import (BinaryArithmeticNode, ConstantNode,
                        DeoptimizeNode, FixedGuardNode, IfNode,
                        IntCompareNode, IsNullNode, LoopBeginNode,
                        MergeNode, NegNode, NewArrayNode, NewInstanceNode,
                        PhiNode, RefEqualsNode)
from .phase import Phase
from .util import kill_branch, simplify_merge, sweep_floating


def _const(node: Optional[Node]):
    """The Python value of a ConstantNode, or a miss marker."""
    if isinstance(node, ConstantNode):
        return node.value
    return _MISS


_MISS = object()


class CanonicalizerPhase(Phase):
    name = "canonicalize"

    def run(self, graph: Graph) -> bool:
        changed_any = False
        changed = True
        while changed:
            changed = False
            for node in graph.nodes():
                if node.graph is not graph:
                    continue  # deleted by an earlier rewrite this round
                if self._canonicalize(graph, node):
                    changed = True
                    changed_any = True
            if changed:
                sweep_floating(graph)
        return changed_any

    # -- dispatch -----------------------------------------------------------

    def _canonicalize(self, graph: Graph, node: Node) -> bool:
        if isinstance(node, BinaryArithmeticNode):
            return self._arithmetic(graph, node)
        if isinstance(node, IntCompareNode):
            return self._compare(graph, node)
        if isinstance(node, NegNode):
            value = _const(node.value)
            if value is not _MISS:
                from ..bytecode.interpreter import wrap_int
                node.replace_at_usages(graph.constant(wrap_int(-value)))
                node.clear_inputs()
                node.safe_delete()
                return True
            return False
        if isinstance(node, PhiNode):
            return self._phi(node)
        if isinstance(node, IfNode):
            return self._if(graph, node)
        if isinstance(node, FixedGuardNode):
            return self._guard(graph, node)
        if isinstance(node, RefEqualsNode):
            return self._ref_equals(graph, node)
        if isinstance(node, IsNullNode):
            return self._is_null(graph, node)
        if isinstance(node, MergeNode):
            dead_loop = (not isinstance(node, LoopBeginNode)
                         or len(node.loop_ends) == 0)
            if dead_loop and len(node.ends) == 1 and node.graph is graph:
                simplify_merge(graph, node)
                return True
            return False
        return False

    # -- rewrites ----------------------------------------------------------------

    def _arithmetic(self, graph: Graph, node: BinaryArithmeticNode
                    ) -> bool:
        x, y = _const(node.x), _const(node.y)
        if x is not _MISS and y is not _MISS:
            try:
                value = node.evaluate(x, y)
            except ArithmeticTrap:
                return False  # leave the trap to the guard
            node.replace_at_usages(graph.constant(value))
            node.clear_inputs()
            node.safe_delete()
            return True
        replacement = None
        if node.op == "add":
            if x == 0:
                replacement = node.y
            elif y == 0:
                replacement = node.x
        elif node.op == "sub":
            if y == 0:
                replacement = node.x
            elif node.x is node.y:
                replacement = graph.constant(0)
        elif node.op == "mul":
            if x == 1:
                replacement = node.y
            elif y == 1:
                replacement = node.x
            elif x == 0 or y == 0:
                replacement = graph.constant(0)
        elif node.op in ("and", "or"):
            if node.x is node.y:
                replacement = node.x
        elif node.op == "xor":
            if node.x is node.y:
                replacement = graph.constant(0)
        if replacement is not None:
            node.replace_at_usages(replacement)
            node.clear_inputs()
            node.safe_delete()
            return True
        return False

    def _compare(self, graph: Graph, node: IntCompareNode) -> bool:
        x, y = _const(node.x), _const(node.y)
        if x is not _MISS and y is not _MISS:
            node.replace_at_usages(graph.constant(node.evaluate(x, y)))
            node.clear_inputs()
            node.safe_delete()
            return True
        if node.x is node.y and node.op in ("eq", "le", "ge"):
            node.replace_at_usages(graph.constant(1))
            node.clear_inputs()
            node.safe_delete()
            return True
        if node.x is node.y and node.op in ("ne", "lt", "gt"):
            node.replace_at_usages(graph.constant(0))
            node.clear_inputs()
            node.safe_delete()
            return True
        return False

    def _phi(self, node: PhiNode) -> bool:
        value = node.is_degenerate()
        if value is not None and value is not node:
            node.replace_at_usages(value)
            node.clear_inputs()
            node.safe_delete()
            return True
        return False

    def _if(self, graph: Graph, node: IfNode) -> bool:
        condition = _const(node.condition)
        if condition is _MISS:
            return False
        survivor = (node.true_successor if condition
                    else node.false_successor)
        victim = (node.false_successor if condition
                  else node.true_successor)
        predecessor = node.predecessor
        node.clear_successors()
        graph._replace_successor(predecessor, node, survivor)
        node.replace_at_usages(None)
        node.clear_predecessor()
        node.clear_inputs()
        node.safe_delete()
        kill_branch(graph, victim)
        return True

    def _guard(self, graph: Graph, node: FixedGuardNode) -> bool:
        condition = _const(node.condition)
        if condition is _MISS:
            return False
        if bool(condition) != node.negated:
            # Guard always passes: drop it.
            graph.remove_fixed(node)
            return True
        # Guard always fails: everything after it is unreachable.
        deopt = DeoptimizeNode(node.reason, state=node.state)
        graph.add(deopt)
        successor = node.next
        node.next = None
        predecessor = node.predecessor
        graph._replace_successor(predecessor, node, deopt)
        node.clear_predecessor()
        node.replace_at_usages(None)
        node.clear_inputs()
        node.safe_delete()
        kill_branch(graph, successor)
        return True

    def _ref_equals(self, graph: Graph, node: RefEqualsNode) -> bool:
        replacement = None
        if node.x is node.y:
            replacement = graph.constant(1)
        else:
            x, y = _const(node.x), _const(node.y)
            if x is not _MISS and y is not _MISS:
                replacement = graph.constant(1 if x is y else 0)
            elif (x is None and _non_null(node.y)) or \
                    (y is None and _non_null(node.x)):
                replacement = graph.constant(0)
        if replacement is None:
            return False
        graph.replace_fixed(node, replacement)
        return True

    def _is_null(self, graph: Graph, node: IsNullNode) -> bool:
        value = _const(node.value)
        if value is not _MISS:
            graph.replace_fixed(node,
                                graph.constant(1 if value is None else 0))
            return True
        if _non_null(node.value):
            graph.replace_fixed(node, graph.constant(0))
            return True
        return False


def _non_null(node: Optional[Node]) -> bool:
    if isinstance(node, (NewInstanceNode, NewArrayNode)):
        return True
    if isinstance(node, ConstantNode) and node.value is not None:
        return True
    return False
