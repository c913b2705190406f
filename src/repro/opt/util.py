"""Graph-surgery helpers shared by optimization phases."""

from __future__ import annotations

from typing import List, Set

from ..ir.graph import Graph
from ..ir.node import FloatingNode, IRError, Node
from ..ir.nodes import (ConstantNode, EndNode, FrameStateNode,
                        LoopBeginNode, LoopEndNode, MergeNode,
                        ParameterNode, PhiNode)


def sweep_floating(graph: Graph) -> int:
    """Delete floating nodes with no usages, transitively.

    Parameters are kept (they are referenced by ``graph.parameters``);
    everything else — orphaned arithmetic, frame states, phis of deleted
    merges — goes.  Returns the number of deleted nodes.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        for node in graph.nodes():
            if node.is_fixed or not node.has_no_usages():
                continue
            if isinstance(node, ParameterNode) and \
                    node in graph.parameters:
                continue
            node.clear_inputs()
            node.safe_delete()
            removed += 1
            changed = True
    return removed


def kill_branch(graph: Graph, root: Node) -> None:
    """Delete the control-flow subgraph rooted at *root*.

    *root* must already be detached from its predecessor.  Merges that
    remain reachable from elsewhere lose the corresponding end (and phi
    inputs); merges that lose all predecessors die with the branch.
    """
    dead: List[Node] = []
    dead_set: Set[Node] = set()
    worklist: List[Node] = [root]
    while worklist:
        node = worklist.pop()
        if node.graph is not graph or node in dead_set:
            continue
        if isinstance(node, EndNode):
            merge = node.merge()
            dead.append(node)
            dead_set.add(node)
            if merge is None or merge in dead_set:
                continue
            merge.remove_end(node)
            # A merge (or loop) with no forward ends left is unreachable.
            if len(merge.ends) == 0:
                worklist.append(merge)
        elif isinstance(node, LoopEndNode):
            loop_begin = node.loop_begin
            dead.append(node)
            dead_set.add(node)
            if loop_begin is None or loop_begin in dead_set:
                continue
            index = loop_begin.end_index(node)
            for phi in list(loop_begin.phis()):
                phi.values.pop(index)
            loop_begin.loop_ends.remove(node)
        else:
            dead.append(node)
            dead_set.add(node)
            for succ in node.successors():
                worklist.append(succ)
            if isinstance(node, MergeNode):
                # The merge dies: its phis die with it.
                for phi in list(node.phis()):
                    if phi not in dead_set:
                        dead.append(phi)
                        dead_set.add(phi)
                if isinstance(node, LoopBeginNode):
                    for loop_end in list(node.loop_ends):
                        worklist.append(loop_end)

    # Physically delete: break all edges first, then unregister.
    for node in dead:
        node.clear_successors()
        node.clear_predecessor()
    for node in dead:
        node.replace_at_usages(None)
        node.clear_inputs()
    for node in dead:
        if node.graph is graph:
            graph._unregister(node)
    sweep_floating(graph)


def simplify_merge(graph: Graph, merge: MergeNode) -> None:
    """Collapse a merge with exactly one end into plain control flow,
    replacing its single-input phis by their values.  Loop headers
    qualify only once every back edge is gone (a dead loop)."""
    if isinstance(merge, LoopBeginNode) and len(merge.loop_ends) > 0:
        return
    if len(merge.ends) != 1:
        return
    end = merge.ends[0]
    for phi in list(merge.phis()):
        value = phi.values[0]
        phi.replace_at_usages(value)
        phi.clear_inputs()
        phi.safe_delete()
    predecessor = end.predecessor
    successor = merge.next
    merge.next = None
    merge.remove_end(end)
    end.clear_predecessor()
    graph._replace_successor(predecessor, end, successor)
    end.replace_at_usages(None)
    end.safe_delete()
    merge.replace_at_usages(None)
    merge.clear_predecessor()
    merge.clear_inputs()
    merge.safe_delete()
