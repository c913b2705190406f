"""Textual dumps of IR graphs (the format used in test golden files and
the Figure 2 example dump)."""

from __future__ import annotations

from typing import List, Set

from .graph import Graph
from .node import Node
from .nodes.control import EndNode, IfNode, LoopEndNode, MergeNode


def format_node(node: Node) -> str:
    inputs = ", ".join(
        f"{name}={value.id}" for name, value in node.named_inputs())
    inputs = f" [{inputs}]" if inputs else ""
    return f"{node!r}{inputs}"


def dump_graph(graph: Graph, include_floating: bool = True) -> str:
    """Dump the control-flow skeleton in execution order, with floating
    nodes listed afterwards."""
    lines: List[str] = [f"graph {graph!r}"]
    seen: Set[Node] = set()
    worklist: List[Node] = [graph.start] if graph.start else []
    order: List[Node] = []
    while worklist:
        node = worklist.pop(0)
        if node is None or node in seen:
            continue
        seen.add(node)
        order.append(node)
        if isinstance(node, EndNode):
            merge = node.merge()
            if merge is not None and merge not in seen:
                # Only visit a merge once all its forward ends are seen.
                if all(end in seen for end in merge.ends):
                    worklist.append(merge)
            continue
        if isinstance(node, IfNode):
            worklist.append(node.true_successor)
            worklist.append(node.false_successor)
            continue
        if isinstance(node, LoopEndNode):
            continue
        for succ in node.successors():
            worklist.append(succ)
    for node in order:
        indent = "  "
        lines.append(indent + format_node(node))
        if isinstance(node, MergeNode):
            for phi in node.phis():
                lines.append(indent + "  " + format_node(phi))
    if include_floating:
        fixed = set(order)
        floating = [n for n in graph.nodes()
                    if n not in fixed and not n.is_fixed]
        if floating:
            lines.append("  -- floating --")
            for node in sorted(floating, key=lambda n: n.id):
                lines.append("  " + format_node(node))
    return "\n".join(lines)
