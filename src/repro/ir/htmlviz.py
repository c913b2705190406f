"""Standalone HTML visualization of IR graphs (an IGV-lite).

Produces a self-contained HTML file: fixed nodes laid out top-to-bottom
in control-flow order (one column per branch where possible), floating
inputs drawn as thin gray edges, control flow as bold edges.  No
external dependencies — the layout is computed here and rendered as
inline SVG.

Usage::

    from repro.ir.htmlviz import write_html
    write_html(graph, "graph.html")
"""

from __future__ import annotations

import html
from typing import Dict, List, Tuple

from .graph import Graph
from .node import Node
from .nodes import (DeoptimizeNode, EndNode, FixedGuardNode, FrameStateNode,
                    LoopEndNode, MonitorEnterNode, MonitorExitNode,
                    NewArrayNode, NewInstanceNode, ReturnNode,
                    VirtualObjectNode)

_NODE_W = 190
_NODE_H = 30
_X_GAP = 40
_Y_GAP = 26

_CATEGORY_COLORS = {
    "control": "#ffd9a0",
    "allocation": "#ffb3b3",
    "monitor": "#d0b3ff",
    "guard": "#fff3a0",
    "sink": "#c9c9c9",
    "floating": "#d6e8ff",
    "state": "#e8e8e8",
}


def _category(node: Node) -> str:
    if isinstance(node, (NewInstanceNode, NewArrayNode)):
        return "allocation"
    if isinstance(node, (MonitorEnterNode, MonitorExitNode)):
        return "monitor"
    if isinstance(node, FixedGuardNode):
        return "guard"
    if isinstance(node, (ReturnNode, DeoptimizeNode)):
        return "sink"
    if isinstance(node, (FrameStateNode, VirtualObjectNode)):
        return "state"
    if node.is_fixed:
        return "control"
    return "floating"


def _control_order(graph: Graph) -> List[Node]:
    """Fixed nodes in a stable control-flow-ish order (as dump_graph)."""
    order: List[Node] = []
    seen = set()
    worklist: List[Node] = [graph.start] if graph.start else []
    while worklist:
        node = worklist.pop(0)
        if node is None or node in seen:
            continue
        seen.add(node)
        order.append(node)
        if isinstance(node, EndNode):
            merge = node.merge()
            if merge is not None and merge not in seen and \
                    all(end in seen for end in merge.ends):
                worklist.append(merge)
            continue
        if isinstance(node, LoopEndNode):
            continue
        for succ in node.successors():
            worklist.append(succ)
    return order


def layout(graph: Graph, include_states: bool = False
           ) -> Dict[Node, Tuple[int, int]]:
    """Assign (x, y) pixel positions: fixed spine in column 0+, floating
    nodes in side columns near their first user."""
    positions: Dict[Node, Tuple[int, int]] = {}
    fixed = _control_order(graph)
    for row, node in enumerate(fixed):
        positions[node] = (0, row)
    row_of = {node: r for (node, r) in
              ((n, positions[n][1]) for n in fixed)}
    # Floating nodes: column 1..N at the row of their earliest user.
    occupancy: Dict[int, set] = {}
    for node in graph.nodes():
        if node in positions or node.is_fixed:
            continue
        if not include_states and isinstance(
                node, (FrameStateNode, VirtualObjectNode)):
            continue
        user_rows = [row_of.get(u) for u in node.usages]
        user_rows = [r for r in user_rows if r is not None]
        row = min(user_rows) if user_rows else 0
        column = 1
        while row in occupancy.get(column, set()):
            column += 1
        occupancy.setdefault(column, set()).add(row)
        positions[node] = (column, row)
    return positions


def render_svg(graph: Graph, include_states: bool = False) -> str:
    positions = layout(graph, include_states)
    if not positions:
        return "<svg/>"

    def pixel(position):
        column, row = position
        return (20 + column * (_NODE_W + _X_GAP),
                20 + row * (_NODE_H + _Y_GAP))

    width = 60 + (1 + max(c for c, _ in positions.values())) * \
        (_NODE_W + _X_GAP)
    height = 60 + (1 + max(r for _, r in positions.values())) * \
        (_NODE_H + _Y_GAP)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="monospace" font-size="11">']
    # Edges first.
    for node, position in positions.items():
        x1, y1 = pixel(position)
        for succ in node.successors():
            if succ not in positions:
                continue
            x2, y2 = pixel(positions[succ])
            parts.append(
                f'<line x1="{x1 + _NODE_W // 2}" y1="{y1 + _NODE_H}" '
                f'x2="{x2 + _NODE_W // 2}" y2="{y2}" stroke="#333" '
                'stroke-width="2.2" marker-end="url(#arrow)"/>')
        for name, inp in node.named_inputs():
            if inp not in positions:
                continue
            x2, y2 = pixel(positions[inp])
            parts.append(
                f'<line x1="{x1}" y1="{y1 + _NODE_H // 2}" '
                f'x2="{x2 + _NODE_W}" y2="{y2 + _NODE_H // 2}" '
                'stroke="#9ab" stroke-width="1" stroke-dasharray="4 2"/>')
    parts.append(
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#333"/></marker></defs>')
    # Nodes on top.
    for node, position in positions.items():
        x, y = pixel(position)
        fill = _CATEGORY_COLORS[_category(node)]
        label = html.escape(repr(node))[:34]
        parts.append(
            f'<g><rect x="{x}" y="{y}" width="{_NODE_W}" '
            f'height="{_NODE_H}" rx="6" fill="{fill}" stroke="#555"/>'
            f'<text x="{x + 8}" y="{y + 19}">{label}</text>'
            f'<title>{html.escape(repr(node))}\n'
            + html.escape("\n".join(
                f"{name} <- {value!r}"
                for name, value in node.named_inputs()))
            + "</title></g>")
    parts.append("</svg>")
    return "".join(parts)


def render_html(graph: Graph, include_states: bool = False) -> str:
    name = html.escape(repr(graph))
    legend = "".join(
        f'<span style="background:{color};padding:2px 8px;'
        f'margin-right:6px;border:1px solid #555;border-radius:4px">'
        f"{kind}</span>"
        for kind, color in _CATEGORY_COLORS.items())
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{name}</title></head>
<body style="font-family:sans-serif">
<h2>{name}</h2>
<p>{legend}</p>
<p>bold edges = control flow (downward); dashed = data inputs.</p>
<div style="overflow:auto">{render_svg(graph, include_states)}</div>
</body></html>"""


def write_html(graph: Graph, path: str,
               include_states: bool = False) -> str:
    """Write the visualization to *path*; returns the path."""
    with open(path, "w") as handle:
        handle.write(render_html(graph, include_states))
    return path
