"""Escape-site attribution and lint passes (``repro analyze``).

Three lints, each a small client of the :mod:`repro.analysis.dataflow`
solver or of the IR dominator tree:

- **monitor-balance** — forward dataflow over the bytecode
  :class:`~repro.frontend.blocks.BlockGraph` tracking the set of
  possible lock depths; flags a ``monitorexit`` that may run with no
  lock held and a return that may leave a monitor locked.
- **redundant-null-check** — flags a null check whose value is a fresh
  allocation (never null) or is dominated by a ``null_check`` guard on
  the same SSA value (the guard passing proves non-null forever).
- **dead-store-to-virtual** — backward *must*-dataflow over the
  scheduled CFG: a field store to a non-escaping, unaliased allocation
  that is definitely overwritten before any read is dead.

``analyze`` additionally compiles every method under Partial Escape
Analysis and reports why each allocation was materialized, from the
events :class:`~repro.pea.virtualization.PEATool` records (e.g.
"allocation at ``Point.<init>@bci 3`` materialized because it flows
into ``log`` param 0").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..bytecode.classfile import JMethod, Program
from ..bytecode.disassembler import format_position
from ..bytecode.opcodes import Op
from ..frontend.blocks import BlockGraph, IrreducibleLoopError
from ..ir.nodes import (FixedGuardNode, IsNullNode, LoadFieldNode,
                        NewArrayNode, NewInstanceNode, PhiNode,
                        StoreFieldNode, StoreIndexedNode)
from ..scheduler.cfg import ControlFlowGraph
from .conngraph import ConnectionGraph
from .dataflow import BackwardSolver, BytecodeCFG, ForwardSolver, IRCFG

#: Lock-depth lattice cap: deeper nesting collapses so the analysis
#: terminates on enter-in-loop shapes (which are findings anyway).
_MAX_TRACKED_DEPTH = 12


@dataclass
class Finding:
    """One lint diagnostic."""

    pass_name: str
    method: str
    bci: Optional[int]
    message: str

    def location(self) -> str:
        if self.bci is None:
            return self.method
        return f"{self.method}@bci {self.bci}"

    def format(self) -> str:
        return f"{self.location()}: [{self.pass_name}] {self.message}"

    def to_dict(self) -> dict:
        return {"pass": self.pass_name, "method": self.method,
                "bci": self.bci, "message": self.message}


@dataclass
class MaterializationEvent:
    """Why one virtual object left the virtual world (plain data so it
    survives the compilation cache's detached pickles)."""

    method: str  #: the compiled (caller) method
    object_desc: str  #: e.g. ``Point`` or ``Operand[4]``
    object_position: Optional[str]  #: allocation site, if known
    reason: str  #: e.g. ``flows into Log.log param 0``
    kind: str = "materialized"  #: or ``borrowed`` / ``nulled_arg``

    def format(self) -> str:
        origin = f" at {self.object_position}" if self.object_position \
            else ""
        return (f"{self.method}: allocation <{self.object_desc}>"
                f"{origin} {self.kind} because it {self.reason}")

    def to_dict(self) -> dict:
        return {"method": self.method, "object": self.object_desc,
                "object_position": self.object_position,
                "kind": self.kind, "reason": self.reason}


# ---------------------------------------------------------------------------
# monitor-balance (bytecode level)
# ---------------------------------------------------------------------------


class _MonitorAnalysis:
    """State: frozenset of possible lock depths (``None`` unreachable)."""

    def __init__(self, method: JMethod, block_graph: BlockGraph):
        self.method = method
        self.block_graph = block_graph

    def bottom(self):
        return None

    def entry_state(self):
        return frozenset((0,))

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a | b

    def transfer(self, block_index, depths):
        if depths is None:
            return None
        block = self.block_graph.blocks[block_index]
        for bci in range(block.start, block.end + 1):
            op = self.method.code[bci].op
            if op is Op.MONITORENTER:
                depths = frozenset(min(d + 1, _MAX_TRACKED_DEPTH)
                                   for d in depths)
            elif op is Op.MONITOREXIT:
                depths = frozenset(max(d - 1, 0) for d in depths)
        return depths


def check_monitor_balance(program: Program) -> List[Finding]:
    findings: List[Finding] = []
    for method in program.all_methods():
        if method.is_native or not method.code:
            continue
        try:
            block_graph = BlockGraph(method)
        except IrreducibleLoopError:
            continue
        analysis = _MonitorAnalysis(method, block_graph)
        result = ForwardSolver(BytecodeCFG(block_graph),
                               analysis).solve()
        for block_index in block_graph.rpo:
            depths = result.block_in.get(block_index)
            if depths is None:
                continue
            block = block_graph.blocks[block_index]
            for bci in range(block.start, block.end + 1):
                op = method.code[bci].op
                if op is Op.MONITOREXIT and 0 in depths:
                    findings.append(Finding(
                        "monitor-balance", method.qualified_name, bci,
                        "monitorexit may run with no monitor held"))
                elif op in (Op.RETURN, Op.RETURN_VALUE) and \
                        any(d > 0 for d in depths):
                    findings.append(Finding(
                        "monitor-balance", method.qualified_name, bci,
                        "return may leave a monitor locked"))
                depths = _step_depths(op, depths)
    return findings


def _step_depths(op, depths):
    if op is Op.MONITORENTER:
        return frozenset(min(d + 1, _MAX_TRACKED_DEPTH) for d in depths)
    if op is Op.MONITOREXIT:
        return frozenset(max(d - 1, 0) for d in depths)
    return depths


# ---------------------------------------------------------------------------
# redundant-null-check (IR level, freshly built graphs)
# ---------------------------------------------------------------------------


def check_redundant_null_checks(program: Program) -> List[Finding]:
    findings: List[Finding] = []
    for method, graph in _build_graphs(program):
        cfg = ControlFlowGraph(graph)
        # All null_check guards per guarded SSA value.
        guards_by_value: Dict[object, List[FixedGuardNode]] = {}
        for node in graph.nodes():
            if isinstance(node, FixedGuardNode) and \
                    node.reason == "null_check" and \
                    isinstance(node.condition, IsNullNode):
                guards_by_value.setdefault(
                    node.condition.value, []).append(node)
        for node in graph.nodes():
            if not isinstance(node, IsNullNode):
                continue
            value = node.value
            if isinstance(value, (NewInstanceNode, NewArrayNode)):
                findings.append(Finding(
                    "redundant-null-check", method.qualified_name,
                    _node_bci(node),
                    "null check on a fresh allocation (never null)"))
                continue
            for guard in guards_by_value.get(value, ()):  # noqa: B020
                if guard.condition is node:
                    continue  # the check feeding this very guard
                if _strictly_dominates(cfg, guard, node):
                    findings.append(Finding(
                        "redundant-null-check", method.qualified_name,
                        _node_bci(node),
                        "null check dominated by a null_check guard on "
                        "the same value (always false)"))
                    break
    return findings


def _strictly_dominates(cfg: ControlFlowGraph, a, b) -> bool:
    block_a = cfg.block_of.get(a)
    block_b = cfg.block_of.get(b)
    if block_a is None or block_b is None or a is b:
        return False
    if block_a is block_b:
        nodes = block_a.nodes
        return nodes.index(a) < nodes.index(b)
    return cfg.dominates(block_a, block_b)


# ---------------------------------------------------------------------------
# dead-store-to-virtual (IR level, backward must-overwrite)
# ---------------------------------------------------------------------------


class _DeadStoreAnalysis:
    """Backward: set of (allocation, field_name) pairs that are
    definitely overwritten before any read (``None`` = no info)."""

    def __init__(self, tracked: Set[object]):
        self.tracked = tracked

    def bottom(self):
        return None

    def entry_state(self):
        return frozenset()

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a & b  # must-analysis

    def transfer(self, block, state):
        if state is None:
            return None
        facts = set(state)
        for node in reversed(block.nodes):
            self.step(node, facts)
        return frozenset(facts)

    def step(self, node, facts: set):
        if isinstance(node, StoreFieldNode) and \
                node.object in self.tracked:
            facts.add((node.object, node.field.field_name))
        elif isinstance(node, LoadFieldNode) and \
                node.object in self.tracked:
            facts.discard((node.object, node.field.field_name))


def check_dead_stores(program: Program) -> List[Finding]:
    findings: List[Finding] = []
    for method, graph in _build_graphs(program):
        approved = ConnectionGraph(graph, program,
                                   symmetric=True).analyze()
        # Exclude aliased allocations: once stored or phi-joined, loads
        # through other names could observe the "dead" store.
        tracked: Set[object] = set()
        for allocation in approved:
            if not isinstance(allocation, NewInstanceNode):
                continue
            aliased = any(
                isinstance(user, (StoreFieldNode, StoreIndexedNode))
                and getattr(user, "value", None) is allocation
                or isinstance(user, PhiNode)
                for user in allocation.usages)
            if not aliased:
                tracked.add(allocation)
        if not tracked:
            continue
        cfg = ControlFlowGraph(graph)
        analysis = _DeadStoreAnalysis(tracked)
        result = BackwardSolver(IRCFG(cfg), analysis).solve()
        for block in cfg.rpo:
            state = result.block_in.get(block)
            if state is None:
                continue
            facts = set(state)
            for node in reversed(block.nodes):
                if isinstance(node, StoreFieldNode) and \
                        node.object in tracked and \
                        (node.object, node.field.field_name) in facts:
                    findings.append(Finding(
                        "dead-store-to-virtual",
                        method.qualified_name, _node_bci(node),
                        f"store to {node.field} on a non-escaping "
                        f"allocation is overwritten before any read"))
                analysis.step(node, facts)
    return findings


# ---------------------------------------------------------------------------
# shared helpers / drivers
# ---------------------------------------------------------------------------


def _build_graphs(program: Program):
    from ..frontend.graph_builder import GraphBuildError, build_graph

    for method in program.all_methods():
        if method.is_native or not method.code:
            continue
        try:
            yield method, build_graph(program, method)
        except (GraphBuildError, IrreducibleLoopError):
            continue


def _node_bci(node) -> Optional[int]:
    position = getattr(node, "position", None)
    if position is not None:
        return position[1]
    return None


LINT_PASSES: Dict[str, Callable[[Program], List[Finding]]] = {
    "monitor-balance": check_monitor_balance,
    "redundant-null-check": check_redundant_null_checks,
    "dead-store-to-virtual": check_dead_stores,
}


def lint_program(program: Program,
                 passes: Optional[List[str]] = None) -> List[Finding]:
    findings: List[Finding] = []
    for name in (passes or sorted(LINT_PASSES)):
        findings.extend(LINT_PASSES[name](program))
    findings.sort(key=lambda f: (f.method, f.bci if f.bci is not None
                                 else -1, f.pass_name))
    return findings


@dataclass
class AnalysisReport:
    """``repro analyze`` output: lints + escape-site attribution."""

    findings: List[Finding] = field(default_factory=list)
    events: List[MaterializationEvent] = field(default_factory=list)
    #: method -> (virtualized, materialized) counts
    per_method: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "materializations": [e.to_dict() for e in self.events],
            "per_method": {name: {"virtualized": v, "materialized": m}
                           for name, (v, m) in
                           sorted(self.per_method.items())},
        }

    def format(self) -> str:
        lines: List[str] = []
        if self.findings:
            lines.append(f"{len(self.findings)} lint finding(s):")
            lines.extend("  " + f.format() for f in self.findings)
        else:
            lines.append("lint: clean")
        if self.events:
            lines.append(f"{len(self.events)} escape site(s):")
            lines.extend("  " + e.format() for e in self.events)
        total_virtual = sum(v for v, _ in self.per_method.values())
        total_mat = sum(m for _, m in self.per_method.values())
        lines.append(f"PEA: {total_virtual} allocation(s) virtualized, "
                     f"{total_mat} materialization(s)")
        return "\n".join(lines)


def analyze_program(program: Program,
                    config=None) -> AnalysisReport:
    """Lint *program* and attribute every PEA materialization."""
    from ..jit.compiler import Compiler
    from ..jit.options import CompilerConfig

    report = AnalysisReport(findings=lint_program(program))
    if config is None:
        config = CompilerConfig.partial_escape(
            escape_tier="pea+summaries")
    compiler = Compiler(program, config, profile=None)
    for method in sorted(program.all_methods(),
                         key=lambda m: m.qualified_name):
        if method.is_native or not method.code:
            continue
        try:
            result = compiler.compile(method)
        except Exception:  # noqa: BLE001 - uncompilable: skip
            continue
        ea_result = result.ea_result
        if ea_result is None:
            continue
        report.per_method[method.qualified_name] = (
            ea_result.virtualized_allocations,
            ea_result.materializations)
        report.events.extend(ea_result.events)
    return report


__all__ = ["Finding", "MaterializationEvent", "AnalysisReport",
           "LINT_PASSES", "lint_program", "analyze_program",
           "check_monitor_balance", "check_redundant_null_checks",
           "check_dead_stores", "format_position"]
