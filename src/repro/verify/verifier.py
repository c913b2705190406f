"""The graph-invariant verifier.

:class:`GraphVerifier` checks every invariant the compiler relies on but
:meth:`repro.ir.graph.Graph.verify` (the cheap structural check) cannot
see:

- **SSA def-dominates-use** — every value consumed by a fixed node (or by
  the floating expression tree hanging off one) must be defined in a
  block that dominates the consumer's block; phi inputs must dominate
  the corresponding predecessor's block.
- **CFG well-formedness** — a unique Start, every End feeding exactly
  one Merge, merge/phi arity agreement, LoopBegin/LoopEnd pairing,
  control splits with all successors present and distinct, no
  registered-but-unreachable fixed nodes.
- **FrameState completeness** — every deoptimization point (Deoptimize,
  FixedGuard) carries a frame state whose local count matches the
  method, and every virtual object reachable from a frame state has an
  EscapeObjectState mapping somewhere on the state's outer chain (the
  deoptimizer would otherwise be unable to rematerialize it).
- **PEA-specific invariants** — EscapeObjectState field maps are fully
  populated (one entry per field/element), virtual nodes are referenced
  *only* from frame-state machinery (never as an operand of real code:
  an escaped use must see the materialized value), and phi inputs are
  never virtual.

Violations raise :class:`GraphVerificationError` carrying the full list
of findings, so a broken phase reports everything it broke at once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.graph import Graph
from ..ir.node import (ControlSinkNode, ControlSplitNode, FixedNode,
                       FixedWithNextNode, IRError, Node)
from ..ir.nodes import (ConstantNode, DeoptimizeNode, EndNode,
                        EscapeObjectStateNode, FixedGuardNode,
                        FrameStateNode, IfNode, LoopBeginNode, LoopEndNode,
                        MergeNode, ParameterNode, PhiNode, StartNode,
                        VirtualObjectNode)
from ..scheduler.cfg import ControlFlowGraph, IRBlock
from ..scheduler.controlflow import dominates


class GraphVerificationError(IRError):
    """One or more IR invariants are broken."""

    def __init__(self, graph: Graph, findings: List[str],
                 phase: Optional[str] = None):
        self.findings = list(findings)
        self.phase = phase
        where = f" after phase '{phase}'" if phase else ""
        name = graph.method.qualified_name if graph.method else "?"
        lines = "\n  - ".join(self.findings)
        super().__init__(
            f"{len(self.findings)} IR invariant violation(s) in "
            f"{name}{where}:\n  - {lines}")


#: Floating leaves that are defined "everywhere" (no runtime def site).
_ALWAYS_AVAILABLE = (ConstantNode, ParameterNode)


class GraphVerifier:
    """Checks the full invariant set over one graph.

    Use :func:`verify_graph` for the raise-on-failure entry point; the
    class itself collects findings so callers (and tests) can inspect
    everything that is wrong at once.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.findings: List[str] = []
        self._cfg: Optional[ControlFlowGraph] = None
        #: memo for def-dominates-use checks: (node, use_block) pairs
        #: already proven fine.
        self._dom_ok: Set[Tuple[Node, IRBlock]] = set()

    # -- public ------------------------------------------------------------

    def run(self) -> List[str]:
        """Run every check; returns the list of findings (empty = OK)."""
        self._check_structure()
        if not self.findings:
            cfg = self._build_cfg()
            if cfg is not None:
                self._check_cfg(cfg)
                self._check_dominance(cfg)
        self._check_frame_states()
        self._check_pea_invariants()
        self._check_osr_entry()
        return self.findings

    # -- helpers -----------------------------------------------------------

    def _report(self, message: str):
        self.findings.append(message)

    def _build_cfg(self) -> Optional[ControlFlowGraph]:
        if self._cfg is not None:
            return self._cfg
        if self.graph.start is None:
            self._report("graph has no start node")
            return None
        try:
            self._cfg = ControlFlowGraph(self.graph)
        except IRError as exc:
            self._report(f"CFG construction failed: {exc}")
            return None
        return self._cfg

    # -- layer 1: structural bookkeeping -----------------------------------

    def _check_structure(self):
        """The Graph.verify invariants, reported instead of raised."""
        try:
            self.graph.verify()
        except IRError as exc:
            self._report(f"structural: {exc}")
            return
        # Usage bookkeeping in the reverse direction: every recorded
        # usage must actually reference the node it claims to use.
        for node in self.graph.nodes():
            for user in node.usages:
                if not any(inp is node for inp in user.inputs()):
                    self._report(
                        f"usage bookkeeping: {user} recorded as a user "
                        f"of {node} but has no such input")

    # -- layer 2: CFG well-formedness --------------------------------------

    def _check_cfg(self, cfg: ControlFlowGraph):
        graph = self.graph
        reachable = set(cfg.block_of)
        starts = [n for n in graph.nodes() if isinstance(n, StartNode)]
        if len(starts) != 1:
            self._report(f"expected exactly one Start node, found "
                         f"{len(starts)}")
        elif starts[0] is not graph.start:
            self._report(f"graph.start is {graph.start}, but the "
                         f"registered Start is {starts[0]}")

        for node in graph.nodes():
            if not node.is_fixed:
                continue
            if node not in reachable:
                self._report(f"fixed node {node} is registered but "
                             f"unreachable from start")
                continue
            if isinstance(node, EndNode) and \
                    not isinstance(node, LoopEndNode):
                merges = [u for u in node.usages
                          if isinstance(u, MergeNode)
                          and node in u.ends.snapshot()]
                if len(merges) != 1:
                    self._report(f"{node} must feed exactly one merge, "
                                 f"feeds {len(merges)}")
            if isinstance(node, MergeNode):
                self._check_merge(node)
            if isinstance(node, LoopEndNode):
                begin = node.loop_begin
                if not isinstance(begin, LoopBeginNode):
                    self._report(f"{node} loop_begin is {begin!r}, not a "
                                 f"LoopBegin")
                elif node not in begin.loop_ends.snapshot():
                    self._report(f"{node} missing from "
                                 f"{begin}.loop_ends")
            if isinstance(node, ControlSplitNode):
                succs = list(node.successors())
                expected = len(node._edges.successor_slots)
                if len(succs) != expected:
                    self._report(f"{node} has {len(succs)} successors, "
                                 f"expected {expected}")
                elif len(set(map(id, succs))) != len(succs):
                    self._report(f"{node} successors are not distinct")
                if isinstance(node, IfNode) and node.condition is None:
                    self._report(f"{node} has no condition")

    def _check_merge(self, merge: MergeNode):
        arity = merge.phi_input_count()
        if arity == 0:
            self._report(f"{merge} has no incoming ends")
        for end in merge.ends.snapshot():
            if not isinstance(end, EndNode) or isinstance(end,
                                                          LoopEndNode):
                self._report(f"{merge} forward end {end} is not an End")
        if isinstance(merge, LoopBeginNode):
            if len(merge.ends) == 0:
                self._report(f"{merge} has no forward entry")
            if len(merge.loop_ends) == 0:
                self._report(f"{merge} has no back edges (dissolved "
                             f"loops must become plain merges)")
            for loop_end in merge.loop_ends.snapshot():
                if not isinstance(loop_end, LoopEndNode):
                    self._report(f"{merge} back edge {loop_end} is not "
                                 f"a LoopEnd")
                elif loop_end.loop_begin is not merge:
                    self._report(f"{loop_end}.loop_begin is not {merge}")
        for phi in merge.phis():
            if len(phi.values) != arity:
                self._report(f"{phi} has {len(phi.values)} inputs, "
                             f"merge {merge} expects {arity}")

    # -- layer 3: SSA dominance --------------------------------------------

    def _check_dominance(self, cfg: ControlFlowGraph):
        for block in cfg.blocks:
            for node in block.nodes:
                for name, value in node.named_inputs():
                    if self._is_control_input(name, value):
                        continue
                    self._check_available(value, block, (node, name),
                                          cfg)
        # Phi inputs must be available at the corresponding predecessor.
        for phi in self.graph.nodes_of(PhiNode):
            merge = phi.merge
            if merge is None or merge not in cfg.block_of:
                continue
            anchors = list(merge.ends.snapshot())
            if isinstance(merge, LoopBeginNode):
                anchors += list(merge.loop_ends.snapshot())
            for index, value in enumerate(phi.values):
                if value is None or index >= len(anchors):
                    continue
                anchor_block = cfg.block_of.get(anchors[index])
                if anchor_block is None:
                    continue
                self._check_available(value, anchor_block,
                                      (phi, f"[{index}]"), cfg)

    @staticmethod
    def _is_control_input(name: str, value: Node) -> bool:
        """Merge ``ends``/``loop_ends`` lists and ``loop_begin`` slots
        are control-flow bookkeeping expressed as inputs — they are not
        value uses and carry no dominance obligation."""
        return (isinstance(value, (EndNode, LoopEndNode))
                or name == "loop_begin"
                or name.startswith(("ends[", "loop_ends[")))

    def _report_use(self, use: tuple, problem: str):
        """Report *problem* at a use site given as its parts, ``(user,
        input name, value, ...)``, which read "user input name via
        value ..."; the text is built only for a finding."""
        user, name, *through = use
        self._report(f"{user} input {name}"
                     + "".join(f" via {value}" for value in through)
                     + f": {problem}")

    def _check_available(self, value: Optional[Node], use_block: IRBlock,
                         use: tuple, cfg: ControlFlowGraph,
                         _stack: Optional[Set[Node]] = None):
        """*value* (and its floating expression tree) must be defined in
        blocks dominating *use_block*.  *use* names the use site in the
        parts :meth:`_report_use` takes."""
        if value is None or isinstance(value, _ALWAYS_AVAILABLE) or \
                isinstance(value, VirtualObjectNode):
            return
        key = (value, use_block)
        if key in self._dom_ok:
            return
        if value.is_fixed:
            def_block = cfg.block_of.get(value)
            if def_block is None:
                self._report_use(use, f"fixed def {value} is unreachable")
            elif not dominates(cfg.idom, def_block, use_block):
                self._report_use(
                    use, f"def {value} (block {def_block.index}) does "
                         f"not dominate use (block {use_block.index})")
            else:
                self._dom_ok.add(key)
            return
        if isinstance(value, PhiNode):
            merge = value.merge
            def_block = cfg.block_of.get(merge) if merge is not None \
                else None
            if def_block is None:
                self._report_use(use, f"phi {value} has no reachable "
                                      f"merge")
            elif not dominates(cfg.idom, def_block, use_block):
                self._report_use(
                    use, f"phi {value} (merge block {def_block.index}) "
                         f"does not dominate use (block "
                         f"{use_block.index})")
            else:
                self._dom_ok.add(key)
            return
        # Other floating node: recurse into its inputs.
        stack = _stack if _stack is not None else set()
        if value in stack:
            self._report_use(use, f"floating cycle through {value}")
            return
        stack.add(value)
        through = use + (value,)
        for inp in value.inputs():
            self._check_available(inp, use_block, through, cfg, stack)
        stack.discard(value)
        self._dom_ok.add(key)

    # -- layer 4: frame states ---------------------------------------------

    def _iter_reachable_states(self):
        """Frame states anchored at fixed nodes (with their anchors),
        walking outer chains."""
        seen: Set[FrameStateNode] = set()
        for node in self.graph.nodes():
            if not node.is_fixed:
                continue
            for name in ("state", "state_after", "state_before"):
                state = getattr(node, name, None)
                if isinstance(state, FrameStateNode):
                    for outer in state.outer_chain():
                        if outer not in seen:
                            seen.add(outer)
                            yield node, outer

    def _check_frame_states(self):
        for node in self.graph.nodes():
            if isinstance(node, (DeoptimizeNode, FixedGuardNode)):
                state = node.state
                if not isinstance(state, FrameStateNode):
                    self._report(f"deopt point {node} has no frame state")
                    continue
                self._check_state_rematerializable(node, state)
            if isinstance(node, FixedGuardNode) and node.condition is \
                    None:
                self._report(f"{node} has no condition")
        for anchor, state in self._iter_reachable_states():
            method = state.method
            if method is None:
                self._report(f"{state} (at {anchor}) has no method")
                continue
            if len(state.locals_values) != method.max_locals:
                self._report(
                    f"{state} has {len(state.locals_values)} locals, "
                    f"method {method.qualified_name} declares "
                    f"{method.max_locals}")
            if method.code and not 0 <= state.bci <= len(method.code):
                self._report(f"{state} bci {state.bci} out of range for "
                             f"{method.qualified_name}")

    def _check_state_rematerializable(self, anchor: FixedNode,
                                      state: FrameStateNode):
        """Every virtual object reachable from *state* must have an
        EscapeObjectState mapping with a fully-populated field map."""
        worklist: List[VirtualObjectNode] = []
        seen: Set[VirtualObjectNode] = set()

        def note(value):
            if isinstance(value, VirtualObjectNode) and value not in seen:
                seen.add(value)
                worklist.append(value)

        for frame in state.outer_chain():
            for value in list(frame.locals_values) + \
                    list(frame.stack_values) + list(frame.locks):
                note(value)
        while worklist:
            virtual = worklist.pop()
            mapping = state.find_mapping(virtual)
            if mapping is None:
                self._report(
                    f"deopt at {anchor}: no EscapeObjectState for "
                    f"{virtual} in frame state {state} — "
                    f"rematerialization would fail")
                continue
            for entry in mapping.entries:
                note(entry)

    # -- layer 5: PEA invariants -------------------------------------------

    _STATE_MACHINERY = (FrameStateNode, EscapeObjectStateNode)

    def _check_pea_invariants(self):
        for node in self.graph.nodes():
            if isinstance(node, VirtualObjectNode):
                for user in node.usages:
                    if not isinstance(user, self._STATE_MACHINERY):
                        self._report(
                            f"virtual node {node} used by real node "
                            f"{user} — escaped uses must see the "
                            f"materialized value")
            if isinstance(node, EscapeObjectStateNode):
                virtual = node.virtual_object
                if virtual is None:
                    self._report(f"{node} has no virtual object")
                elif len(node.entries) != virtual.entry_count:
                    self._report(
                        f"{node} has {len(node.entries)} entries, "
                        f"{virtual} has {virtual.entry_count} "
                        f"fields/elements — field map not fully "
                        f"populated")
                if node.lock_count < 0:
                    self._report(f"{node} has negative lock count")
                for user in node.usages:
                    if not isinstance(user, FrameStateNode):
                        self._report(f"{node} used by non-frame-state "
                                     f"{user}")
            if isinstance(node, PhiNode):
                for index, value in enumerate(node.values):
                    if isinstance(value, VirtualObjectNode):
                        self._report(
                            f"{node} input [{index}] is virtual object "
                            f"{value} — virtual objects must be "
                            f"materialized before feeding a phi")


    # -- layer 6: OSR entry contract ---------------------------------------

    def _check_osr_entry(self):
        """An on-stack-replacement graph's parameters must map 1:1 (and
        in order) onto the interpreter local slots recorded in
        ``osr_local_slots`` — that list *is* the tier-transition frame
        mapping the runtime uses to seed the entry."""
        bci = getattr(self.graph, "osr_entry_bci", None)
        if bci is None:
            return
        slots = list(getattr(self.graph, "osr_local_slots", []))
        stack_depth = getattr(self.graph, "entry_stack_depth", 0)
        params = self.graph.parameters
        if len(params) != len(slots) + stack_depth:
            self._report(
                f"OSR graph has {len(params)} parameters but "
                f"{len(slots)} entry local slots + {stack_depth} entry "
                f"stack values")
            return
        if len(set(slots)) != len(slots):
            self._report(f"OSR entry local slots not distinct: {slots}")
        for index, param in enumerate(params):
            if param.index != index:
                self._report(
                    f"OSR parameter {param} has index {param.index}, "
                    f"expected dense index {index}")
        method = self.graph.method
        if method is not None and method.code and \
                not 0 <= bci < len(method.code):
            self._report(f"OSR entry bci {bci} out of range for "
                         f"{method.qualified_name}")


def verify_graph(graph: Graph, phase: Optional[str] = None) -> None:
    """Run :class:`GraphVerifier`; raise on any finding."""
    findings = GraphVerifier(graph).run()
    if findings:
        raise GraphVerificationError(graph, findings, phase)
