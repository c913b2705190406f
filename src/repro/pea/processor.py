"""The control-flow iteration driving Partial Escape Analysis.

Processes the IR blocks in reverse post order, branching the allocation
state at control splits, merging at Merge nodes (via
:class:`~repro.pea.merge.MergeProcessor`) and handling loops with the
iterative speculative-state algorithm of Section 5.4 / Figure 7:

    the loop body is processed with a speculative state taken from the
    loop predecessor; if the state merged over the back edges differs
    from the speculation, the effects are discarded and the loop is
    re-processed with an adapted speculation (objects that cannot stay
    virtual across iterations are materialized at the loop entry,
    loop-variant entries become phis) until a fixed point is reached.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..bytecode.classfile import Program
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.nodes import (DeoptimizeNode, EndNode, IfNode, LoopBeginNode,
                        LoopEndNode, MergeNode, PhiNode, ReturnNode,
                        VirtualObjectNode)
from ..scheduler.cfg import ControlFlowGraph, IRBlock
from .effects import Effects
from .merge import MergeProcessor
from .state import PEAState
from .virtualization import PEAError, PEATool

#: Abort knob: loops that do not converge within this many retries are a
#: bug (each retry strictly grows the materialization/phi sets).
MAX_LOOP_ITERATIONS = 50


class _LoopScope:
    """Edge-routing context while a loop is being (re)processed."""

    def __init__(self, header: IRBlock, members: Set[IRBlock]):
        self.header = header
        self.members = members
        #: LoopEnd node -> state at the back edge.
        self.backedges: Dict[Node, PEAState] = {}
        #: Edges leaving the loop: (target block, key node, state).
        self.exits: List[Tuple[IRBlock, Node, PEAState]] = []

    def reset(self):
        self.backedges.clear()
        self.exits.clear()


class PEAProcessor:
    def __init__(self, graph: Graph, program: Program, effects: Effects):
        self.graph = graph
        self.program = program
        self.effects = effects
        self.tool = PEATool(program, effects)
        self.merge_processor = MergeProcessor(self.tool)
        self.cfg = ControlFlowGraph(graph)
        #: block -> list of (key node, state); key is the End node for
        #: merge targets (None for straight-line edges).
        self.pending: Dict[IRBlock, List[Tuple[Optional[Node],
                                               PEAState]]] = {}
        self.scopes: List[_LoopScope] = []

    # -- public --------------------------------------------------------------

    def run(self) -> PEATool:
        entry = self.cfg.block_of[self.graph.start]
        self.pending[entry] = [(None, PEAState())]
        self._iterate(self.cfg.rpo)
        return self.tool

    # -- iteration over an RPO-ordered block list ---------------------------------

    def _iterate(self, blocks: Sequence[IRBlock]):
        index = 0
        processed_members: Set[IRBlock] = set()
        while index < len(blocks):
            block = blocks[index]
            index += 1
            if block in processed_members:
                continue
            if block not in self.pending:
                continue  # unreachable along analyzed paths
            if block.is_loop_header:
                members = self.cfg.loop_members(block)
                self._process_loop(block)
                processed_members |= members
            else:
                state = self._entry_state(block)
                self._process_block(block, state, skip_first=isinstance(
                    block.first, MergeNode))

    def _entry_state(self, block: IRBlock) -> PEAState:
        incoming = self.pending.pop(block)
        first = block.first
        if isinstance(first, MergeNode) and not isinstance(first,
                                                           LoopBeginNode):
            by_end = {key: state for key, state in incoming}
            ends = list(first.ends)
            states = [by_end[end] for end in ends]
            return self.merge_processor.merge(first, states, ends)
        if len(incoming) != 1:
            raise PEAError(f"block {block} expected one incoming edge, "
                           f"got {len(incoming)}")
        return incoming[0][1]

    # -- single block -----------------------------------------------------------------

    def _process_block(self, block: IRBlock, state: PEAState,
                       skip_first: bool):
        nodes = block.nodes[1:] if skip_first else list(block.nodes)
        for node in nodes:
            self.tool.process_node(node, state)
        self._route_edges(block, state)

    def _route_edges(self, block: IRBlock, state: PEAState):
        last = block.nodes[-1]
        if isinstance(last, IfNode):
            # "a copy of the current state is created, because it has to
            # be propagated to both successors" (Section 4).
            for succ_node in last.successors():
                succ_block = self.cfg.block_of[succ_node]
                self._record_edge(succ_block, None, state.copy())
        elif isinstance(last, EndNode):
            merge_block = self.cfg.block_of[last.merge()]
            self._record_edge(merge_block, last, state)
        elif isinstance(last, LoopEndNode):
            self._record_backedge(last, state)
        elif isinstance(last, (ReturnNode, DeoptimizeNode)):
            pass  # control sink
        else:
            raise PEAError(f"unexpected block terminator {last!r}")

    def _record_edge(self, target: IRBlock, key: Optional[Node],
                     state: PEAState):
        for scope in reversed(self.scopes):
            if target not in scope.members:
                scope.exits.append((target, key, state))
                return
            break
        self.pending.setdefault(target, []).append((key, state))

    def _record_backedge(self, loop_end: LoopEndNode, state: PEAState):
        loop_begin = loop_end.loop_begin
        for scope in reversed(self.scopes):
            if scope.header.first is loop_begin:
                scope.backedges[loop_end] = state
                return
        raise PEAError(f"back edge {loop_end!r} outside its loop scope")

    # -- loops (Section 5.4) --------------------------------------------------------

    def _process_loop(self, header: IRBlock):
        loop_begin: LoopBeginNode = header.first  # type: ignore
        members = self.cfg.loop_members(header)
        incoming = self.pending.pop(header)
        if len(loop_begin.ends) != 1:
            raise PEAError("LoopBegin must have exactly one forward end")
        forward_end = loop_begin.ends[0]
        if len(incoming) != 1:
            raise PEAError("loop header expected one forward edge")
        entry_state = incoming[0][1]

        # Adaptation sets, grown monotonically across retries.
        required_mat: List[VirtualObjectNode] = []
        required_phis: Dict[Tuple[VirtualObjectNode, int], PhiNode] = {}
        banned_phis: Set[PhiNode] = set()
        scope = _LoopScope(header, members)

        for _ in range(MAX_LOOP_ITERATIONS):
            checkpoint = self.effects.mark()
            replacements_snapshot = dict(self.tool.replacements)
            deleted_snapshot = set(self.tool.deleted)
            events_snapshot = list(self.tool.events)
            pending_snapshot = {b: list(v)
                                for b, v in self.pending.items()}
            scope.reset()

            speculative, phi_entry_values, phi_aliases = self._adapt(
                entry_state, loop_begin, forward_end, required_mat,
                required_phis, banned_phis)

            self.scopes.append(scope)
            try:
                self._process_block(header, speculative.copy(),
                                    skip_first=True)
                member_rpo = [b for b in self.cfg.rpo
                              if b in members and b is not header]
                self._iterate(member_rpo)
            finally:
                self.scopes.pop()

            new_mat, new_phi_keys, new_bans = self._examine(
                entry_state, loop_begin, speculative, scope,
                required_phis, phi_aliases)

            if not new_mat and not new_phi_keys and not new_bans:
                self._commit_loop(loop_begin, forward_end, entry_state,
                                  speculative, scope, required_phis,
                                  phi_entry_values, phi_aliases)
                # Replay exit edges into the enclosing context.
                for target, key, state in scope.exits:
                    self._record_edge(target, key, state)
                return
            # Retry with an adapted speculation.
            self.effects.rollback(checkpoint)
            self.tool.replacements = replacements_snapshot
            self.tool.deleted = deleted_snapshot
            self.tool.events = events_snapshot
            self.pending = pending_snapshot
            for vo in new_mat:
                if vo not in required_mat:
                    required_mat.append(vo)
            for key in new_phi_keys:
                if key not in required_phis:
                    phi = PhiNode()
                    required_phis[key] = phi
            banned_phis |= new_bans
        raise PEAError(f"loop at {loop_begin!r} did not converge")

    def _adapt(self, entry_state: PEAState, loop_begin: LoopBeginNode,
               forward_end: Node,
               required_mat: List[VirtualObjectNode],
               required_phis: Dict, banned_phis: Set[PhiNode]):
        """Build the speculative loop-entry state (Figure 7's B)."""
        speculative = entry_state.copy()
        for vo in required_mat:
            if vo in speculative.object_states and \
                    speculative.get_state(vo).is_virtual:
                self.tool.materialize(speculative, vo, forward_end)
        phi_entry_values: Dict[Tuple, Node] = {}
        for (vo, index), phi in required_phis.items():
            if vo in speculative.object_states:
                obj_state = speculative.get_state(vo)
                if obj_state.is_virtual:
                    phi_entry_values[(vo, index)] = \
                        obj_state.entries[index]
                    obj_state.entries[index] = phi
        # Optimistic aliasing of the builder's loop phis (Figure 6 (c)
        # applied speculatively to the loop header).
        phi_aliases: Dict[PhiNode, VirtualObjectNode] = {}
        for phi in loop_begin.phis():
            if phi in banned_phis:
                continue
            forward_value = self.tool.resolve(phi.values[0])
            alias = speculative.get_alias(forward_value)
            if alias is not None and \
                    speculative.get_state(alias).is_virtual:
                speculative.add_alias(phi, alias)
                phi_aliases[phi] = alias
        return speculative, phi_entry_values, phi_aliases

    def _examine(self, entry_state: PEAState, loop_begin: LoopBeginNode,
                 speculative: PEAState, scope: _LoopScope,
                 required_phis: Dict, phi_aliases: Dict):
        """Compare the merged back-edge states against the speculation;
        returns the new adaptation requirements (empty = fixed point)."""
        new_mat: List[VirtualObjectNode] = []
        new_phi_keys: List[Tuple[VirtualObjectNode, int]] = []
        new_bans: Set[PhiNode] = set()
        backedge_states = [scope.backedges[le]
                           for le in loop_begin.loop_ends
                           if le in scope.backedges]
        for vo, spec_state in speculative.object_states.items():
            if not spec_state.is_virtual:
                continue
            for back_state in backedge_states:
                back = back_state.object_states.get(vo)
                if back is None or not back.is_virtual or \
                        back.lock_count != spec_state.lock_count:
                    new_mat.append(vo)
                    break
            else:
                for index, entry in enumerate(spec_state.entries):
                    values = [bs.get_state(vo).entries[index]
                              for bs in backedge_states]
                    if all(v is entry for v in values):
                        continue
                    if isinstance(entry, VirtualObjectNode) or any(
                            isinstance(v, VirtualObjectNode)
                            for v in values):
                        new_mat.append(vo)
                        break
                    if (vo, index) not in required_phis:
                        new_phi_keys.append((vo, index))
        # Validate optimistic phi aliases against the back edges.
        end_count = len(loop_begin.ends)
        for phi, alias in phi_aliases.items():
            for position, loop_end in enumerate(loop_begin.loop_ends):
                back_state = scope.backedges.get(loop_end)
                if back_state is None:
                    continue
                value = self.tool.resolve(
                    phi.values[end_count + position])
                if back_state.get_alias(value) is not alias:
                    new_bans.add(phi)
                    if alias not in new_mat:
                        new_mat.append(alias)
                    break
        # A phi that stays a real phi has its back-edge inputs
        # materialized at the loop ends during commit — *inside* the
        # loop.  A per-iteration object materializing there is fine
        # (the interpreter allocates one per trip too), but a
        # loop-invariant virtual reached by that materialization — the
        # back-edge alias itself, or a virtual stored in its fields —
        # would be re-allocated as a fresh copy every iteration.
        # Require such objects materialized once, at the loop entry.
        for phi in loop_begin.phis():
            if phi in phi_aliases and phi not in new_bans:
                continue
            for position, loop_end in enumerate(loop_begin.loop_ends):
                back_state = scope.backedges.get(loop_end)
                if back_state is None:
                    continue
                alias = back_state.get_alias(
                    self.tool.resolve(phi.values[end_count + position]))
                if alias is None:
                    continue
                for reached in self._reachable_virtuals(alias,
                                                        back_state):
                    spec_state = speculative.object_states.get(reached)
                    if spec_state is not None and \
                            spec_state.is_virtual and \
                            reached not in new_mat:
                        new_mat.append(reached)
        return new_mat, new_phi_keys, new_bans

    @staticmethod
    def _reachable_virtuals(root: VirtualObjectNode,
                            state: PEAState) -> List[VirtualObjectNode]:
        """*root* plus every virtual object reachable from its entries
        in *state* — the set ``ensure_materialized`` would allocate."""
        seen: List[VirtualObjectNode] = []
        stack = [root]
        while stack:
            vo = stack.pop()
            if vo in seen:
                continue
            seen.append(vo)
            obj_state = state.object_states.get(vo)
            if obj_state is None or not obj_state.is_virtual:
                continue
            stack.extend(entry for entry in obj_state.entries
                         if isinstance(entry, VirtualObjectNode))
        return seen

    def _commit_loop(self, loop_begin: LoopBeginNode, forward_end: Node,
                     entry_state: PEAState, speculative: PEAState,
                     scope: _LoopScope, required_phis: Dict,
                     phi_entry_values: Dict, phi_aliases: Dict):
        """The fixed point holds: wire up loop phis and fix the builder's
        phis whose inputs reference tracked objects."""
        effects = self.effects
        loop_ends = list(loop_begin.loop_ends)
        backedge_states = [scope.backedges[le] for le in loop_ends]

        for (vo, index), phi in required_phis.items():
            entry_value = phi_entry_values.get((vo, index))
            if entry_value is None:
                continue  # object escaped; phi never used
            inputs = [entry_value] + [
                bs.get_state(vo).entries[index] for bs in backedge_states]
            self._register_loop_phi(phi, loop_begin, inputs)

        end_count = len(loop_begin.ends)
        for phi in list(loop_begin.phis()):
            if phi in phi_aliases:
                continue  # stays an alias of a virtual object
            # The forward position resolves against the *adapted* entry
            # state: objects forced into required_mat were already
            # materialized at the forward end during adaptation.
            pred_states = [speculative] + backedge_states
            anchors = [forward_end] + loop_ends
            new_inputs = []
            changed = False
            for position, pred_state in enumerate(pred_states):
                value = self.tool.resolve(phi.values[position])
                alias = pred_state.get_alias(value)
                if alias is not None:
                    obj_state = pred_state.get_state(alias)
                    if obj_state.is_virtual:
                        value = self.tool.materialize(
                            pred_state, alias, anchors[position])
                    else:
                        value = obj_state.materialized_value
                if value is not phi.values[position]:
                    changed = True
                new_inputs.append(value)
            if changed:
                effects.set_phi_inputs(phi, new_inputs)

    def _register_loop_phi(self, phi: PhiNode, loop_begin: LoopBeginNode,
                           inputs: List[Node]):
        def action():
            graph = self.effects.graph
            if phi.graph is None:
                graph.add(phi)
            phi.merge = loop_begin
            resolved = []
            for value in inputs:
                if value is not None and value.graph is None:
                    graph.add(value)
                resolved.append(value)
            phi.values.set_all(resolved)
        self.effects.add(action)
