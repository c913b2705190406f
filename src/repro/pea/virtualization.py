"""Per-node effects on the allocation state (the paper's Section 5.2).

The :class:`PEATool` plays the role of Graal's ``VirtualizerTool``: it
dispatches each fixed node against the current :class:`PEAState`,
implementing the patterns of Figure 4 (allocation, store/load on virtual
objects, monitor enter/exit, virtual-into-virtual stores), Figure 5
(operations on escaped objects), the compile-time folding of reference
equality / null / type checks on virtual objects, and the frame-state
rewriting of Section 5.5 (Figure 8).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.diagnostics import MaterializationEvent
from ..bytecode.classfile import Program
from ..bytecode.disassembler import format_position
from ..ir.node import Node
from ..ir.nodes import (ArrayLengthNode, ConstantNode, EndNode,
                        EscapeObjectStateNode, FrameStateNode, InstanceOfNode,
                        InvokeNode, IsNullNode, LoadFieldNode, LoadIndexedNode,
                        LoopEndNode, MonitorEnterNode, MonitorExitNode,
                        NewArrayNode, NewInstanceNode, RefEqualsNode,
                        ReturnNode, StoreFieldNode, StoreIndexedNode,
                        StoreStaticNode, VirtualArrayNode, VirtualInstanceNode,
                        VirtualObjectNode)
from .effects import Effects
from .materialize import borrow_materialized, ensure_materialized
from .state import ObjectState, PEAState

#: Arrays longer than this are not virtualized (entry lists must stay
#: manageable; Graal uses a similar limit).
MAX_VIRTUAL_ARRAY_LENGTH = 64


class PEAError(Exception):
    pass


class PEATool:
    """Shared context for one Partial Escape Analysis pass."""

    def __init__(self, program: Program, effects: Effects):
        self.program = program
        self.effects = effects
        self.graph = effects.graph
        #: If set, only these allocations may be virtualized (used by the
        #: flow-insensitive baseline to restrict PEA's machinery).
        self.allowed_allocations: Optional[Set[Node]] = None
        #: Ablation knobs (Section 5.2 features).
        self.virtualize_arrays = True
        self.fold_virtual_checks = True
        #: Interprocedural escape summaries
        #: (:class:`repro.analysis.summaries.SummaryView`), if the
        #: configuration enables them: virtual objects passed to
        #: summarized non-escaping callees are not materialized.
        self.summaries = None
        #: Scalar replacements: deleted node -> replacement value node.
        self.replacements: Dict[Node, Node] = {}
        #: Nodes scheduled for deletion during this pass.
        self.deleted: Set[Node] = set()
        #: Statistics for tests/diagnostics.
        self.virtualized_allocations = 0
        self.removed_monitor_pairs = 0
        self.materializations = 0
        #: Escape-site attribution (plain data; snapshot/rolled back
        #: with the loop-retry machinery, so the final list is exact).
        self.events: List[MaterializationEvent] = []

    # -- helpers ------------------------------------------------------------

    def resolve(self, node: Optional[Node]) -> Optional[Node]:
        while node in self.replacements:
            node = self.replacements[node]
        return node

    def _replace_with_value(self, node, value: Node):
        """Scalar-replace *node* (a fixed value node) by *value*."""
        self.replacements[node] = value
        self.effects.replace_at_usages(node, value)
        self._delete(node)

    def _delete(self, node):
        self.deleted.add(node)
        self.effects.delete_fixed(node)

    def materialize(self, state: PEAState,
                    virtual_object: VirtualObjectNode,
                    anchor: Node) -> Node:
        self.materializations += 1
        self._record_event(state, virtual_object, anchor,
                           "materialized")
        return ensure_materialized(self.program, state, virtual_object,
                                   anchor, self.effects)

    # -- escape-site attribution -------------------------------------------

    def _record_event(self, state: PEAState,
                      virtual_object: VirtualObjectNode, anchor: Node,
                      kind: str):
        method = self.graph.method
        self.events.append(MaterializationEvent(
            method=method.qualified_name if method else "?",
            object_desc=self._describe_object(virtual_object),
            object_position=self._object_position(virtual_object),
            reason=self._describe_anchor(anchor, virtual_object, state),
            kind=kind))

    @staticmethod
    def _describe_object(virtual_object: VirtualObjectNode) -> str:
        if isinstance(virtual_object, VirtualInstanceNode):
            return virtual_object.class_name
        return (f"{virtual_object.elem_type}"
                f"[{virtual_object.length}]")

    @staticmethod
    def _object_position(virtual_object: VirtualObjectNode
                         ) -> Optional[str]:
        position = getattr(virtual_object, "position", None)
        return format_position(position) if position else None

    def _describe_anchor(self, anchor: Node,
                         virtual_object: VirtualObjectNode,
                         state: PEAState) -> str:
        suffix = ""
        position = getattr(anchor, "position", None)
        if position:
            suffix = f" at {format_position(position)}"
        if isinstance(anchor, InvokeNode):
            target = anchor.target
            params = [i for i, arg in enumerate(anchor.arguments)
                      if state.get_alias(self.resolve(arg))
                      is virtual_object]
            where = f" param {params[0]}" if params else ""
            return (f"flows into {target.class_name}."
                    f"{target.method_name}{where}{suffix}")
        if isinstance(anchor, StoreStaticNode):
            return f"is stored into static {anchor.field}{suffix}"
        if isinstance(anchor, (StoreFieldNode, StoreIndexedNode)):
            container = "an escaped object" \
                if isinstance(anchor, StoreFieldNode) \
                else "an escaped array"
            return f"is stored into {container}{suffix}"
        if isinstance(anchor, ReturnNode):
            return f"is returned{suffix}"
        if isinstance(anchor, LoopEndNode):
            return f"crosses a loop back edge non-virtually{suffix}"
        if isinstance(anchor, EndNode):
            from ..ir.nodes import LoopBeginNode
            if isinstance(anchor.merge(), LoopBeginNode):
                return f"cannot stay virtual across a loop{suffix}"
            return f"merges with a non-virtual path{suffix}"
        return f"reaches {type(anchor).__name__}{suffix}"

    # -- main dispatch -------------------------------------------------------

    def process_node(self, node: Node, state: PEAState):
        """Apply *node*'s effect to *state*, recording graph effects."""
        if isinstance(node, NewInstanceNode):
            self._virtualize_new_instance(node, state)
        elif isinstance(node, NewArrayNode):
            self._virtualize_new_array(node, state)
        elif isinstance(node, LoadFieldNode):
            self._load_field(node, state)
        elif isinstance(node, StoreFieldNode):
            self._store_field(node, state)
        elif isinstance(node, LoadIndexedNode):
            self._load_indexed(node, state)
        elif isinstance(node, StoreIndexedNode):
            self._store_indexed(node, state)
        elif isinstance(node, ArrayLengthNode):
            self._array_length(node, state)
        elif isinstance(node, MonitorEnterNode):
            self._monitor(node, state, delta=+1)
        elif isinstance(node, MonitorExitNode):
            self._monitor(node, state, delta=-1)
        elif isinstance(node, RefEqualsNode):
            self._ref_equals(node, state)
        elif isinstance(node, IsNullNode):
            self._is_null(node, state)
        elif isinstance(node, InstanceOfNode):
            self._instance_of(node, state)
        elif isinstance(node, InvokeNode):
            self._invoke(node, state)
        else:
            self.process_generic(node, state)
        if node not in self.deleted:
            self._process_attached_states(node, state)

    # -- Figure 4 (a): new allocations ------------------------------------------

    def _virtualize_new_instance(self, node: NewInstanceNode,
                                 state: PEAState):
        if self.allowed_allocations is not None and \
                node not in self.allowed_allocations:
            self.process_generic(node, state)
            return
        fields = self.program.instance_fields(node.class_name)
        virtual = VirtualInstanceNode(node.class_name,
                                      [f.name for f in fields])
        virtual.position = getattr(node, "position", None)
        self.effects.track_created(virtual)
        entries: List[Node] = [
            self.graph.constant(f.default_value()) for f in fields]
        state.add_object(ObjectState(virtual, entries))
        state.add_alias(node, virtual)
        self.virtualized_allocations += 1
        self._delete(node)

    def _virtualize_new_array(self, node: NewArrayNode, state: PEAState):
        if not self.virtualize_arrays or (
                self.allowed_allocations is not None
                and node not in self.allowed_allocations):
            self.process_generic(node, state)
            return
        length = self.resolve(node.length)
        if not (isinstance(length, ConstantNode)
                and isinstance(length.value, int)
                and 0 <= length.value <= MAX_VIRTUAL_ARRAY_LENGTH):
            self.process_generic(node, state)
            return
        default = self.graph.constant(
            0 if node.elem_type in ("int", "boolean") else None)
        virtual = VirtualArrayNode(node.elem_type, length.value)
        virtual.position = getattr(node, "position", None)
        self.effects.track_created(virtual)
        state.add_object(ObjectState(virtual, [default] * length.value))
        state.add_alias(node, virtual)
        self.virtualized_allocations += 1
        self._delete(node)

    # -- Figure 4 (b,e,f) and Figure 5: field accesses ----------------------------

    def _load_field(self, node: LoadFieldNode, state: PEAState):
        obj = self.resolve(node.object)
        alias = state.get_alias(obj)
        obj_state = state.object_states.get(alias) if alias else None
        if obj_state is None or not obj_state.is_virtual:
            self.process_generic(node, state)
            return
        virtual = obj_state.virtual_object
        assert isinstance(virtual, VirtualInstanceNode)
        index = virtual.field_index(node.field.field_name)
        entry = obj_state.entries[index]
        if isinstance(entry, VirtualObjectNode):
            # Figure 4 (f): the loaded value is itself a virtual object.
            state.add_alias(node, entry)
            self._delete(node)
        else:
            # Figure 4 (b): replace the load with the known value.
            self._replace_with_value(node, entry)

    def _store_field(self, node: StoreFieldNode, state: PEAState):
        obj = self.resolve(node.object)
        alias = state.get_alias(obj)
        obj_state = state.object_states.get(alias) if alias else None
        if obj_state is None or not obj_state.is_virtual:
            # Figure 5: store on an escaped/untracked object stays; its
            # inputs (incl. a virtual value, which escapes) are handled
            # generically.
            self.process_generic(node, state)
            return
        virtual = obj_state.virtual_object
        assert isinstance(virtual, VirtualInstanceNode)
        index = virtual.field_index(node.field.field_name)
        value = self.resolve(node.value)
        value_alias = state.get_alias(value)
        # Figure 4 (e): a stored virtual object is recorded by Id.
        obj_state.entries[index] = (value_alias if value_alias is not None
                                    else value)
        self._delete(node)

    def _load_indexed(self, node: LoadIndexedNode, state: PEAState):
        array = self.resolve(node.array)
        alias = state.get_alias(array)
        obj_state = state.object_states.get(alias) if alias else None
        index = self.resolve(node.index)
        if (obj_state is None or not obj_state.is_virtual
                or not isinstance(index, ConstantNode)
                or not 0 <= index.value < len(obj_state.entries)):
            self.process_generic(node, state)
            return
        entry = obj_state.entries[index.value]
        if isinstance(entry, VirtualObjectNode):
            state.add_alias(node, entry)
            self._delete(node)
        else:
            self._replace_with_value(node, entry)

    def _store_indexed(self, node: StoreIndexedNode, state: PEAState):
        array = self.resolve(node.array)
        alias = state.get_alias(array)
        obj_state = state.object_states.get(alias) if alias else None
        index = self.resolve(node.index)
        if (obj_state is None or not obj_state.is_virtual
                or not isinstance(index, ConstantNode)
                or not 0 <= index.value < len(obj_state.entries)):
            self.process_generic(node, state)
            return
        value = self.resolve(node.value)
        value_alias = state.get_alias(value)
        obj_state.entries[index.value] = (
            value_alias if value_alias is not None else value)
        self._delete(node)

    def _array_length(self, node: ArrayLengthNode, state: PEAState):
        array = self.resolve(node.array)
        alias = state.get_alias(array)
        obj_state = state.object_states.get(alias) if alias else None
        if obj_state is None or not obj_state.is_virtual:
            self.process_generic(node, state)
            return
        assert isinstance(alias, VirtualArrayNode)
        self._replace_with_value(node, self.graph.constant(alias.length))

    # -- Figure 4 (c,d): monitors ---------------------------------------------------

    def _monitor(self, node, state: PEAState, delta: int):
        obj = self.resolve(node.object)
        alias = state.get_alias(obj)
        obj_state = state.object_states.get(alias) if alias else None
        if obj_state is None or not obj_state.is_virtual:
            self.process_generic(node, state)
            return
        if delta < 0 and obj_state.lock_count <= 0:
            raise PEAError(f"unbalanced monitorexit on {alias}")
        obj_state.lock_count += delta
        if delta < 0:
            self.removed_monitor_pairs += 1
        self._delete(node)

    # -- compile-time folds on virtual objects ------------------------------------

    def _ref_equals(self, node: RefEqualsNode, state: PEAState):
        if not self.fold_virtual_checks:
            self.process_generic(node, state)
            return
        x, y = self.resolve(node.x), self.resolve(node.y)
        ax, ay = state.get_alias(x), state.get_alias(y)
        if ax is not None and ay is not None:
            # Two tracked allocations: identity is their Id equality.
            self._replace_with_value(
                node, self.graph.constant(1 if ax is ay else 0))
            return
        if ax is not None or ay is not None:
            tracked = ax if ax is not None else ay
            if state.get_state(tracked).is_virtual:
                # A virtual object is identical to nothing else.
                self._replace_with_value(node, self.graph.constant(0))
                return
        self.process_generic(node, state)

    def _is_null(self, node: IsNullNode, state: PEAState):
        if not self.fold_virtual_checks:
            self.process_generic(node, state)
            return
        value = self.resolve(node.value)
        if state.get_alias(value) is not None:
            # Tracked allocations are never null.
            self._replace_with_value(node, self.graph.constant(0))
            return
        self.process_generic(node, state)

    def _instance_of(self, node: InstanceOfNode, state: PEAState):
        if not self.fold_virtual_checks:
            self.process_generic(node, state)
            return
        value = self.resolve(node.value)
        alias = state.get_alias(value)
        if alias is None:
            self.process_generic(node, state)
            return
        # The exact type of a tracked allocation is known (Section 5.2).
        if isinstance(alias, VirtualInstanceNode):
            result = 1 if self.program.is_subclass_of(
                alias.class_name, node.class_name) else 0
        else:
            result = 1 if node.class_name == "Object" else 0
        self._replace_with_value(node, self.graph.constant(result))

    # -- invokes: consult interprocedural escape summaries ------------------------

    def _invoke(self, node: InvokeNode, state: PEAState):
        """Without summaries this is the paper's conservative rule (any
        reference argument of a non-inlined invoke escapes, handled
        generically).  With summaries, a virtual argument whose callee
        parameter is summarized non-escaping avoids heap
        materialization:

        - **unused** parameter (never a receiver): pass null — the
          callee provably cannot observe the difference;
        - **borrowable** parameter (read but never written, locked,
          returned, captured or stored anywhere): pass a throwaway
          stack-allocated copy; the caller's object stays virtual.

        Decisions are made per tracked *object*, joining the parameter
        summaries over every position the object occupies, so
        ``f(o, o)`` keeps reference identity (one shared borrow).
        """
        summaries = self.summaries
        arguments = list(node.arguments)
        if summaries is None or not arguments:
            self.process_generic(node, state)
            return
        receiver_class = None
        if node.kind == "virtual":
            receiver_alias = state.get_alias(
                self.resolve(arguments[0]))
            if isinstance(receiver_alias, VirtualInstanceNode):
                receiver_class = receiver_alias.class_name
        summary = summaries.summary_for_call(
            node.target, receiver_class=receiver_class)
        if summary is None or summary.is_top:
            self.process_generic(node, state)
            return

        # Join each tracked object's parameter summaries over all the
        # positions it occupies.
        per_object: Dict[VirtualObjectNode, object] = {}
        receivers: Set[VirtualObjectNode] = set()
        for position, argument in enumerate(arguments):
            alias = state.get_alias(self.resolve(argument))
            if alias is None:
                continue
            param = summary.param(position)
            joined = per_object.get(alias)
            per_object[alias] = param if joined is None \
                else joined.join(param)
            if position == 0 and node.kind in ("virtual", "special"):
                receivers.add(alias)

        replacement_for: Dict[VirtualObjectNode, Node] = {}
        for alias, param in per_object.items():
            obj_state = state.get_state(alias)
            if not obj_state.is_virtual:
                replacement_for[alias] = obj_state.materialized_value
                continue
            if param.classification == "unused" and \
                    alias not in receivers and \
                    obj_state.lock_count == 0:
                # The callee never touches the parameter: null it and
                # keep the object virtual.  Never for receivers — the
                # VM dispatches on them.
                replacement_for[alias] = self.graph.constant(None)
                self._record_event(state, alias, node, "nulled_arg")
                continue
            if param.borrowable and obj_state.lock_count == 0 and \
                    self._entries_borrowable(state, alias):
                replacement_for[alias] = borrow_materialized(
                    self.program, state, alias, node, self.effects)
                self._record_event(state, alias, node, "borrowed")
                continue
            replacement_for[alias] = self.materialize(state, alias,
                                                      node)
        for argument in arguments:
            alias = state.get_alias(self.resolve(argument))
            if alias is not None:
                self.effects.replace_input(node, argument,
                                           replacement_for[alias])

    def _entries_borrowable(self, state: PEAState,
                            virtual_object: VirtualObjectNode) -> bool:
        """A borrow copies the entry values verbatim: every entry must
        be a real value (a nested still-virtual object would need its
        own materialization — not worth a borrow)."""
        for entry in state.get_state(virtual_object).entries:
            if isinstance(entry, VirtualObjectNode) and \
                    state.get_state(entry).is_virtual:
                return False
        return True

    # -- the default: inputs referencing tracked objects escape --------------------

    def process_generic(self, node: Node, state: PEAState):
        """Any unhandled operation requires real object references:
        virtual inputs are materialized, escaped inputs are replaced with
        their materialized values."""
        for inp in list(node.inputs()):
            if isinstance(inp, (FrameStateNode, VirtualObjectNode)):
                continue
            value = self.resolve(inp)
            alias = state.get_alias(value)
            if alias is None:
                continue
            obj_state = state.get_state(alias)
            if obj_state.is_virtual:
                materialized = self.materialize(state, alias, node)
            else:
                materialized = obj_state.materialized_value
            self.effects.replace_input(node, inp, materialized)

    # -- Section 5.5: frame states ---------------------------------------------------

    def _process_attached_states(self, node: Node, state: PEAState):
        for slot in ("state_after", "state_before", "state"):
            if slot in node._edges.input_slots:
                frame_state = getattr(node, slot)
                if frame_state is not None:
                    self.process_frame_state(node, slot, frame_state,
                                             state)

    def process_frame_state(self, site: Node, slot: str,
                            frame_state: FrameStateNode, state: PEAState):
        """Rewrite *site*'s frame state so deoptimization can
        rematerialize scalar-replaced objects (Figure 8).

        The chain is duplicated copy-on-write (outer states are shared
        between sites, but the virtual-object snapshots are per-site).
        """
        chain = list(frame_state.outer_chain())
        if not any(self._needs_rewrite(fs, state) for fs in chain):
            return
        # Insertion-ordered (a dict, not an identity-hashed set): the
        # snapshots below are created in this order, so node ids and
        # the cached payload stay the same from process to process.
        needed: Dict[VirtualObjectNode, None] = {}
        new_outer: Optional[FrameStateNode] = None
        new_chain: List[FrameStateNode] = []
        for original in reversed(chain):  # outermost first
            duplicate = FrameStateNode(original.method, original.bci)
            self.effects.track_created(duplicate)
            duplicate.outer = new_outer
            for list_name in ("locals_values", "stack_values", "locks"):
                for value in original.input_list(list_name):
                    duplicate.input_list(list_name).append(
                        self._state_value(value, state, needed))
            # Snapshots created by an earlier PEA round must survive
            # the rewrite: the states still reference their virtual
            # objects, and dropping the mappings would make those
            # objects unmaterializable at deopt.
            for mapping in original.virtual_mappings:
                if mapping is not None:
                    duplicate.virtual_mappings.append(
                        self._carry_mapping(mapping, state, needed))
            new_outer = duplicate
            new_chain.append(duplicate)
        innermost = new_chain[-1]
        # Snapshot every needed virtual object (transitively).
        snapshotted: Set[VirtualObjectNode] = set()
        worklist = list(needed)
        while worklist:
            virtual = worklist.pop()
            if virtual in snapshotted:
                continue
            snapshotted.add(virtual)
            obj_state = state.get_state(virtual)
            mapping = EscapeObjectStateNode(
                lock_count=obj_state.lock_count, virtual_object=virtual)
            self.effects.track_created(mapping)
            for entry in obj_state.entries:
                if isinstance(entry, VirtualObjectNode):
                    entry_state = state.get_state(entry)
                    if entry_state.is_virtual:
                        mapping.entries.append(entry)
                        worklist.append(entry)
                    else:
                        mapping.entries.append(
                            entry_state.materialized_value)
                else:
                    mapping.entries.append(self.resolve(entry))
            innermost.virtual_mappings.append(mapping)
        self.effects.set_state_input(site, slot, innermost)

    def _needs_rewrite(self, frame_state: FrameStateNode,
                       state: PEAState) -> bool:
        for list_name in ("locals_values", "stack_values", "locks"):
            for value in frame_state.input_list(list_name):
                resolved = self.resolve(value)
                if resolved is not value:
                    return True
                if state.get_alias(resolved) is not None:
                    return True
        # Entries of earlier-round snapshots may reference values this
        # round is virtualizing (e.g. a materialized allocation that is
        # being re-virtualized): they need re-resolution too.
        for mapping in frame_state.virtual_mappings:
            if mapping is None:
                continue
            for entry in mapping.entries:
                if entry is None or isinstance(entry, VirtualObjectNode):
                    continue
                resolved = self.resolve(entry)
                if resolved is not entry or \
                        state.get_alias(resolved) is not None:
                    return True
        return False

    def _carry_mapping(self, mapping: EscapeObjectStateNode,
                       state: PEAState,
                       needed: Dict[VirtualObjectNode, None]
                       ) -> EscapeObjectStateNode:
        """Preserve an earlier round's EscapeObjectState, re-resolving
        entries through the current allocation state (an entry that now
        aliases a tracked object becomes the new virtual object — and
        forces its snapshot — or the materialized value)."""
        new_entries: List[Optional[Node]] = []
        changed = False
        for entry in mapping.entries:
            if entry is None or isinstance(entry, VirtualObjectNode):
                new_entries.append(entry)
                continue
            value = self._state_value(entry, state, needed)
            changed = changed or value is not entry
            new_entries.append(value)
        if not changed:
            return mapping
        duplicate = EscapeObjectStateNode(
            lock_count=mapping.lock_count,
            virtual_object=mapping.virtual_object)
        self.effects.track_created(duplicate)
        duplicate.entries.extend(new_entries)
        return duplicate

    def _state_value(self, value: Optional[Node], state: PEAState,
                     needed: Dict[VirtualObjectNode, None]
                     ) -> Optional[Node]:
        if value is None:
            return None
        resolved = self.resolve(value)
        alias = state.get_alias(resolved)
        if alias is None:
            return resolved
        obj_state = state.get_state(alias)
        if obj_state.is_virtual:
            needed[alias] = None
            return alias
        return obj_state.materialized_value
