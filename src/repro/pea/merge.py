"""The MergeProcessor: combining allocation states at control-flow joins
(Section 5.3, Figure 6).

For every allocation Id surviving the alias-map intersection:

- all predecessors escaped  -> merged escaped; materialized values merge
  through a Phi if they differ (Figure 6 (b));
- mixed                      -> virtual predecessors materialize at their
  End node, then the escaped case applies;
- all virtual                -> entries merge value-wise; differing
  entries become Phis, and any virtual object feeding such a Phi is
  materialized first ("a virtual object needs to be materialized before
  it can serve as an input to a Phi node").

Existing Phis attached to the merge are examined as in Figure 6 (c): if
every input aliases the same Id the Phi itself becomes an alias of that
Id; otherwise tracked inputs are replaced by materialized values.

The whole process repeats until no further materializations happen.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..ir.node import Node
from ..ir.nodes import MergeNode, PhiNode, VirtualObjectNode
from .state import ObjectState, PEAState
from .virtualization import PEATool


class MergeProcessor:
    def __init__(self, tool: PEATool):
        self.tool = tool
        self.effects = tool.effects

    # -- entry point -------------------------------------------------------

    def merge(self, merge: MergeNode, pred_states: Sequence[PEAState],
              anchors: Sequence[Node]) -> PEAState:
        """Merge *pred_states* (ordered like *anchors*, the End nodes of
        the merge) into one consistent state."""
        # Materialization fixed point.
        while self._materialization_round(merge, pred_states, anchors):
            pass
        merged = self._build_state(merge, pred_states)
        self._process_existing_phis(merge, pred_states, merged)
        return merged

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _common_ids(pred_states: Sequence[PEAState]
                    ) -> List[VirtualObjectNode]:
        first = pred_states[0].object_states
        result = []
        for vo in first:
            if all(vo in ps.object_states for ps in pred_states[1:]):
                result.append(vo)
        return result

    def _materialization_round(self, merge, pred_states, anchors) -> bool:
        changed = False
        for vo in self._common_ids(pred_states):
            states = [ps.get_state(vo) for ps in pred_states]
            virtuals = [st.is_virtual for st in states]
            if all(virtuals):
                if len({st.lock_count for st in states}) > 1:
                    # Lock depths disagree: cannot stay virtual.
                    for ps, anchor in zip(pred_states, anchors):
                        self.tool.materialize(ps, vo, anchor)
                    changed = True
                    continue
                changed |= self._materialize_phi_inputs(
                    vo, states, pred_states, anchors)
            elif any(virtuals):
                # Mixed: materialize wherever still virtual.
                for ps, anchor, is_virtual in zip(pred_states, anchors,
                                                  virtuals):
                    if is_virtual:
                        self.tool.materialize(ps, vo, anchor)
                        changed = True
        # Existing phis may force materialization too.
        for phi in merge.phis():
            aliases = self._phi_input_aliases(phi, pred_states)
            if self._common_alias(aliases, pred_states) is not None:
                continue
            for index, alias in enumerate(aliases):
                if alias is None:
                    continue
                if pred_states[index].get_state(alias).is_virtual:
                    self.tool.materialize(pred_states[index], alias,
                                          anchors[index])
                    changed = True
        return changed

    def _materialize_phi_inputs(self, vo, states, pred_states,
                                anchors) -> bool:
        """Differing entries whose values include virtual objects force
        those (referenced) objects to materialize."""
        changed = False
        entry_count = len(states[0].entries)
        for index in range(entry_count):
            values = [st.entries[index] for st in states]
            first = values[0]
            if all(v is first for v in values):
                continue
            for pred_index, value in enumerate(values):
                if isinstance(value, VirtualObjectNode):
                    ps = pred_states[pred_index]
                    if ps.get_state(value).is_virtual:
                        self.tool.materialize(ps, value,
                                              anchors[pred_index])
                        changed = True
        return changed

    # -- merged-state construction ----------------------------------------------

    def _build_state(self, merge, pred_states) -> PEAState:
        merged = PEAState()
        for vo in self._common_ids(pred_states):
            states = [ps.get_state(vo) for ps in pred_states]
            if all(st.is_virtual for st in states):
                entries: List[Node] = []
                for index in range(len(states[0].entries)):
                    values = [st.entries[index] for st in states]
                    first = values[0]
                    if all(v is first for v in values):
                        entries.append(first)
                    else:
                        phi = PhiNode()
                        self.effects.track_created(phi)
                        inputs = [
                            self._entry_value(pred_states[i], values[i])
                            for i in range(len(values))]
                        self._register_phi(phi, merge, inputs)
                        entries.append(phi)
                merged.add_object(ObjectState(
                    vo, entries, states[0].lock_count))
            else:
                mats = [st.materialized_value for st in states]
                first = mats[0]
                if all(m is first for m in mats):
                    value: Node = first
                else:
                    phi = PhiNode()
                    self.effects.track_created(phi)
                    self._register_phi(phi, merge, mats)
                    value = phi
                merged.add_object(ObjectState(
                    vo, None, 0, materialized_value=value))
        # Alias intersection (Figure 6 (a)).
        for key, vo in pred_states[0].aliases.items():
            if vo not in merged.object_states:
                continue
            if all(ps.aliases.get(key) is vo for ps in pred_states[1:]):
                merged.add_alias(key, vo)
        return merged

    def _entry_value(self, pred_state: PEAState, value: Node) -> Node:
        """A phi input must be a runtime value: virtual references give
        way to their (already forced) materialized values."""
        if isinstance(value, VirtualObjectNode):
            return pred_state.get_state(value).materialized_value
        return value

    def _register_phi(self, phi: PhiNode, merge: MergeNode,
                      inputs: List[Node]):
        def action():
            graph = self.effects.graph
            if phi.graph is None:
                graph.add(phi)
            phi.merge = merge
            for value in inputs:
                if value is not None and value.graph is None:
                    graph.add(value)
            phi.values.set_all(inputs)
        self.effects.add(action)

    # -- Figure 6 (c): existing phis ---------------------------------------------

    def _phi_input_aliases(self, phi: PhiNode, pred_states
                           ) -> List[Optional[VirtualObjectNode]]:
        aliases = []
        for index, ps in enumerate(pred_states):
            value = self.tool.resolve(phi.values[index])
            aliases.append(ps.get_alias(value))
        return aliases

    @staticmethod
    def _common_alias(aliases, pred_states):
        first = aliases[0]
        if first is None or any(a is not first for a in aliases):
            return None
        return first

    def _process_existing_phis(self, merge, pred_states,
                               merged: PEAState):
        for phi in list(merge.phis()):
            aliases = self._phi_input_aliases(phi, pred_states)
            common = self._common_alias(aliases, pred_states)
            if common is not None and common in merged.object_states:
                merged_state = merged.get_state(common)
                merged.add_alias(phi, common)
                if not merged_state.is_virtual:
                    # Keep the phi executable: route the materialized
                    # values through it.
                    inputs = [
                        pred_states[i].get_state(common)
                        .materialized_value
                        for i in range(len(aliases))]
                    self.effects.set_phi_inputs(phi, inputs)
                continue
            # Mixed/None aliases: tracked inputs must become real values
            # (their objects were materialized in the rounds above).
            new_inputs = []
            changed = False
            for index, alias in enumerate(aliases):
                value = self.tool.resolve(phi.values[index])
                if alias is not None:
                    value = pred_states[index].get_state(
                        alias).materialized_value
                if value is not phi.values[index]:
                    changed = True
                new_inputs.append(value)
            if changed:
                self.effects.set_phi_inputs(phi, new_inputs)
