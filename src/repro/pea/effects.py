"""Deferred graph-mutation effects.

Partial Escape Analysis must not mutate the graph while it is still
iterating over it — loop bodies are processed repeatedly until the state
reaches a fixed point (Section 5.4), and the effects of abandoned
iterations have to be thrown away.  So the analysis records *effects*
(closures over already-created, detached replacement nodes) and applies
them once the whole analysis has succeeded, exactly like Graal's
EffectsPhase.

``mark()``/``rollback()`` implement the loop retry: rollback truncates
the effect list and disconnects any detached nodes created since the
mark (so their input/usage bookkeeping doesn't leak into the live graph).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..ir.graph import Graph
from ..ir.node import FixedWithNextNode, Node


class Effects:
    """An ordered log of graph mutations plus deferred deletions."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._items: List[Tuple[str, Callable[[], None]]] = []
        self._deletions: List[Node] = []
        self._created: List[Node] = []

    # -- bookkeeping for loop retries ----------------------------------------

    def mark(self) -> Tuple[int, int, int]:
        return (len(self._items), len(self._deletions),
                len(self._created))

    def rollback(self, mark: Tuple[int, int, int]):
        items, deletions, created = mark
        del self._items[items:]
        del self._deletions[deletions:]
        for node in self._created[created:]:
            node.clear_inputs()
        del self._created[created:]

    def track_created(self, node: Node) -> Node:
        """Register a detached node so rollback can disconnect it."""
        self._created.append(node)
        return node

    # -- recording ---------------------------------------------------------------

    def add(self, description: str, action: Callable[[], None]):
        self._items.append((description, action))

    def delete_fixed(self, node: FixedWithNextNode):
        """Unlink *node* from control flow at apply time (the last step)."""
        self._deletions.append(node)

    def replace_at_usages(self, node: Node, replacement: Optional[Node]):
        self.add(f"replace {node!r} -> {replacement!r}",
                 lambda: node.replace_at_usages(
                     self._materialize_ref(replacement)))

    def _materialize_ref(self, replacement: Optional[Node]):
        if replacement is not None and replacement.graph is None:
            self.graph.add(replacement)
        return replacement

    def replace_input(self, user: Node, old: Node, new: Node):
        def action():
            if new.graph is None:
                self.graph.add(new)
            user.replace_input(old, new)
        self.add(f"input {old!r} -> {new!r} in {user!r}", action)

    def insert_fixed_before(self, anchor: Node,
                            node: FixedWithNextNode):
        self.add(f"insert {node!r} before {anchor!r}",
                 lambda: self.graph.insert_before(anchor, node))

    def set_state_input(self, user: Node, slot_name: str, state: Node):
        def action():
            if state.graph is None:
                self.graph.add(state)
            setattr(user, slot_name, state)
        self.add(f"state of {user!r} <- {state!r}", action)

    def set_phi_inputs(self, phi: Node, values: List[Node]):
        def action():
            if phi.graph is None:
                self.graph.add(phi)
            phi.values.set_all([self._materialize_ref(v) for v in values])
        self.add(f"phi {phi!r} inputs", action)

    # -- application ---------------------------------------------------------------

    def apply(self) -> int:
        """Apply all recorded effects; returns the number applied."""
        from ..opt.util import sweep_floating

        for description, action in self._items:
            action()
        # Orphaned frame states must release their references before the
        # deleted fixed nodes are checked for liveness.
        sweep_floating(self.graph)
        for node in self._deletions:
            if node.graph is not self.graph:
                continue  # already gone (e.g. inside a killed branch)
            self.graph.remove_fixed(node)
        sweep_floating(self.graph)
        return len(self._items) + len(self._deletions)

    def __len__(self):
        return len(self._items) + len(self._deletions)
