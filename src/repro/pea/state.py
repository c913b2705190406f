"""The flow-sensitive allocation state of Partial Escape Analysis.

Mirrors the paper's Listing 7: a map from allocation Ids
(:class:`~repro.ir.nodes.virtual.VirtualObjectNode`) to per-branch
:class:`ObjectState`s, plus an ``aliases`` map from IR value nodes to Ids.
An ObjectState is either *virtual* — entries and lock count known exactly
— or *escaped* — only the materialized value is known.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.node import Node
from ..ir.nodes import VirtualObjectNode


class ObjectState:
    """Per-branch knowledge about one allocation."""

    __slots__ = ("virtual_object", "entries", "lock_count",
                 "materialized_value")

    def __init__(self, virtual_object: VirtualObjectNode,
                 entries: Optional[List[Node]] = None, lock_count: int = 0,
                 materialized_value: Optional[Node] = None):
        self.virtual_object = virtual_object
        #: Entry values while virtual (a value node, or a
        #: VirtualObjectNode for a stored virtual object); None once
        #: escaped.
        self.entries = entries
        self.lock_count = lock_count
        #: The node producing the real object once escaped.
        self.materialized_value = materialized_value

    @property
    def is_virtual(self) -> bool:
        return self.entries is not None

    def copy(self) -> "ObjectState":
        return ObjectState(
            self.virtual_object,
            list(self.entries) if self.entries is not None else None,
            self.lock_count, self.materialized_value)

    def escape(self, materialized_value: Node):
        self.entries = None
        self.materialized_value = materialized_value

    def equivalent(self, other: "ObjectState") -> bool:
        return (self.virtual_object is other.virtual_object
                and self.lock_count == other.lock_count
                and self.is_virtual == other.is_virtual
                and self.materialized_value is other.materialized_value
                and (self.entries is None
                     or all(a is b for a, b in zip(self.entries,
                                                   other.entries))))

    def __repr__(self):
        if self.is_virtual:
            entries = ", ".join(str(getattr(e, "id", e))
                                for e in self.entries)
            return (f"v[{self.virtual_object}] locks={self.lock_count} "
                    f"({entries})")
        return f"e[{self.virtual_object}] -> {self.materialized_value!r}"


class PEAState:
    """The state propagated through control flow (paper Listing 7)."""

    __slots__ = ("object_states", "aliases")

    def __init__(self,
                 object_states: Optional[Dict[VirtualObjectNode,
                                              ObjectState]] = None,
                 aliases: Optional[Dict[Node, VirtualObjectNode]] = None):
        self.object_states = object_states if object_states is not None \
            else {}
        self.aliases = aliases if aliases is not None else {}

    def copy(self) -> "PEAState":
        return PEAState(
            {vo: st.copy() for vo, st in self.object_states.items()},
            dict(self.aliases))

    # -- alias queries -----------------------------------------------------

    def get_alias(self, node: Optional[Node]
                  ) -> Optional[VirtualObjectNode]:
        """The allocation Id *node* refers to, if tracked."""
        if node is None:
            return None
        if isinstance(node, VirtualObjectNode):
            return node if node in self.object_states else None
        return self.aliases.get(node)

    def add_alias(self, node: Node, virtual_object: VirtualObjectNode):
        self.aliases[node] = virtual_object

    def get_state(self, virtual_object: VirtualObjectNode) -> ObjectState:
        return self.object_states[virtual_object]

    def add_object(self, state: ObjectState):
        self.object_states[state.virtual_object] = state

    # -- comparison (loop fixed point) ------------------------------------------

    def equivalent(self, other: "PEAState") -> bool:
        if self.object_states.keys() != other.object_states.keys():
            return False
        for vo, state in self.object_states.items():
            if not state.equivalent(other.object_states[vo]):
                return False
        return self.aliases == other.aliases

    def __repr__(self):
        return (f"PEAState({list(self.object_states.values())}, "
                f"aliases={{{len(self.aliases)}}})")
