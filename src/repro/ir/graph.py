"""The IR graph container."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from .node import FixedNode, FixedWithNextNode, IRError, Node
from .nodes.control import EndNode, LoopEndNode, MergeNode, StartNode
from .nodes.values import ConstantNode, ParameterNode, PhiNode


class Graph:
    """A compilation unit's IR: a registry of nodes rooted at ``start``.

    Nodes may be created detached (``graph=None``) and registered later
    with :meth:`add`; this is how Partial Escape Analysis builds its
    deferred effects.
    """

    #: Moves on every change a verifier can see: an input or successor
    #: edge (with the predecessor link it moves), a usage of a
    #: registered node, a registration or an unregistration.  Equal
    #: counts mean an unchanged graph, so a passed check need not run
    #: again.  A class-level default, so graphs pickled before the
    #: counter existed still load.
    edit_count: int = 0

    def __init__(self, method=None):
        #: The JMethod this graph was built from (for frame states/dumps).
        self.method = method
        self._nodes: Dict[int, Node] = {}
        self._next_id = 0
        self._constants: Dict[Any, ConstantNode] = {}
        self.start: Optional[StartNode] = None
        self.parameters: List[ParameterNode] = []
        #: On-stack-replacement entry variant: the loop-header bci this
        #: graph enters at (``None`` for a normal method-entry graph).
        self.osr_entry_bci: Optional[int] = None
        #: For an OSR graph: the interpreter local slots (in parameter
        #: order) the entry expects as arguments — the runtime passes
        #: ``[locals_[slot] for slot in osr_local_slots]``.
        self.osr_local_slots: List[int] = []
        #: Deoptless continuation entry: number of operand-stack values
        #: the entry additionally expects *after* the local-slot
        #: parameters (a continuation may enter mid-expression, e.g. at
        #: a branch with its operands still on the stack).  The runtime
        #: passes ``[locals_[s] for s in osr_local_slots] + stack``.
        self.entry_stack_depth: int = 0

    # -- registration ---------------------------------------------------

    def add(self, node: Node) -> Node:
        """Register *node* (and, transitively, any detached inputs).

        Ids are assigned in pre-order: a node, then each of its detached
        inputs' subtrees from left to right.  The walk keeps an explicit
        stack, so arbitrarily deep detached chains register."""
        if node.graph is self:
            return node
        if node.graph is not None:
            raise IRError(f"{node} already belongs to another graph")
        self.edit_count += 1
        stack = [node]
        while stack:
            current = stack.pop()
            if current.graph is self:
                continue  # shared input reached again through a sibling
            current.graph = self
            current.id = self._next_id
            self._next_id += 1
            self._nodes[current.id] = current
            detached = [inp for inp in current.inputs() if inp.graph is None]
            stack.extend(reversed(detached))
        return node

    def _unregister(self, node: Node):
        self._nodes.pop(node.id, None)
        node.graph = None
        self.edit_count += 1

    def adopt(self, node: Node) -> Node:
        """Move *node* from another graph into this one (inlining)."""
        if node.graph is self:
            return node
        if node.graph is not None:
            node.graph._unregister(node)
        node.graph = None
        return self.add(node)

    def nodes(self) -> Iterator[Node]:
        """All registered nodes in id order (stable)."""
        return iter(list(self._nodes.values()))

    def nodes_of(self, *types) -> Iterator[Node]:
        for node in self.nodes():
            if isinstance(node, types):
                yield node

    def node_count(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Node) -> bool:
        return node.graph is self

    # -- factories ---------------------------------------------------------

    def constant(self, value) -> ConstantNode:
        """The unique ConstantNode for *value* (constants are GVN'd at
        creation)."""
        key = (type(value).__name__, value)
        existing = self._constants.get(key)
        if existing is not None and existing.graph is self:
            return existing
        node = self.add(ConstantNode(value))
        self._constants[key] = node
        return node

    @property
    def null(self) -> ConstantNode:
        return self.constant(None)

    # -- fixed-node surgery ----------------------------------------------------

    def insert_before(self, anchor: FixedNode, node: FixedWithNextNode):
        """Splice *node* into control flow immediately before *anchor*."""
        self.add(node)
        predecessor = anchor.predecessor
        if predecessor is None:
            raise IRError(f"{anchor} has no predecessor")
        self._replace_successor(predecessor, anchor, node)
        node.next = anchor

    @staticmethod
    def _replace_successor(predecessor: Node, old: Node, new: Node):
        for name in predecessor._edges.successor_slots:
            if predecessor._succs.get(name) is old:
                setattr(predecessor, name, new)
                return
        raise IRError(f"{old} is not a successor of {predecessor}")

    def remove_fixed(self, node: FixedWithNextNode):
        """Unlink a fixed-with-next node from control flow and delete it.

        The node must have no remaining (value) usages.
        """
        successor = node.next
        predecessor = node.predecessor
        node.next = None
        if predecessor is not None:
            self._replace_successor(predecessor, node, successor)
        node.replace_at_usages(None)  # only frame states may linger
        node.safe_delete()

    def replace_fixed(self, node: FixedWithNextNode, replacement: Node):
        """Replace a fixed node's value with *replacement* at all usages,
        then unlink and delete it."""
        node.replace_at_usages(replacement)
        self.remove_fixed(node)

    # -- verification -------------------------------------------------------------

    def verify(self):
        """Check structural invariants; raises IRError on violation.

        Runs between every compiler phase, so the edge checks read each
        node's slots through its class's edge layout directly."""
        registered = self._nodes
        for node in self.nodes():
            if registered.get(node.id) is not node:
                raise IRError(f"{node} broken registration")
            edges = node._edges
            ins = node._ins
            for name in edges.input_slots:
                inp = ins.get(name)
                if inp is not None and (inp.graph is not self
                                        or node not in inp._usages):
                    self._input_error(node, inp)
            for name in edges.input_lists:
                for inp in node._in_lists[name]._items:
                    if inp is not None and (inp.graph is not self
                                            or node not in inp._usages):
                        self._input_error(node, inp)
            succs = node._succs
            for name in edges.successor_slots:
                succ = succs.get(name)
                if succ is None:
                    continue
                if succ.graph is not self:
                    raise IRError(
                        f"{node} has unregistered successor {succ}")
                if succ.predecessor is not node:
                    raise IRError(
                        f"{succ}.predecessor is {succ.predecessor}, "
                        f"expected {node}")
            if isinstance(node, MergeNode):
                arity = node.phi_input_count()
                for phi in node.phis():
                    if len(phi.values) != arity:
                        raise IRError(
                            f"{phi} has {len(phi.values)} inputs, merge "
                            f"{node} expects {arity}")
                for end in node.ends:
                    if not isinstance(end, EndNode):
                        raise IRError(f"{node} end {end} is not an End")
            if isinstance(node, PhiNode):
                if node.merge is None or node.merge.graph is not self:
                    raise IRError(f"{phi_desc(node)} has no merge")
            if isinstance(node, FixedWithNextNode):
                if node.next is None and node.graph is self:
                    raise IRError(f"{node} has no next")
        if self.start is not None:
            self._verify_reachability()

    def _input_error(self, node: Node, inp: Node):
        if inp.graph is not self:
            raise IRError(f"{node} has unregistered input {inp}")
        raise IRError(f"{node} missing from usages of its input {inp}")

    def _verify_reachability(self):
        """Every fixed node reachable from start must be registered and
        form a well-formed control-flow graph."""
        seen = set()
        worklist: List[Node] = [self.start]
        while worklist:
            node = worklist.pop()
            if node in seen:
                continue
            seen.add(node)
            if node.graph is not self:
                raise IRError(f"reachable node {node} not registered")
            succs = node._succs
            for name in node._edges.successor_slots:
                succ = succs.get(name)
                if succ is not None:
                    worklist.append(succ)
            if isinstance(node, EndNode):
                merge = node.merge()
                if merge is None:
                    raise IRError(f"{node} feeds no merge")
                worklist.append(merge)
            if isinstance(node, LoopEndNode):
                if node.loop_begin is None:
                    raise IRError(f"{node} has no loop begin")

    # -- dump helper --------------------------------------------------------

    def __repr__(self):
        name = self.method.qualified_name if self.method else "?"
        return f"<Graph {name}: {self.node_count()} nodes>"


def phi_desc(phi: PhiNode) -> str:
    return repr(phi)
