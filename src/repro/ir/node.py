"""Sea-of-nodes IR: the node base class and edge machinery.

The IR follows Graal IR's structure (Duboscq et al., APPLC 2013), which the
paper's Figures 2-8 use:

- **Fixed nodes** have a position in control flow.  Most are
  "fixed-with-next" (one successor); control splits (If) have several;
  control sinks (Return, Deoptimize) have none; Ends feed Merges.
- **Floating nodes** (constants, parameters, arithmetic, phis, frame
  states) have no control position and hang off their users purely by
  data edges.

Every node tracks its *usages* (the nodes that have it as an input), so
optimizations can replace a node everywhere in O(usages).  Input slots are
declared per class via ``_input_slots`` / ``_input_lists`` and
``_successor_slots``; ``__init_subclass__`` flattens the declarations of
the whole MRO once into the class's :class:`EdgeLayout`, which every edge
walk reads, and generates properties that keep the usage/predecessor
bookkeeping consistent on every assignment.  Every edge change is also
counted in the graph's ``edit_count``, so a verifier can tell an
unchanged graph from an edited one.

One deliberate deviation from Graal, anticipated by the paper's Section 7:
all *virtualizable* nodes (allocation, field access, monitors, reference
equality, type checks) are fixed in control flow, so Partial Escape
Analysis can run without a schedule.  The paper notes that "by adding
simple invariants to the Graal IR ... the analysis could be performed
without a schedule" — this IR adopts that invariant.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple


class IRError(Exception):
    """A structural error in the graph."""


class NodeInputList:
    """A variable-arity input list that maintains usage bookkeeping."""

    __slots__ = ("_owner", "_items")

    def __init__(self, owner: "Node"):
        self._owner = owner
        self._items: List[Optional["Node"]] = []

    # -- list protocol -----------------------------------------------------

    def __len__(self):
        return len(self._items)

    def __iter__(self) -> Iterator[Optional["Node"]]:
        return iter(self._items)

    def __getitem__(self, index):
        return self._items[index]

    def __setitem__(self, index, value: Optional["Node"]):
        old = self._items[index]
        if old is value:
            return
        if old is not None:
            old._remove_usage(self._owner)
        self._items[index] = value
        if value is not None:
            value._add_usage(self._owner)
        self._owner._edited()

    def append(self, value: Optional["Node"]):
        self._items.append(value)
        if value is not None:
            value._add_usage(self._owner)
        self._owner._edited()

    def extend(self, values):
        for value in values:
            self.append(value)

    def insert(self, index, value: Optional["Node"]):
        self._items.insert(index, value)
        if value is not None:
            value._add_usage(self._owner)
        self._owner._edited()

    def pop(self, index=-1):
        value = self._items.pop(index)
        if value is not None:
            value._remove_usage(self._owner)
        self._owner._edited()
        return value

    def remove(self, value: "Node"):
        self._items.remove(value)
        if value is not None:
            value._remove_usage(self._owner)
        self._owner._edited()

    def index(self, value) -> int:
        return self._items.index(value)

    def clear(self):
        while self._items:
            self.pop()

    def set_all(self, values):
        self.clear()
        self.extend(values)

    def snapshot(self) -> List[Optional["Node"]]:
        return list(self._items)

    def __repr__(self):
        return f"NodeInputList({self._items!r})"


def _make_input_property(name: str):
    def getter(self: "Node"):
        return self._ins.get(name)

    def setter(self: "Node", value: Optional["Node"]):
        old = self._ins.get(name)
        if old is value:
            return
        if old is not None:
            old._remove_usage(self)
        self._ins[name] = value
        if value is not None:
            value._add_usage(self)
        graph = self.graph  # Node._edited, inlined on the hottest edit
        if graph is not None:
            graph.edit_count += 1

    return property(getter, setter)


def _make_successor_property(name: str):
    def getter(self: "Node"):
        return self._succs.get(name)

    def setter(self: "Node", value: Optional["Node"]):
        old = self._succs.get(name)
        if old is value:
            return
        if old is not None and old.predecessor is self:
            old.clear_predecessor()
        self._succs[name] = value
        self._edited()
        if value is not None and value.predecessor is not self:
            if value.predecessor is not None:
                raise IRError(
                    f"{value} already has predecessor "
                    f"{value.predecessor}; cannot attach to {self}")
            value.predecessor = self
            value._edited()

    return property(getter, setter)


class EdgeLayout(NamedTuple):
    """A node class's edges: the slots its MRO declares, base class first
    (this IR's analogue of the edge offsets in Graal's ``NodeClass``)."""

    #: Names of fixed-arity data inputs.
    input_slots: Tuple[str, ...]
    #: Names of variable-arity data input lists.
    input_lists: Tuple[str, ...]
    #: Names of control-flow successor slots.
    successor_slots: Tuple[str, ...]

    @classmethod
    def of(cls, node_class: type) -> "EdgeLayout":
        """Flatten the declarations of every class in *node_class*'s MRO,
        plain mixins such as ``StateSplitMixin`` included."""
        def flat(attribute: str) -> Tuple[str, ...]:
            return tuple(name for klass in reversed(node_class.__mro__)
                         for name in klass.__dict__.get(attribute, ()))

        return cls(flat("_input_slots"), flat("_input_lists"),
                   flat("_successor_slots"))


class Node:
    """Base class of all IR nodes."""

    #: Names of fixed-arity data inputs this class adds.
    _input_slots: Tuple[str, ...] = ()
    #: Names of variable-arity data input lists this class adds.
    _input_lists: Tuple[str, ...] = ()
    #: Names of control-flow successor slots this class adds.
    _successor_slots: Tuple[str, ...] = ()
    #: Every edge of the class, inherited ones included; computed once per
    #: class by ``__init_subclass__``.
    _edges: EdgeLayout = EdgeLayout((), (), ())
    #: True for nodes with a control-flow position.
    is_fixed: bool = False
    #: True for nodes PEA can virtualize (see module docstring).
    is_virtualizable: bool = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._edges = edges = EdgeLayout.of(cls)
        # Generate accessor properties for every slot that does not have
        # one yet.
        for name in edges.input_slots:
            if not isinstance(getattr(cls, name, None), property):
                setattr(cls, name, _make_input_property(name))
        for name in edges.successor_slots:
            if not isinstance(getattr(cls, name, None), property):
                setattr(cls, name, _make_successor_property(name))

    def __init__(self, **inputs):
        edges = self._edges
        self.graph: Optional[Any] = None
        self.id: int = -1
        self._ins: Dict[str, Optional[Node]] = {}
        self._in_lists: Dict[str, NodeInputList] = {
            name: NodeInputList(self) for name in edges.input_lists}
        self._succs: Dict[str, Optional[Node]] = {}
        #: usage -> reference count (a user may reference us twice).
        self._usages: Dict[Node, int] = {}
        self.predecessor: Optional[Node] = None
        for name, value in inputs.items():
            if name in edges.input_slots:
                setattr(self, name, value)
            elif name in edges.input_lists:
                self._in_lists[name].extend(value)
            else:
                raise TypeError(f"{type(self).__name__} has no input "
                                f"{name!r}")

    # -- edit counting ----------------------------------------------------------

    def _edited(self):
        """Count a change to this node's edges in its graph's
        :attr:`~repro.ir.graph.Graph.edit_count`."""
        graph = self.graph
        if graph is not None:
            graph.edit_count += 1

    # -- usages -----------------------------------------------------------------

    def _add_usage(self, user: "Node"):
        self._usages[user] = self._usages.get(user, 0) + 1
        # A user in this node's graph counts the edit itself; one outside
        # it (a detached node PEA is building) cannot.
        graph = self.graph
        if graph is not None and user.graph is not graph:
            graph.edit_count += 1

    def _remove_usage(self, user: "Node"):
        count = self._usages.get(user, 0)
        if count <= 1:
            self._usages.pop(user, None)
        else:
            self._usages[user] = count - 1
        graph = self.graph
        if graph is not None and user.graph is not graph:
            graph.edit_count += 1

    @property
    def usages(self) -> List["Node"]:
        """The nodes using this node as an input (deterministic order)."""
        return list(self._usages.keys())

    def usage_count(self) -> int:
        return sum(self._usages.values())

    def has_no_usages(self) -> bool:
        return not self._usages

    # -- inputs ------------------------------------------------------------------

    def input_list(self, name: str) -> NodeInputList:
        return self._in_lists[name]

    def inputs(self) -> Iterator["Node"]:
        """All non-None data inputs, slots first then lists."""
        edges = self._edges
        for name in edges.input_slots:
            value = self._ins.get(name)
            if value is not None:
                yield value
        for name in edges.input_lists:
            for value in self._in_lists[name]._items:
                if value is not None:
                    yield value

    def named_inputs(self) -> Iterator[Tuple[str, "Node"]]:
        edges = self._edges
        for name in edges.input_slots:
            value = self._ins.get(name)
            if value is not None:
                yield name, value
        for name in edges.input_lists:
            for index, value in enumerate(self._in_lists[name]._items):
                if value is not None:
                    yield f"{name}[{index}]", value

    def replace_input(self, old: "Node", new: Optional["Node"]):
        """Replace every occurrence of *old* in this node's inputs."""
        edges = self._edges
        for name in edges.input_slots:
            if self._ins.get(name) is old:
                setattr(self, name, new)
        for name in edges.input_lists:
            node_list = self._in_lists[name]
            for index, value in enumerate(node_list):
                if value is old:
                    node_list[index] = new

    def clear_inputs(self):
        edges = self._edges
        for name in edges.input_slots:
            setattr(self, name, None)
        for name in edges.input_lists:
            self._in_lists[name].clear()

    # -- successors --------------------------------------------------------------

    def successors(self) -> Iterator["Node"]:
        for name in self._edges.successor_slots:
            value = self._succs.get(name)
            if value is not None:
                yield value

    def clear_successors(self):
        for name in self._edges.successor_slots:
            setattr(self, name, None)

    def clear_predecessor(self):
        """Drop this node's ``predecessor`` link alone, for surgery that
        relinks the predecessor's successor slot itself."""
        if self.predecessor is not None:
            self.predecessor = None
            self._edited()

    # -- graph-wide edits -----------------------------------------------------------

    def replace_at_usages(self, replacement: Optional["Node"]):
        """Replace this node with *replacement* at every usage."""
        for user in self.usages:
            user.replace_input(self, replacement)

    def safe_delete(self):
        """Remove this node from the graph; it must be unused and
        (if fixed) already unlinked from control flow."""
        if self._usages:
            raise IRError(f"deleting {self} which still has usages "
                          f"{self.usages}")
        if self.predecessor is not None:
            raise IRError(f"deleting {self} which still has a predecessor")
        self.clear_inputs()
        self.clear_successors()
        if self.graph is not None:
            self.graph._unregister(self)

    # -- display ---------------------------------------------------------------------

    def node_name(self) -> str:
        name = type(self).__name__
        return name[:-4] if name.endswith("Node") else name

    def extra_repr(self) -> str:
        """Subclass hook: extra text for dumps."""
        return ""

    def __repr__(self):
        extra = self.extra_repr()
        extra = f" {extra}" if extra else ""
        return f"{self.id}|{self.node_name()}{extra}"

    # Nodes are identity-hashed; never define __eq__.
    __hash__ = object.__hash__


class FloatingNode(Node):
    """A node without a control-flow position."""

    is_fixed = False


class FixedNode(Node):
    """A node with a control-flow position."""

    is_fixed = True


class FixedWithNextNode(FixedNode):
    """A fixed node with exactly one successor, named ``next``."""

    _successor_slots = ("next",)


class ControlSinkNode(FixedNode):
    """A fixed node that ends control flow (no successors)."""


class ControlSplitNode(FixedNode):
    """A fixed node with multiple successors."""
