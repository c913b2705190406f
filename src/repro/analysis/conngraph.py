"""Connection-graph escape analysis — the repo's one flow-insensitive
escape analysis.

This is the CoreCLR-``objectalloc`` style analysis: build a *connection
graph* whose directed edges ``u -> v`` mean "if ``u`` escapes, ``v``
escapes", seed *escape roots* (stores to statics, returned values,
arguments to unmodeled calls, references from node categories we do not
model) and walk the edges from the roots.  Allocations the walk never
reaches never escape and are eligible for stack allocation and lock
elision.

The graph has two modes:

* **Directed** (the default) keeps the store edge one-way
  (``container -> content``): an escaping *content* never taints its
  otherwise local container.  This drives the ``conngraph`` tier's lock
  elision and :class:`repro.opt.stack_allocation.StackAllocationPhase`.
* **Symmetric** (``symmetric=True``) adds every edge both ways, so
  escape marks whole connected components — exactly Kotzmann &
  Mössenböck's *equi-escape sets*, the HotSpot-style comparator of the
  paper's Section 6.2 (:class:`repro.pea.equi_escape.EquiEscapePhase`)
  and the basis of the dead-store lint.  Every symmetric approval is
  also a directed approval.

Both are strictly cheaper than :class:`repro.pea.PartialEscapePhase` —
flow-insensitive, no virtual-object state, no materialization, a
single linear pass plus one walk from the roots — which makes the
directed mode the right tier for cold code and for the compile
service's latency budget.

References from frame states and deoptimize nodes do **not** escape
(they are rematerialized on deopt — Kotzmann & Mössenböck's insight,
which the paper's PEA builds on), and there are no thrown exceptions in
the language yet, so "thrown" roots reduce to the deopt case.
Interprocedural precision comes from the escape summaries
(:mod:`repro.analysis.summaries`): a summarized callee contributes
``flows_to``/``returned`` edges at the call site instead of a
worst-case escape root.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..bytecode.classfile import Program
from ..ir.graph import Graph
from ..ir.node import FixedWithNextNode, Node
from ..ir.nodes import (ArrayLengthNode, BeginNode, ConstantNode,
                        DeoptimizeNode, EscapeObjectStateNode,
                        FixedGuardNode, FrameStateNode,
                        IfNode, InstanceOfNode, InvokeNode, IsNullNode,
                        LoadFieldNode, LoadIndexedNode, LoadStaticNode,
                        MonitorEnterNode, MonitorExitNode, NewArrayNode,
                        NewInstanceNode, PhiNode, RefEqualsNode,
                        ReturnNode, StoreFieldNode, StoreIndexedNode,
                        StoreStaticNode)
from ..opt.phase import Phase

#: Nodes whose stored contents the graph follows: allocations, and phis
#: (which may carry them; a phi of unknown provenance is itself a root).
_CONTAINERS = (NewInstanceNode, NewArrayNode, PhiNode)


class ConnectionGraph:
    """One method's connection graph.

    ``build()`` walks the IR once collecting escape edges and roots;
    ``analyze()`` walks the edges from the roots, returning the set of
    allocation nodes that never escape.
    """

    #: Node types whose *reference* inputs do not make an object escape:
    #: pure reads, identity tests, monitors, frame states, guards.  An
    #: ``EscapeObjectStateNode`` is a frame-state appendage — the deopt
    #: snapshot of a still-virtual PEA object; a reference from one is
    #: no more an escape than a reference from the frame state itself,
    #: and treating it as unmodeled would root every allocation PEA
    #: materialized next to a surviving virtual object.
    _SAFE_USERS = (LoadFieldNode, ArrayLengthNode, RefEqualsNode,
                   IsNullNode, InstanceOfNode, MonitorEnterNode,
                   MonitorExitNode, FrameStateNode,
                   EscapeObjectStateNode, FixedGuardNode,
                   IfNode, DeoptimizeNode, LoadIndexedNode)
    #: Node types that are modeled explicitly by the edge builder.
    _MODELED_USERS = (PhiNode, StoreFieldNode, StoreIndexedNode,
                      StoreStaticNode, ReturnNode, InvokeNode)

    def __init__(self, graph: Graph, program: Optional[Program] = None,
                 summaries=None, symmetric: bool = False):
        self.graph = graph
        self.program = program
        self.summaries = summaries
        #: Add every edge both ways: the equi-escape-sets mode.
        self.symmetric = symmetric
        #: ``edges[u]`` = nodes that escape whenever ``u`` escapes.
        self.edges: Dict[Node, List[Node]] = {}
        self.roots: Set[Node] = set()
        self.allocations: List[Node] = []
        #: invoke -> the tracked arguments its result aliases
        #: (``returned`` summaries).
        self._returned: Dict[Node, List[Node]] = {}
        self._built = False

    # -- construction ---------------------------------------------------

    def _add_edge(self, source: Node, target: Node,
                  both_ways: bool = False):
        if source is target:
            return
        self.edges.setdefault(source, []).append(target)
        if both_ways or self.symmetric:
            self.edges.setdefault(target, []).append(source)

    def _add_root(self, node: Optional[Node]):
        if node is None or isinstance(node, ConstantNode):
            return
        self.roots.add(node)

    def build(self) -> "ConnectionGraph":
        if self._built:
            return self
        self._built = True
        for node in self.graph.nodes():
            if isinstance(node, (NewInstanceNode, NewArrayNode)):
                self.allocations.append(node)
            elif isinstance(node, PhiNode):
                # A phi is an alias of each of its inputs; escape flows
                # both ways so a phi group behaves exactly like PEA's
                # merge-point materialization rule (if any member
                # escapes, every allocation flowing into the phi does).
                for value in node.values:
                    if self._is_tracked(value):
                        self._add_edge(node, value, both_ways=True)
            elif isinstance(node, StoreFieldNode):
                if self._is_reference_field(node):
                    self._store_edge(node.object, node.value)
            elif isinstance(node, StoreIndexedNode):
                if self._is_reference_array(node.array):
                    self._store_edge(node.array, node.value)
            elif isinstance(node, (StoreStaticNode, ReturnNode)):
                self._add_root(node.value)
            elif isinstance(node, InvokeNode):
                self._process_invoke(node)
        # References from node categories the builder does not model
        # escape conservatively, from allocations and from the call
        # results that alias them alike.
        aliases = [node for node, returned in self._returned.items()
                   if returned]
        for tracked in self.allocations + aliases:
            for user in tracked.usages:
                if not isinstance(user,
                                  self._SAFE_USERS + self._MODELED_USERS):
                    self._add_root(tracked)
        # Phis rooted (partly) in references of unknown provenance
        # (parameters, loads, call results) taint the phi — and through
        # the bidirectional phi edges, its members.
        for node in self.graph.nodes():
            if not isinstance(node, PhiNode):
                continue
            for value in node.values:
                if value is None or value is node:
                    continue
                if not isinstance(value, _CONTAINERS + (ConstantNode,)):
                    if self._holds_reference(value):
                        self._add_root(node)
        return self

    def _store_edge(self, container: Optional[Node],
                    value: Optional[Node]):
        """A store is the one-way edge: content escapes if the
        container does — never the other way around."""
        if not self._is_tracked(value):
            return
        if isinstance(container, _CONTAINERS):
            self._add_edge(container, value)
        else:
            # Stored into a container outside our tracking (parameter,
            # load, call result): the value is reachable from unknown
            # code.  A call result stays untracked as a container even
            # when it aliases an argument: ``returned`` only says the
            # argument *may* be the result, which may as well be an
            # object the callee loaded from a static.
            self._add_root(value)

    def _summary(self, node: InvokeNode):
        """The callee's escape summary, or ``None`` when there is no
        usable one (no summaries, unresolved, or top)."""
        if self.summaries is None:
            return None
        summary = self.summaries.summary_for_call(node.target)
        return None if summary is None or summary.is_top else summary

    def _returned_arguments(self, node: InvokeNode) -> List[Node]:
        """The tracked arguments the call result may alias."""
        returned = self._returned.get(node)
        if returned is None:
            summary = self._summary(node)
            returned = [] if summary is None else [
                argument for position, argument
                in enumerate(node.arguments)
                if summary.param(position).returned
                and not summary.param(position).captured
                and self._is_tracked(argument)]
            self._returned[node] = returned
        return returned

    def _process_invoke(self, node: InvokeNode):
        summary = self._summary(node)
        if summary is None:
            for argument in node.arguments:
                self._add_root(argument)
            return
        for position, argument in enumerate(node.arguments):
            if argument is None or isinstance(argument, ConstantNode):
                continue
            param = summary.param(position)
            if param.captured:
                self._add_root(argument)
                continue
            for target in param.flows_to:
                # Stored into the target parameter: escape flows from
                # that container to this argument.
                self._store_edge(node.arguments[target]
                                 if target < len(node.arguments)
                                 else None, argument)
        for argument in self._returned_arguments(node):
            # The call result aliases the argument.
            self._add_edge(node, argument)

    # -- propagation ----------------------------------------------------

    def escaped_nodes(self) -> Set[Node]:
        """All nodes reachable from an escape root along the edges."""
        self.build()
        escaped = set(self.roots)
        worklist = list(self.roots)
        while worklist:
            for successor in self.edges.get(worklist.pop(), ()):
                if successor not in escaped:
                    escaped.add(successor)
                    worklist.append(successor)
        return escaped

    def analyze(self) -> Set[Node]:
        """The allocations that never escape."""
        escaped = self.escaped_nodes()
        return {allocation for allocation in self.allocations
                if allocation not in escaped}

    # -- helpers --------------------------------------------------------

    def _is_tracked(self, node: Optional[Node]) -> bool:
        """Allocations, phis and call results that alias a tracked
        argument join the graph when stored or passed; primitives and
        foreign references neither escape a container nor taint it."""
        if isinstance(node, InvokeNode):
            return bool(self._returned_arguments(node))
        return isinstance(node, _CONTAINERS)

    def _is_reference_field(self, store: StoreFieldNode) -> bool:
        if self.program is None:
            return True
        try:
            jfield = self.program.resolve_field(store.field.class_name,
                                                store.field.field_name)
        except Exception:  # noqa: BLE001 - unresolved: stay conservative
            return True
        return jfield.type_name not in ("int", "boolean")

    @staticmethod
    def _is_reference_array(array: Optional[Node]) -> bool:
        if isinstance(array, NewArrayNode):
            return array.elem_type not in ("int", "boolean")
        return True

    @staticmethod
    def _holds_reference(node: Node) -> bool:
        return isinstance(node, (LoadFieldNode, LoadIndexedNode,
                                 LoadStaticNode, InvokeNode)) or \
            type(node).__name__ == "ParameterNode"


#: Node types that may appear between an elidable monitor enter/exit
#: pair.  The critical exclusions are anything that can *deoptimize*
#: (FixedGuardNode, DeoptimizeNode) or call out (InvokeNode): after a
#: deopt the interpreter would execute the bytecode ``monitorexit`` on
#: an object whose ``monitorenter`` was elided and trap with
#: ``IllegalMonitorState``.  PEA avoids this by rematerializing the
#: lock depth with the virtual object; this cheap tier simply refuses
#: the pair.
_ELISION_SAFE_BETWEEN = (LoadFieldNode, StoreFieldNode, LoadStaticNode,
                         StoreStaticNode, LoadIndexedNode,
                         StoreIndexedNode, ArrayLengthNode,
                         NewInstanceNode, NewArrayNode, BeginNode,
                         MonitorEnterNode, MonitorExitNode)

#: Bound on the straight-line walk between enter and exit; keeps the
#: phase linear on pathological graphs.
_ELISION_WALK_LIMIT = 64


class ConnGraphLockElisionPhase(Phase):
    """Lock elision for the connection-graph tier.

    Monitors on allocations the connection graph proves non-escaping
    are thread-local, so the enter/exit pair is a no-op.  Without PEA's
    virtual objects there is no lock-depth rematerialization on deopt,
    so only *straight-line, deopt-free* pairs are elided: the walk from
    ``monitorenter`` along ``next`` must reach the matching
    ``monitorexit`` through side-effect-only nodes (no guards, no
    deopts, no calls, no control flow).
    """

    name = "conngraph-lock-elision"

    def __init__(self, program: Program, summaries=None):
        self.program = program
        self.summaries = summaries
        #: :class:`repro.pea.partial_escape.PEAResult` of the last run.
        self.last_result = None

    def run(self, graph: Graph) -> bool:
        # Imported lazily: repro.pea imports repro.analysis (the
        # summaries/diagnostics modules) during package init.
        from ..pea.partial_escape import PEAResult
        approved = ConnectionGraph(graph, self.program,
                                   summaries=self.summaries).analyze()
        removed_pairs = 0
        if approved:
            for enter in [n for n in graph.nodes()
                          if isinstance(n, MonitorEnterNode)]:
                if enter.object not in approved:
                    continue
                exit_node = self._straight_line_exit(enter)
                if exit_node is None:
                    continue
                graph.remove_fixed(exit_node)
                graph.remove_fixed(enter)
                removed_pairs += 1
        if removed_pairs:
            graph.verify()
        self.last_result = PEAResult(
            removed_monitor_pairs=removed_pairs)
        return removed_pairs > 0

    @staticmethod
    def _straight_line_exit(enter: MonitorEnterNode
                            ) -> Optional[MonitorExitNode]:
        depth = 0
        node = enter.next
        for _ in range(_ELISION_WALK_LIMIT):
            if node is None:
                return None
            if isinstance(node, MonitorEnterNode) and \
                    node.object is enter.object:
                depth += 1
            elif isinstance(node, MonitorExitNode) and \
                    node.object is enter.object:
                if depth == 0:
                    return node
                depth -= 1
            if not isinstance(node, _ELISION_SAFE_BETWEEN):
                return None
            if not isinstance(node, FixedWithNextNode):
                return None
            node = node.next
        return None
