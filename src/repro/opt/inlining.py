"""Inlining.

Replaces InvokeNodes by the callee's graph.  The policy is Graal-like but
simple: inline static/special calls and *monomorphic* virtual calls
(no loaded subclass overrides the resolved target — class hierarchy
analysis over our closed world), subject to callee-size, total-size and
depth budgets.

Mechanics worth noting:

- the callee's frame states get the invoke's ``state_after`` as their
  outer state, producing the FrameState chains of Section 2;
- a synchronized callee's monitor enter/exit nodes come with its graph
  (the graph builder inserts them), reproducing the paper's Listing 2;
- multiple returns merge through a new MergeNode + PhiNode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..bytecode.classfile import JMethod, Program
from ..bytecode.interpreter import Profile
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.nodes import (EndNode, FrameStateNode, InvokeNode, MergeNode,
                        PhiNode, ReturnNode)
from .phase import Phase


@dataclass
class InliningPolicy:
    """Budgets controlling the inliner."""

    #: Max callee bytecode size eligible for inlining.
    max_callee_size: int = 80
    #: Smaller limit for deeper call chains.
    max_callee_size_deep: int = 40
    #: Max inlining depth.
    max_depth: int = 9
    #: Stop growing the caller graph beyond this many nodes.
    max_graph_size: int = 4000
    #: Never inline recursive calls (any cycle through the chain).
    allow_recursive: bool = False


class InliningPhase(Phase):
    name = "inlining"

    def __init__(self, program: Program,
                 policy: Optional[InliningPolicy] = None,
                 profile: Optional[Profile] = None,
                 speculate_branches: bool = False,
                 speculation_min_samples: int = 50):
        self.program = program
        self.policy = policy or InliningPolicy()
        self.profile = profile
        self.speculate_branches = speculate_branches
        self.speculation_min_samples = speculation_min_samples
        #: (caller qualified name, count) of decisions, for diagnostics.
        self.inlined: List[str] = []

    # -- policy ------------------------------------------------------------

    def _resolve_target(self, invoke: InvokeNode):
        """Returns (method, guard_class_or_None), or None to skip."""
        target = self.program.resolve_method(invoke.target.class_name,
                                             invoke.target.method_name)
        if target.is_native:
            return None
        if invoke.kind == "virtual" and self.program.has_overrides(target):
            return self._speculative_target(invoke)
        return (target, None)

    def _speculative_target(self, invoke: InvokeNode):
        """CHA says polymorphic; the profile may still be monomorphic
        to a leaf class -> inline behind a type guard (profile-guided
        devirtualization; a deopt re-dispatches honestly)."""
        if not (self.profile is not None
                and invoke.source_method is not None
                and invoke.state_before is not None):
            return None
        class_name = self.profile.monomorphic_receiver(
            invoke.source_method, invoke.bci,
            self.speculation_min_samples)
        if class_name is None:
            return None
        if self.program.has_subclasses(class_name):
            return None  # instanceof would not prove the exact type
        resolved = self.program.resolve_virtual(
            class_name, invoke.target.method_name)
        if resolved.is_native:
            return None
        return (resolved, class_name)

    def _should_inline(self, graph: Graph, target: JMethod,
                       depth: int) -> bool:
        if depth >= self.policy.max_depth:
            return False
        if graph.node_count() >= self.policy.max_graph_size:
            return False
        limit = (self.policy.max_callee_size if depth <= 2
                 else self.policy.max_callee_size_deep)
        return len(target.code) <= limit

    # -- driver --------------------------------------------------------------

    def run(self, graph: Graph) -> bool:
        changed = False
        # Worklist of (invoke, depth, call chain for recursion detection).
        root = graph.method
        worklist: List[Tuple[InvokeNode, int, Tuple[str, ...]]] = [
            (invoke, 0, (root.qualified_name,) if root else ())
            for invoke in graph.nodes_of(InvokeNode)]
        while worklist:
            invoke, depth, chain = worklist.pop(0)
            if invoke.graph is not graph:
                continue
            resolution = self._resolve_target(invoke)
            if resolution is None:
                continue
            target, guard_class = resolution
            if not self.policy.allow_recursive and \
                    target.qualified_name in chain:
                continue
            if not self._should_inline(graph, target, depth):
                continue
            if guard_class is not None:
                self._insert_type_guard(graph, invoke, guard_class)
            new_invokes = self.inline(graph, invoke, target)
            self.inlined.append(target.qualified_name)
            changed = True
            child_chain = chain + (target.qualified_name,)
            for child in new_invokes:
                worklist.append((child, depth + 1, child_chain))
        return changed

    # -- mechanics ---------------------------------------------------------------

    def _insert_type_guard(self, graph: Graph, invoke: InvokeNode,
                           class_name: str):
        from ..ir.nodes import FixedGuardNode, InstanceOfNode
        receiver = invoke.arguments[0]
        check = InstanceOfNode(class_name, value=receiver)
        graph.insert_before(invoke, check)
        guard = FixedGuardNode("type_speculation", condition=check,
                               state=invoke.state_before)
        graph.insert_before(invoke, guard)

    def inline(self, graph: Graph, invoke: InvokeNode,
               target: JMethod) -> List[InvokeNode]:
        """Replace *invoke* with *target*'s graph; returns the invokes
        that came in with the callee (inlining candidates themselves)."""
        from ..frontend.graph_builder import build_graph

        callee_graph = build_graph(self.program, target, self.profile,
                                   self.speculate_branches,
                                   self.speculation_min_samples)
        callee_nodes = list(callee_graph.nodes())

        outer_state = invoke.state_after
        arguments = list(invoke.arguments)

        # Adopt every callee node into the caller graph.
        for node in callee_nodes:
            graph.adopt(node)

        # Wire parameters to arguments.
        for param in callee_graph.parameters:
            param.replace_at_usages(arguments[param.index])
            param.clear_inputs()
            param.safe_delete()

        # Chain frame states: callee states have no outer yet.
        for node in callee_nodes:
            if isinstance(node, FrameStateNode) and node.graph is graph:
                if node.outer is None:
                    node.outer = outer_state

        # Splice control flow.
        start = callee_graph.start
        first = start.next
        start.next = None
        predecessor = invoke.predecessor
        successor = invoke.next
        invoke.next = None
        graph._replace_successor(predecessor, invoke, first)
        start.safe_delete()

        returns = [n for n in callee_nodes
                   if isinstance(n, ReturnNode) and n.graph is graph]
        replacement: Optional[Node] = None
        if len(returns) == 1:
            ret = returns[0]
            replacement = ret.value
            ret_predecessor = ret.predecessor
            ret.clear_predecessor()
            graph._replace_successor(ret_predecessor, ret, successor)
            ret.clear_inputs()
            ret.safe_delete()
        elif returns:
            merge = graph.add(MergeNode())
            values = []
            for ret in returns:
                end = graph.add(EndNode())
                ret_predecessor = ret.predecessor
                ret.clear_predecessor()
                graph._replace_successor(ret_predecessor, ret, end)
                merge.add_end(end)
                values.append(ret.value)
                ret.clear_inputs()
                ret.safe_delete()
            merge.next = successor
            if invoke.has_value:
                if all(v is values[0] for v in values):
                    replacement = values[0]
                else:
                    phi = PhiNode(merge=merge)
                    phi.values.extend(values)
                    graph.add(phi)
                    replacement = phi
        else:
            # The callee never returns (always deopts/throws): everything
            # after the call site is unreachable.
            from .util import kill_branch
            kill_branch(graph, successor)

        invoke.replace_at_usages(replacement)
        invoke.clear_predecessor()
        invoke.clear_inputs()
        invoke.clear_successors()
        invoke.safe_delete()

        return [n for n in callee_nodes
                if isinstance(n, InvokeNode) and n.graph is graph]
