"""Codegen backend: optimized graphs lowered to specialized Python.

The threaded-code :class:`~repro.runtime.plan.ExecutionPlan` still pays
one Python-level indirect call per executed node.  This module removes
that last dispatch layer: each compiled graph is *structurized* back
into ``while``/``if`` source text — one generated Python function per
compiled method (or OSR variant) — and ``compile()``/``exec()``-ed, so
CPython's own bytecode specialization runs the hot path.

Lowering rules (see docs/internals.md §13):

- every value node (parameter, phi, value-producing fixed node) becomes
  a real Python local named ``v<node-id>``;
- straight-line fixed nodes become straight-line statements calling the
  shared :class:`~repro.bytecode.heap.Heap` (so Table 1's allocation and
  monitor metrics are measured identically in every backend);
- the reducible CFG is emitted structurally: the explicit
  LoopBegin/LoopEnd nodes become ``while True:`` loops with
  ``continue``/``break`` (a path that leaves a loop starts with a plain
  Begin and is emitted inside the ``while`` until it reaches an outer
  loop's LoopEnd or a merge the loop does not own, where it
  ``break``s), If joins are discovered by probing both arms for the
  merge they reconverge on, and phi moves are plain (tuple) assignments
  with parallel-move semantics;
- floating expressions are inlined (64-bit wrapping arithmetic as
  walrus-assignment mask formulas, comparisons as native operators);
  subexpressions shared within one tree are hoisted into temporaries,
  preserving the evaluation-count semantics of the interpreter's
  per-evaluation memo;
- per-block cost accounting is pre-folded into single constant
  increments (``stats.node_executions += n`` / ``stats.cycles += x``),
  flushed before every control transfer;
- deopt sites compile to ``return _d<k>(locals())``: the frame state and
  the node→local-name map are baked into a bound closure that hands the
  :class:`~repro.runtime.deopt.Deoptimizer` a lookup over the captured
  frame locals; the Deoptimizer re-evaluates and rematerializes
  (Section 5.5) exactly as for every other backend.

Graph shapes the structurizer cannot express (irreducible-looking joins
after aggressive branch folding) raise :class:`CodegenError` and that
method runs on the GraphInterpreter, counted as a backend fallback —
observable metrics are identical by construction, only the speed
differs.

A :class:`CodegenPlan` is static (graph + program + cost model); its
:meth:`payload` — the source text, a digest, and the node-id maps — is
what the compilation cache persists (re-``exec`` on warm load).
Binding to one VM's heap/stats/deoptimizer produces a
:class:`BoundCode` whose ``execute`` signature matches
:class:`~repro.runtime.plan.BoundPlan`.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..bytecode.classfile import Program
from ..bytecode.heap import Heap
from ..bytecode.interpreter import java_div, java_rem, java_shl, java_shr
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.nodes import (INTERIOR, ArrayLengthNode, BeginNode,
                        BinaryArithmeticNode, ConstantNode, DeoptimizeNode,
                        EndNode, FixedGuardNode, FrameStateNode, IfNode,
                        InstanceOfNode, IntCompareNode, InvokeNode,
                        IsNullNode, LoadFieldNode, LoadIndexedNode,
                        LoadStaticNode, LoopBeginNode, LoopEndNode,
                        MergeNode, MonitorEnterNode, MonitorExitNode,
                        NegNode, NewArrayNode, NewInstanceNode,
                        ParameterNode, PhiNode, RefEqualsNode, ReturnNode,
                        StartNode, StoreFieldNode, StoreIndexedNode,
                        StoreStaticNode, expr_children)
from ..scheduler.cfg import ControlFlowGraph
from .costmodel import CostModel, ExecutionStats
from .deopt import MISSING, Deoptimizer
from .graph_interpreter import MAX_CONTROL_STEPS, GraphExecutionError


class CodegenError(Exception):
    """The graph cannot be lowered to structured Python source (an
    unsupported node kind or an unstructured join).  The method runs on
    the GraphInterpreter instead."""


#: Arithmetic ops inlined as native operators under the wrap formula.
_PY_ARITH = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|",
             "xor": "^"}
#: Arithmetic ops with Java trap/shift semantics: call the table fns.
_FN_ARITH = {"div": "_dv", "rem": "_rm", "shl": "_sl", "shr": "_sr"}
_PY_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">",
           "ge": ">="}

_MASK = (1 << 64) - 1
_SIGN = 1 << 63
_SPAN = 1 << 64

#: Subtree render depth above which interior nodes are hoisted into
#: temporaries, keeping generated lines inside CPython's nesting limits:
#: after hoisting, no tree renders deeper than ``_HOIST_DEPTH + 1``.
_HOIST_DEPTH = 12

#: Emitted-line ceiling: tail duplication (non-tree merge DAGs) can in
#: principle blow up exponentially; past this the method bails out to
#: the GraphInterpreter instead.
_MAX_LINES = 200_000

_HELPERS = (
    ("_c", "stats"), ("_ni", "new_instance"), ("_na", "new_array"),
    ("_gf", "get_field"), ("_pf", "put_field"), ("_al", "array_load"),
    ("_as", "array_store"), ("_ln", "array_length"),
    ("_io", "instance_of"), ("_me", "monitor_enter"),
    ("_mx", "monitor_exit"), ("_gs", "get_static"),
    ("_ss", "set_static"), ("_iv", "invoke"), ("_dv", "java_div"),
    ("_rm", "java_rem"), ("_sl", "java_shl"), ("_sr", "java_shr"),
    ("_abc", "alloc_bytes"), ("_sbc", "stack_bytes"),
    ("_asz", "array_size"), ("_bx", "budget"), ("_hg", "hist_merge"),
)


def _raise_budget():
    raise GraphExecutionError("control step budget exceeded")


def _sanitize(label: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_"
                      for ch in label)
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"m_{cleaned}"
    return cleaned


class _Loop:
    """One loop being emitted: its header plus the *out-edges* its body
    discovers — control transfers the body cannot express locally (a
    break out of this loop, a ``continue``/break of an *enclosing* loop,
    a jump to a merge beyond this loop).  Each distinct target gets an
    index; the body emits ``_x<id> = <index>; break`` and the dispatch
    after the ``while`` re-emits the target at the enclosing level
    (multi-level transfers propagate out one loop at a time)."""

    __slots__ = ("begin", "targets", "out_index")

    def __init__(self, begin: LoopBeginNode):
        self.begin = begin
        self.targets: List[Node] = []
        self.out_index: Dict[Node, int] = {}


class _Ctx:
    """Structural emission context: the innermost loop and the stack of
    open join merges at this nesting level (innermost last)."""

    __slots__ = ("loop", "joins")

    def __init__(self, loop: Optional[_Loop], joins: tuple):
        self.loop = loop
        self.joins = joins

    @property
    def join(self) -> Optional[MergeNode]:
        return self.joins[-1] if self.joins else None

    def with_join(self, join: MergeNode) -> "_Ctx":
        return _Ctx(self.loop, self.joins + (join,))


class _Emitter:
    """Walks one graph and produces the generated source plus the
    bind-time tables (deopt sites, value-name map, constants)."""

    def __init__(self, graph: Graph, program: Program,
                 cost_model: CostModel, label: str,
                 histogram: bool = False):
        self.graph = graph
        self.program = program
        self.cost_model = cost_model
        self.label = label
        self.histogram = histogram
        self.multiplier = cost_model.icache_multiplier(graph.node_count())
        self.entry_name = _sanitize(label)
        self.lines: List[Tuple[int, str]] = []
        self.indent = 2
        #: leaf value node -> Python local name.
        self.names: Dict[Node, str] = {}
        #: deopt site index -> frame state node.
        self.deopt_states: List[FrameStateNode] = []
        #: bind-time constants: ("target", InvokeNode).
        self.consts: List[Tuple[str, Node]] = []
        self.pending_execs = 0
        self.pending_cycles = 0.0
        self.pending_hist: Dict[str, int] = {}
        self._temp_counter = 0
        self._has_loops = any(isinstance(node, LoopBeginNode)
                              for node in graph.nodes())
        #: MergeNode -> innermost LoopBeginNode whose natural body
        #: contains it (absent -> outside every loop).  Decides whether
        #: an End falling into a merge is local to the loop being
        #: emitted or must become an out-edge.
        self._merge_loop: Dict[MergeNode, LoopBeginNode] = {}
        #: LoopBeginNode -> out-edge targets its body produces
        #: (memoized mirror of emission, used by :meth:`_probe`).
        self._out_cache: Dict[LoopBeginNode, List[Node]] = {}
        cfg = ControlFlowGraph(graph)
        loops = sorted(((cfg.loop_members(block), block.first)
                        for block in cfg.blocks if block.is_loop_header),
                       key=lambda loop: len(loop[0]))
        for block in cfg.blocks:
            merge = block.first
            if isinstance(merge, MergeNode) and \
                    not isinstance(merge, LoopBeginNode):
                for members, begin in loops:  # innermost first
                    if block in members:
                        self._merge_loop[merge] = begin
                        break

    # -- plumbing ----------------------------------------------------------

    def _line(self, text: str) -> None:
        if len(self.lines) > _MAX_LINES:
            raise CodegenError("generated code too large")
        self.lines.append((self.indent, text))

    def _name(self, node: Node) -> str:
        name = self.names.get(node)
        if name is None:
            name = f"v{node.id}"
            self.names[node] = name
        return name

    def _is_leaf(self, node: Node) -> bool:
        return node.is_fixed or isinstance(node, (ParameterNode, PhiNode))

    def _count(self, node: Node) -> None:
        self.pending_execs += 1
        self.pending_cycles += (self.cost_model.node_cost(node)
                                * self.multiplier)
        if self.histogram:
            kind = type(node).__name__
            self.pending_hist[kind] = self.pending_hist.get(kind, 0) + 1

    def _flush(self) -> None:
        if self.pending_execs:
            self._line(f"_c.node_executions += {self.pending_execs}")
            self.pending_execs = 0
        if self.pending_cycles:
            self._line(f"_c.cycles += {self.pending_cycles!r}")
            self.pending_cycles = 0.0
        if self.pending_hist:
            literal = ", ".join(f"{kind!r}: {count}" for kind, count
                                in sorted(self.pending_hist.items()))
            self._line(f"_hg({{{literal}}})")
            self.pending_hist = {}

    # -- expressions -------------------------------------------------------

    def _const_literal(self, node: ConstantNode) -> str:
        value = node.value
        if value is None or isinstance(value, (int, str)):
            return repr(value)
        raise CodegenError(f"unsupported constant {value!r}")

    @staticmethod
    def _wrap(inner: str) -> str:
        return (f"(_w - {_SPAN} if (_w := ({inner}) & {_MASK})"
                f" & {_SIGN} else _w)")

    def _value_expr(self, root: Node, as_test: bool = False) -> str:
        """A Python expression evaluating *root* at this point (may emit
        temp-assignment lines first).  With *as_test*, a top-level
        comparison renders as a native boolean expression (identical
        truthiness, no 0/1 materialization)."""
        if isinstance(root, ConstantNode):
            return self._const_literal(root)
        if self._is_leaf(root):
            return self._name(root)
        if not isinstance(root, INTERIOR):
            raise CodegenError(f"cannot evaluate {root!r}")
        temps = self._prepare_tree(root)
        if as_test and isinstance(root, IntCompareNode) \
                and root not in temps:
            x = self._render(root.x, temps)
            y = self._render(root.y, temps)
            if root.op == "below":
                return f"((0 <= (_w := {x})) & (_w < ({y})))"
            return f"(({x}) {_PY_CMP[root.op]} ({y}))"
        return self._render(root, temps)

    def _prepare_tree(self, root: Node) -> Dict[Node, str]:
        """Charge the tree's interior costs (each unique node once, like
        the interpreter's per-evaluation memo) and hoist shared or deep
        subtrees into temporaries."""
        counts: Dict[Node, int] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if not isinstance(node, INTERIOR):
                continue
            seen = counts.get(node, 0) + 1
            counts[node] = seen
            if seen == 1:
                stack.extend(expr_children(node))
        for node in counts:
            self.pending_cycles += self.cost_model.node_cost(node)
        shared = {node for node, count in counts.items() if count > 1}
        # Postorder over the interior DAG (children before parents).
        post: List[Node] = []
        state: List[Tuple[Node, int]] = [(root, 0)]
        on_stack = {root}
        visited: set = set()
        while state:
            node, child_index = state.pop()
            children = [child for child in expr_children(node)
                        if isinstance(child, INTERIOR)
                        and child not in visited]
            if child_index < len(children):
                state.append((node, child_index + 1))
                child = children[child_index]
                if child not in on_stack:
                    on_stack.add(child)
                    state.append((child, 0))
            else:
                if node not in visited:
                    visited.add(node)
                    post.append(node)
        # Render depth per node; a hoisted node renders as its name.
        hoist: List[Node] = []
        depth: Dict[Node, int] = {}
        for node in post:
            own = 1 + max((depth.get(child, 0)
                           for child in expr_children(node)), default=0)
            if (node in shared or own > _HOIST_DEPTH) and node is not root:
                hoist.append(node)
                own = 0
            depth[node] = own
        temps: Dict[Node, str] = {}
        for node in hoist:
            text = self._render(node, temps)
            name = f"_t{self._temp_counter}"
            self._temp_counter += 1
            self._line(f"{name} = {text}")
            temps[node] = name
        return temps

    def _render(self, node: Node, temps: Dict[Node, str]) -> str:
        name = temps.get(node)
        if name is not None:
            return name
        if isinstance(node, ConstantNode):
            return self._const_literal(node)
        if self._is_leaf(node):
            return self._name(node)
        if isinstance(node, BinaryArithmeticNode):
            x = self._render(node.x, temps)
            y = self._render(node.y, temps)
            symbol = _PY_ARITH.get(node.op)
            if symbol is not None:
                return self._wrap(f"({x}) {symbol} ({y})")
            return f"{_FN_ARITH[node.op]}({x}, {y})"
        if isinstance(node, IntCompareNode):
            x = self._render(node.x, temps)
            y = self._render(node.y, temps)
            if node.op == "below":
                # Eager `&` (not `and`): both compares always evaluate,
                # like the interpreter's evaluator.
                return (f"(1 if (0 <= (_w := {x})) & (_w < ({y})) "
                        f"else 0)")
            return f"(1 if ({x}) {_PY_CMP[node.op]} ({y}) else 0)"
        if isinstance(node, NegNode):
            value = self._render(node.value, temps)
            return self._wrap(f"-({value})")
        raise CodegenError(f"cannot evaluate {node!r}")

    # -- deopt/const tables ------------------------------------------------

    def _deopt_site(self, state: FrameStateNode) -> int:
        if state is None:
            raise CodegenError("deopt without frame state")
        self.deopt_states.append(state)
        return len(self.deopt_states) - 1

    def _const_ref(self, kind: str, node: Node) -> str:
        index = len(self.consts)
        self.consts.append((kind, node))
        return f"_K{index}"

    # -- join discovery ----------------------------------------------------

    @staticmethod
    def _common_join(chains: List[List[MergeNode]]
                     ) -> Optional[MergeNode]:
        """The earliest merge every (non-terminating) arm falls
        through, or ``None``.  Emission is correct for *any* choice —
        an arm that never reaches the join inlines its own merge tail
        (:meth:`_emit_region`'s duplication path) and terminates — so
        the join exists purely to share the common continuation."""
        candidates = [chain for chain in chains if chain]
        if not candidates:
            return None
        for merge in candidates[0]:
            if all(merge in chain for chain in candidates[1:]):
                return merge
        return None

    def _merge_is_local(self, merge: MergeNode, ctx: _Ctx) -> bool:
        """An End can fall into *merge* at *ctx*'s level only when the
        merge's innermost containing loop is the loop being emitted
        (both ``None`` at the top level); anything else is an out-edge
        of the current loop."""
        owner = self._merge_loop.get(merge)
        current = ctx.loop.begin if ctx.loop is not None else None
        return owner is current

    def _out_edge(self, loop: _Loop, target: Node) -> None:
        """Record *target* as an out-edge of *loop* and emit the break
        that selects it; the target is (re-)emitted — and counted — by
        the dispatch after the loop's ``while``."""
        index = loop.out_index.get(target)
        if index is None:
            index = len(loop.targets)
            loop.out_index[target] = index
            loop.targets.append(target)
        self._flush()
        self._line(f"_x{loop.begin.id} = {index}")
        self._line("break")

    def _collect_out_targets(self, begin: LoopBeginNode) -> List[Node]:
        """The out-edge targets emitting *begin*'s body will discover,
        in discovery order, without emitting anything — what
        :meth:`_probe` needs to walk *past* a nested loop.  Targets are
        the nodes the body cannot consume at its own level: LoopEnds of
        other loops and Ends feeding merges outside the body."""
        cached = self._out_cache.get(begin)
        if cached is not None:
            return cached
        targets: List[Node] = []
        index: Dict[Node, int] = {}
        visited = set()

        def collect(target: Node) -> None:
            if target not in index:
                index[target] = len(targets)
                targets.append(target)

        def walk(node: Node) -> None:
            while node is not None:
                if node in visited:
                    return
                visited.add(node)
                if isinstance(node, (ReturnNode, DeoptimizeNode)):
                    return
                if isinstance(node, LoopEndNode):
                    if node.loop_begin is not begin:
                        collect(node)
                    return
                if isinstance(node, IfNode):
                    walk(node.true_successor)
                    walk(node.false_successor)
                    return
                if isinstance(node, EndNode):
                    merge = node.merge()
                    if merge is None:
                        raise CodegenError(f"{node} feeds no merge")
                    if isinstance(merge, LoopBeginNode):
                        for inner in self._collect_out_targets(merge):
                            walk(inner)
                        return
                    if self._merge_loop.get(merge) is begin:
                        walk(merge.next)
                        return
                    collect(node)
                    return
                node = node.next

        walk(begin.next)
        self._out_cache[begin] = targets
        return targets

    def _probe(self, node: Node, ctx: _Ctx) -> List[MergeNode]:
        """The ordered chain of local merges control falls through from
        *node* before terminating at *ctx*'s structural level (ending,
        inclusively, at ``ctx.join`` when it is reached).  Nested Ifs
        and loops consume their own joins exactly as
        :meth:`_emit_region` will emit them; the chain is what
        :meth:`_common_join` picks a shared continuation from."""
        chain: List[MergeNode] = []
        steps = 0
        while True:
            steps += 1
            if steps > 200_000:
                raise CodegenError("probe did not converge")
            if isinstance(node, (ReturnNode, DeoptimizeNode)):
                return chain
            if isinstance(node, LoopEndNode):
                if ctx.loop is None:
                    raise CodegenError("loop end outside any loop")
                return chain  # a continue or an out-edge: terminal here
            if isinstance(node, EndNode):
                merge = node.merge()
                if merge is None:
                    raise CodegenError(f"{node} feeds no merge")
                if isinstance(merge, LoopBeginNode):
                    inner_targets = self._collect_out_targets(merge)
                    if not inner_targets:
                        return chain
                    if len(inner_targets) == 1:
                        # Mirrors _emit_loop's single-target return:
                        # the continuation is re-dispatched at ctx.
                        node = inner_targets[0]
                        continue
                    join = self._common_join([
                        self._probe(target, ctx)
                        for target in inner_targets])
                    if join is None:
                        return chain
                    chain.append(join)
                    if join is ctx.join:
                        return chain
                    node = join.next
                    continue
                if not self._merge_is_local(merge, ctx):
                    if ctx.loop is None:
                        raise CodegenError("end crosses a loop boundary")
                    return chain  # an out-edge of the current loop
                chain.append(merge)
                if merge is ctx.join:
                    return chain
                # Duplication path: emission inlines the merge tail.
                node = merge.next
                continue
            if isinstance(node, IfNode):
                join = self._common_join([
                    self._probe(node.true_successor, ctx),
                    self._probe(node.false_successor, ctx)])
                if join is None:
                    return chain
                chain.append(join)
                if join is ctx.join:
                    return chain
                # The If consumes this nested merge; keep walking after
                # it to find where *this* level falls out.
                node = join.next
                continue
            if node is None or node.next is None:
                raise CodegenError(f"cannot lower {node!r}")
            node = node.next

    # -- structured emission -----------------------------------------------

    def _indented_region(self, node: Node, ctx: _Ctx) -> None:
        mark = len(self.lines)
        self.indent += 1
        self._emit_region(node, ctx)
        if len(self.lines) == mark:
            self._line("pass")
        self.indent -= 1

    def _emit_phi_moves(self, merge: MergeNode, end: Node) -> None:
        index = merge.end_index(end)
        moves = [(self._name(phi), phi.values[index])
                 for phi in merge.phis()]
        if not moves:
            return
        if len(moves) == 1:
            name, value = moves[0]
            self._line(f"{name} = {self._value_expr(value)}")
            return
        # Tuple assignment: every input is read before any phi local is
        # written (loop phis may feed each other).
        exprs = [self._value_expr(value) for __, value in moves]
        targets = ", ".join(name for name, __ in moves)
        self._line(f"{targets} = {', '.join(exprs)}")

    def _emit_loop(self, begin: LoopBeginNode,
                   ctx: _Ctx) -> Optional[Node]:
        """Emit a whole loop; returns the node emission continues at
        (after the loop), or ``None`` when nothing can follow.  The body
        records every control transfer it cannot express locally as an
        out-edge (``_x<id> = k; break``); the dispatch emitted after the
        ``while`` re-emits each target at *ctx*'s level, so transfers
        spanning several loops propagate outward one level at a time."""
        loop = _Loop(begin)
        selector = f"_x{begin.id}"
        self._flush()
        self._line("while True:")
        self.indent += 1
        self._line(f"if (_st := _st + 1) > {MAX_CONTROL_STEPS}: _bx()")
        self._count(begin)
        self._emit_region(begin.next, _Ctx(loop, ()))
        self.indent -= 1
        targets = loop.targets
        if not targets:
            return None
        if len(targets) == 1:
            return targets[0]  # re-dispatched by the caller's region loop
        # Multiple targets: an N-way dispatch on the selector, shaped
        # like an If (probe each continuation for the common join).
        join = self._common_join([self._probe(target, ctx)
                                  for target in targets])
        nested = join is not None and join is not ctx.join
        arm_ctx = ctx.with_join(join) if nested else ctx
        for index, target in enumerate(targets):
            if index == 0:
                self._line(f"if {selector} == 0:")
            elif index == len(targets) - 1:
                self._line("else:")
            else:
                self._line(f"elif {selector} == {index}:")
            mark = len(self.lines)
            self.indent += 1
            self._emit_region(target, arm_ctx)
            if len(self.lines) == mark:
                self._line("pass")
            self.indent -= 1
        if nested:
            self._count(join)
            return join.next
        return None

    def _emit_region(self, node: Node, ctx: _Ctx) -> None:
        """Emit the region starting at *node*; stops at *ctx*'s join
        (after emitting its phi moves) or when every path terminates."""
        while True:
            if isinstance(node, (StartNode, BeginNode)):
                self._count(node)
                node = node.next

            elif isinstance(node, EndNode):
                merge = node.merge()
                if merge is None:
                    raise CodegenError(f"{node} feeds no merge")
                if isinstance(merge, LoopBeginNode):
                    self._count(node)
                    self._emit_phi_moves(merge, node)
                    node = self._emit_loop(merge, ctx)
                    if node is None:
                        return
                    continue
                if not self._merge_is_local(merge, ctx):
                    if ctx.loop is None:
                        raise CodegenError("end crosses a loop boundary")
                    self._out_edge(ctx.loop, node)
                    return
                self._count(node)
                self._emit_phi_moves(merge, node)
                if merge is ctx.join:
                    self._flush()
                    return
                # Tail duplication: a local merge that is not the
                # chosen join (the merge DAG is not a tree here) is
                # inlined — its continuation is re-emitted on this
                # path.  Dynamically exclusive with every other copy,
                # so counts and effects match the nodal traversal; the
                # line budget bounds the blowup.
                self._count(merge)
                node = merge.next
                continue

            elif isinstance(node, LoopEndNode):
                loop = ctx.loop
                if loop is None:
                    raise CodegenError("loop end outside any loop")
                if node.loop_begin is not loop.begin:
                    # Back edge of an enclosing loop: break out one
                    # level and let the dispatch re-emit it there.
                    self._out_edge(loop, node)
                    return
                self._count(node)
                self._emit_phi_moves(loop.begin, node)
                self._flush()
                self._line("continue")
                return

            elif isinstance(node, IfNode):
                self._count(node)
                join = self._common_join([
                    self._probe(node.true_successor, ctx),
                    self._probe(node.false_successor, ctx)])
                nested = join is not None and join is not ctx.join
                test = self._value_expr(node.condition, as_test=True)
                self._flush()
                arm_ctx = ctx.with_join(join) if nested else ctx
                self._line(f"if {test}:")
                self._indented_region(node.true_successor, arm_ctx)
                self._line("else:")
                self._indented_region(node.false_successor, arm_ctx)
                if nested:
                    self._count(join)
                    node = join.next
                    continue
                return

            elif isinstance(node, FixedGuardNode):
                self._count(node)
                test = self._value_expr(node.condition, as_test=True)
                self._flush()
                site = self._deopt_site(node.state)
                if node.negated:
                    self._line(f"if {test}:")
                else:
                    self._line(f"if not ({test}):")
                self.indent += 1
                self._line(f"return _d{site}(locals())")
                self.indent -= 1
                node = node.next

            elif isinstance(node, ReturnNode):
                self._count(node)
                if node.value is None:
                    self._flush()
                    self._line("return None")
                else:
                    expr = self._value_expr(node.value)
                    self._flush()
                    self._line(f"return {expr}")
                return

            elif isinstance(node, DeoptimizeNode):
                self._count(node)
                self._flush()
                site = self._deopt_site(node.state)
                self._line(f"return _d{site}(locals())")
                return

            elif isinstance(node, NewInstanceNode):
                self._count(node)
                on_stack = getattr(node, "stack_allocated", False)
                size = self.program.instance_size(node.class_name)
                self.pending_cycles += (
                    self.cost_model.stack_allocation_bytes_cost(size)
                    if on_stack
                    else self.cost_model.allocation_bytes_cost(size))
                self._line(f"{self._name(node)} = "
                           f"_ni({node.class_name!r}, {on_stack!r})")
                node = node.next

            elif isinstance(node, NewArrayNode):
                self._count(node)
                on_stack = getattr(node, "stack_allocated", False)
                length = self._value_expr(node.length)
                temp = f"_t{self._temp_counter}"
                self._temp_counter += 1
                self._line(f"{temp} = {length}")
                self._line(f"{self._name(node)} = "
                           f"_na({node.elem_type!r}, {temp}, "
                           f"{on_stack!r})")
                bytes_fn = "_sbc" if on_stack else "_abc"
                self._line(f"_c.cycles += {bytes_fn}(_asz({temp}))")
                node = node.next

            elif isinstance(node, LoadFieldNode):
                self._count(node)
                obj = self._value_expr(node.object)
                self._line(f"{self._name(node)} = _gf({obj}, "
                           f"{node.field.field_name!r})")
                node = node.next

            elif isinstance(node, StoreFieldNode):
                self._count(node)
                obj = self._value_expr(node.object)
                value = self._value_expr(node.value)
                self._line(f"_pf({obj}, {node.field.field_name!r}, "
                           f"{value})")
                node = node.next

            elif isinstance(node, LoadStaticNode):
                self._count(node)
                self._line(f"{self._name(node)} = "
                           f"_gs({node.field.class_name!r}, "
                           f"{node.field.field_name!r})")
                node = node.next

            elif isinstance(node, StoreStaticNode):
                self._count(node)
                value = self._value_expr(node.value)
                self._line(f"_ss({node.field.class_name!r}, "
                           f"{node.field.field_name!r}, {value})")
                node = node.next

            elif isinstance(node, LoadIndexedNode):
                self._count(node)
                array = self._value_expr(node.array)
                index = self._value_expr(node.index)
                self._line(f"{self._name(node)} = _al({array}, {index})")
                node = node.next

            elif isinstance(node, StoreIndexedNode):
                self._count(node)
                array = self._value_expr(node.array)
                index = self._value_expr(node.index)
                value = self._value_expr(node.value)
                self._line(f"_as({array}, {index}, {value})")
                node = node.next

            elif isinstance(node, ArrayLengthNode):
                self._count(node)
                array = self._value_expr(node.array)
                self._line(f"{self._name(node)} = _ln({array})")
                node = node.next

            elif isinstance(node, RefEqualsNode):
                self._count(node)
                x = self._value_expr(node.x)
                y = self._value_expr(node.y)
                self._line(f"{self._name(node)} = "
                           f"1 if ({x}) is ({y}) else 0")
                node = node.next

            elif isinstance(node, IsNullNode):
                self._count(node)
                value = self._value_expr(node.value)
                self._line(f"{self._name(node)} = "
                           f"1 if ({value}) is None else 0")
                node = node.next

            elif isinstance(node, InstanceOfNode):
                self._count(node)
                value = self._value_expr(node.value)
                self._line(f"{self._name(node)} = _io({value}, "
                           f"{node.class_name!r})")
                node = node.next

            elif isinstance(node, MonitorEnterNode):
                self._count(node)
                obj = self._value_expr(node.object)
                self._line(f"_me({obj})")
                node = node.next

            elif isinstance(node, MonitorExitNode):
                self._count(node)
                obj = self._value_expr(node.object)
                self._line(f"_mx({obj})")
                node = node.next

            elif isinstance(node, InvokeNode):
                self._count(node)
                target = self._const_ref("target", node)
                arguments = [self._value_expr(argument)
                             for argument in node.arguments]
                call = (f"_iv({node.kind!r}, {target}, "
                        f"[{', '.join(arguments)}])")
                if node.has_value:
                    self._line(f"{self._name(node)} = {call}")
                else:
                    self._line(call)
                node = node.next

            else:
                raise CodegenError(f"cannot lower {node!r}")

    # -- entry -------------------------------------------------------------

    def emit(self) -> "_Emitted":
        graph = self.graph
        if graph.start is None:
            raise CodegenError("graph has no start node")
        params = list(graph.parameters)
        signature = ", ".join(self._name(param) for param in params)
        self.lines.append((1, f"def {self.entry_name}({signature}):"))
        self._line("_c.compiled_invocations += 1")
        if self._has_loops:
            self._line("_st = 0")
        self._emit_region(graph.start, _Ctx(None, ()))
        preamble = [(0, "def __factory(_rt):")]
        preamble.extend((1, f"{alias} = _rt[{key!r}]")
                        for alias, key in _HELPERS)
        preamble.extend(
            (1, f"_K{index} = _rt['consts'][{index}]")
            for index in range(len(self.consts)))
        preamble.extend(
            (1, f"_d{index} = _rt['deopts'][{index}]")
            for index in range(len(self.deopt_states)))
        tail = [(1, f"return {self.entry_name}")]
        source = "\n".join("    " * indent + text for indent, text
                           in preamble + self.lines + tail) + "\n"
        return _Emitted(source, self.entry_name, self.names,
                        self.deopt_states, self.consts,
                        [param.index for param in params])


class _Emitted:
    """The output of one emission pass."""

    __slots__ = ("source", "entry_name", "names", "deopt_states",
                 "consts", "arg_indices")

    def __init__(self, source, entry_name, names, deopt_states, consts,
                 arg_indices):
        self.source = source
        self.entry_name = entry_name
        self.names = names
        self.deopt_states = deopt_states
        self.consts = consts
        self.arg_indices = arg_indices


class BoundCode:
    """Generated code linked to one VM — the codegen counterpart of
    :class:`~repro.runtime.plan.BoundPlan`."""

    __slots__ = ("plan", "function", "execute")

    def __init__(self, plan: "CodegenPlan", function: Callable,
                 arg_indices: List[int]):
        self.plan = plan
        self.function = function
        indices = tuple(arg_indices)

        def execute(args, _fn=function, _indices=indices):
            return _fn(*[args[index] for index in _indices])

        self.execute = execute


class CodegenPlan:
    """The static lowering of one graph to Python source.

    Built by the compiler (``execution_backend="codegen"``); its
    :meth:`payload` rides through the compilation cache next to the
    graph blob, and :meth:`bind` links the generated function against
    one VM's runtime objects."""

    def __init__(self, graph: Graph, program: Program,
                 cost_model: CostModel, label: str = "compiled"):
        self.graph = graph
        self.program = program
        self.cost_model = cost_model
        self.label = label
        emitted = _Emitter(graph, program, cost_model, label).emit()
        self._install(emitted)

    def _install(self, emitted: _Emitted) -> None:
        self.source = emitted.source
        self.entry_name = emitted.entry_name
        self.names = emitted.names
        self.deopt_states = emitted.deopt_states
        self.consts = emitted.consts
        self.arg_indices = emitted.arg_indices
        self.digest = source_digest(self.source)
        self._code = None

    @property
    def code_size(self) -> int:
        """Generated-code size in source bytes (jitdiff's size metric)."""
        return len(self.source)

    # -- serialization -----------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """Everything the compilation cache persists: the source text
        with its digest, the digest of the cost model its cycle
        literals were emitted under, plus the node-id tables to re-link
        deopt sites and invoke targets against the cached graph on warm
        load."""
        return {
            "source": self.source,
            "digest": self.digest,
            "cost_model": cost_model_digest(self.cost_model),
            "entry": self.entry_name,
            "label": self.label,
            "names": {node.id: name
                      for node, name in self.names.items()},
            "deopt_states": [state.id for state in self.deopt_states],
            "consts": [(kind, node.id) for kind, node in self.consts],
            "arg_indices": list(self.arg_indices),
        }

    @classmethod
    def from_payload(cls, graph: Graph, program: Program,
                     cost_model: CostModel,
                     payload: Dict[str, Any]) -> "CodegenPlan":
        """Rebuild a plan from a cached graph and a persisted payload,
        skipping the emission pass.  A digest mismatch (corrupted
        source), source emitted under another cost model (its cycle
        literals would charge the wrong costs) or a stale node id
        raises :class:`CodegenError` — the compiler then regenerates
        from the graph."""
        plan = cls.__new__(cls)
        plan.graph = graph
        plan.program = program
        plan.cost_model = cost_model
        try:
            source = payload["source"]
            if source_digest(source) != payload["digest"]:
                raise CodegenError("codegen payload digest mismatch")
            if payload.get("cost_model") != cost_model_digest(cost_model):
                raise CodegenError("codegen payload emitted under another "
                                   "cost model")
            plan.label = payload["label"]
            plan.source = source
            plan.entry_name = payload["entry"]
            plan.names = {graph._nodes[node_id]: name
                          for node_id, name in payload["names"].items()}
            plan.deopt_states = [graph._nodes[node_id]
                                 for node_id in payload["deopt_states"]]
            plan.consts = [(kind, graph._nodes[node_id])
                           for kind, node_id in payload["consts"]]
            plan.arg_indices = list(payload["arg_indices"])
        except CodegenError:
            raise
        except Exception as error:
            raise CodegenError(f"stale codegen payload: {error}")
        plan.digest = payload["digest"]
        plan._code = None
        return plan

    # -- binding -----------------------------------------------------------

    def bind(self, heap: Heap, stats: ExecutionStats,
             invoke_callback: Callable[[str, Any, List[Any]], Any],
             deoptimizer: Optional[Deoptimizer] = None,
             collect_histogram: bool = False) -> BoundCode:
        """``exec`` the generated source against one VM's runtime.

        Histogram collection re-emits an instrumented variant from the
        graph (the cached source stays uninstrumented — instrumentation
        is a bind-time concern, like the plan backend's wrappers)."""
        if collect_histogram:
            emitted = _Emitter(self.graph, self.program, self.cost_model,
                               self.label, histogram=True).emit()
            code = self._compile(emitted.source)
            names = emitted.names
            deopt_states = emitted.deopt_states
            consts = emitted.consts
            arg_indices = emitted.arg_indices
            entry_name = emitted.entry_name
        else:
            if self._code is None:
                self._code = self._compile(self.source)
            code = self._code
            names = self.names
            deopt_states = self.deopt_states
            consts = self.consts
            arg_indices = self.arg_indices
            entry_name = self.entry_name

        histogram = stats.node_kind_executions

        def hist_merge(kinds, _histogram=histogram):
            for kind, count in kinds.items():
                _histogram[kind] = _histogram.get(kind, 0) + count

        runtime = {
            "stats": stats,
            "new_instance": heap.new_instance,
            "new_array": heap.new_array,
            "get_field": heap.get_field,
            "put_field": heap.put_field,
            "array_load": heap.array_load,
            "array_store": heap.array_store,
            "array_length": heap.array_length,
            "instance_of": heap.instance_of,
            "monitor_enter": heap.monitor_enter,
            "monitor_exit": heap.monitor_exit,
            "get_static": self.program.get_static,
            "set_static": self.program.set_static,
            "invoke": invoke_callback,
            "java_div": java_div,
            "java_rem": java_rem,
            "java_shl": java_shl,
            "java_shr": java_shr,
            "alloc_bytes": self.cost_model.allocation_bytes_cost,
            "stack_bytes": self.cost_model.stack_allocation_bytes_cost,
            "array_size": self.program.array_size,
            "budget": _raise_budget,
            "hist_merge": hist_merge,
            "consts": [self._resolve_const(kind, node)
                       for kind, node in consts],
            "deopts": [self._make_deopt(state, names, stats,
                                        deoptimizer)
                       for state in deopt_states],
        }
        namespace: Dict[str, Any] = {}
        exec(code, namespace)  # noqa: S102 - code we just generated
        function = namespace["__factory"](runtime)
        function.__qualname__ = f"codegen[{self.label}]"
        if function.__code__.co_name != entry_name:  # pragma: no cover
            raise CodegenError("generated entry name mismatch")
        return BoundCode(self, function, arg_indices)

    def _compile(self, source: str):
        try:
            return compile(source, f"<codegen:{self.label}>", "exec")
        except SyntaxError as error:  # pragma: no cover - emitter bug
            raise CodegenError(f"generated source does not parse: "
                               f"{error}")

    @staticmethod
    def _resolve_const(kind: str, node: Node) -> Any:
        if kind == "target":
            return node.target
        raise CodegenError(f"unknown constant kind {kind!r}")

    def _make_deopt(self, state: FrameStateNode,
                    names: Dict[Node, str], stats: ExecutionStats,
                    deoptimizer: Optional[Deoptimizer]):
        """A deopt-site closure handing the Deoptimizer a lookup over
        the generated frame's locals through the baked-in node→name
        map."""
        cost_model = self.cost_model

        def run_deopt(frame_locals: Dict[str, Any]) -> Any:
            if deoptimizer is None:
                raise GraphExecutionError(
                    "deoptimization with no deoptimizer attached")

            def lookup(node):
                name = names.get(node)
                return MISSING if name is None \
                    else frame_locals.get(name, MISSING)

            return deoptimizer.deoptimize(state, lookup, stats,
                                          cost_model)

        return run_deopt


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def cost_model_digest(cost_model: CostModel) -> str:
    """Digest of every constant of *cost_model* (its dataclass repr
    names them all): emitted source folds them into literals."""
    return source_digest(repr(cost_model))
