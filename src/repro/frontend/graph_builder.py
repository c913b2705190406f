"""Bytecode -> sea-of-nodes graph construction.

Processes basic blocks in reverse post order, carrying a
:class:`BuilderFrame` of IR values through each block, creating Merge/Phi
nodes at joins and LoopBegin/LoopEnd nodes at natural loops.  Every
potentially-trapping bytecode is compiled speculation-style: a FixedGuard
that deoptimizes to the interpreter, followed by the trap-free operation
(exceptions never unwind inside compiled code, as in Graal).

Frame-state conventions (consumed by :mod:`repro.runtime.deopt`):

- guard states: ``bci`` = the guarded instruction, stack *before* it —
  the interpreter re-executes the instruction and raises properly;
- invoke states: ``bci`` = the invoke, stack without the arguments — an
  *outer* state; the interpreter resumes at ``bci + 1`` and pushes the
  callee's result;
- store/monitor states: ``bci`` = the next instruction, stack popped —
  the state *after* the side effect (Section 2 of the paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..bytecode.classfile import JMethod, Program
from ..bytecode.instructions import Instruction, MethodRef
from ..bytecode.interpreter import Profile
from ..bytecode.opcodes import (INT_COMPARE_BRANCHES, NULL_BRANCHES,
                                REF_COMPARE_BRANCHES, Op)
from ..ir.graph import Graph
from ..ir.node import FixedWithNextNode, IRError, Node
from ..ir.nodes import (ArrayLengthNode, BeginNode, BinaryArithmeticNode,
                        ConstantNode, DeoptimizeNode, EndNode,
                        FixedGuardNode, FrameStateNode, IfNode,
                        InstanceOfNode, IntCompareNode, InvokeNode,
                        IsNullNode, LoadFieldNode, LoadIndexedNode,
                        LoadStaticNode, LoopBeginNode, LoopEndNode,
                        MergeNode, MonitorEnterNode, MonitorExitNode,
                        NegNode, NewArrayNode, NewInstanceNode,
                        ParameterNode, PhiNode, RefEqualsNode, ReturnNode,
                        StartNode, StoreFieldNode, StoreIndexedNode,
                        StoreStaticNode)
from .blocks import BasicBlock, BlockGraph
from .frame import BuilderFrame
from .liveness import LocalLiveness

_ARITH_OPS = {Op.ADD: "add", Op.SUB: "sub", Op.MUL: "mul", Op.AND: "and",
              Op.OR: "or", Op.XOR: "xor", Op.SHL: "shl", Op.SHR: "shr"}
_COMPARE_OPS = {Op.IF_EQ: "eq", Op.IF_NE: "ne", Op.IF_LT: "lt",
                Op.IF_LE: "le", Op.IF_GT: "gt", Op.IF_GE: "ge"}
_INVOKE_KINDS = {Op.INVOKESTATIC: "static", Op.INVOKEVIRTUAL: "virtual",
                 Op.INVOKESPECIAL: "special"}


class GraphBuildError(Exception):
    pass


class GraphBuilder:
    """Builds the IR graph for one method."""

    def __init__(self, program: Program, method: JMethod,
                 profile: Optional[Profile] = None,
                 speculate_branches: bool = False,
                 speculation_min_samples: int = 50,
                 osr_bci: Optional[int] = None,
                 continuation: Optional[Tuple[int, int,
                                              Optional[tuple]]] = None):
        if method.is_native:
            raise GraphBuildError(
                f"cannot build a graph for native method "
                f"{method.qualified_name}")
        if (osr_bci is not None or continuation is not None) and \
                method.is_synchronized:
            # The interpreter's invoke() holds the method lock around the
            # whole frame; an OSR epilogue would release it a second time.
            raise GraphBuildError(
                f"no OSR into synchronized method "
                f"{method.qualified_name}")
        if osr_bci is not None and continuation is not None:
            raise GraphBuildError("osr_bci and continuation are exclusive")
        self.program = program
        self.method = method
        self.profile = profile
        #: On-stack-replacement mode: build an entry variant whose entry
        #: point is the loop header at *osr_bci*, seeded from an
        #: interpreter-frame snapshot instead of the method parameters.
        self.osr_bci = osr_bci
        #: Deoptless continuation mode: ``(entry_bci, stack_depth,
        #: context)`` — an OSR-style entry at an arbitrary deopt bci
        #: (mid-block allowed, operand stack allowed), specialized
        #: against a dispatch *context* observed at the failing site:
        #: ``("branch", bci, taken)`` forces that branch direction as an
        #: assumption-guard, ``("receiver", bci, class_name)`` guards and
        #: devirtualizes that call site.  ``None`` context compiles an
        #: unspecialized continuation.
        self.continuation = continuation
        #: Optimistic compilation: branches never taken in the profile
        #: become FixedGuards that deoptimize if ever reached.
        self.speculate_branches = speculate_branches and profile is not \
            None
        self.speculation_min_samples = speculation_min_samples
        self.graph = Graph(method)
        self.block_graph = BlockGraph(method)
        self.liveness = LocalLiveness(self.block_graph)
        #: Incoming forward edges: block id -> [(anchor, frame)].
        self._incoming: Dict[int, List[Tuple[FixedWithNextNode,
                                             BuilderFrame]]] = {}
        #: Loop phis: header block id -> list of PhiNodes (slot order).
        self._loop_phis: Dict[int, List[PhiNode]] = {}
        self._loop_begins: Dict[int, LoopBeginNode] = {}
        #: Values that are non-null everywhere (allocations, 'this').
        self._always_non_null: Set[Node] = set()
        #: Values null-guarded earlier in the current block.
        self._block_non_null: Set[Node] = set()
        #: Anchor: the fixed node whose `next` is the current insert point.
        self._anchor: Optional[FixedWithNextNode] = None
        self._method_locks: List[Node] = []
        #: Bytecode index of the instruction currently being lowered;
        #: threaded onto appended nodes as ``(method, bci)`` source
        #: positions for diagnostics (see
        #: :func:`repro.bytecode.disassembler.format_position`).
        self._current_bci: Optional[int] = None

    # -- public -----------------------------------------------------------

    def build(self) -> Graph:
        graph = self.graph
        start = graph.add(StartNode())
        graph.start = start
        self._anchor = start

        if self.continuation is not None:
            entry_bci, stack_depth, _context = self.continuation
            block = self._entry_block("continuation", entry_bci)
            if block.index not in self.block_graph.reachable:
                raise GraphBuildError(
                    f"continuation bci {entry_bci} of "
                    f"{self.method.qualified_name} is unreachable")
            frame = self._entry_frame(entry_bci, stack_depth)
            if entry_bci == block.start:
                self._incoming[block.index] = [(self._anchor, frame)]
            else:
                # Mid-block entry: lower the tail of the entry block
                # directly off the start anchor.  If downstream control
                # flow re-reaches this block's start, the full block is
                # lowered again there (tail duplication), which is
                # exactly the OSR-bypass semantics.
                self._process_block_body(block, entry_bci, frame)
        elif self.osr_bci is None:
            params = [graph.add(ParameterNode(i))
                      for i in range(self.method.arg_count)]
            graph.parameters = params
            if not self.method.is_static and params:
                self._always_non_null.add(params[0])

            local_count = max(self.method.max_locals,
                              self.method.arg_count)
            locals_ = list(params) + [graph.null] * (local_count
                                                     - len(params))
            frame = BuilderFrame(locals_)

            if self.method.is_synchronized and not self.method.is_static:
                self._method_locks = [params[0]]
                enter = MonitorEnterNode(object=params[0])
                self._append(enter)
                enter.state_after = self._make_state(0, frame)

            self._incoming[self.block_graph.rpo[0]] = [(self._anchor,
                                                        frame)]
        else:
            bci = self.osr_bci
            block = self._entry_block("OSR", bci)
            if block.start != bci or not block.is_loop_header:
                raise GraphBuildError(
                    f"OSR bci {bci} of {self.method.qualified_name} is "
                    f"not a loop header")
            # The operand stack is empty at a backedge (the interpreter
            # only offers OSR there), so the entry frame carries locals
            # only.
            self._incoming[block.index] = [(self._anchor,
                                            self._entry_frame(bci, 0))]

        for block_id in self.block_graph.rpo:
            self._process_block(self.block_graph.blocks[block_id])
        graph.verify()
        return graph

    def _entry_block(self, kind: str, bci: int) -> BasicBlock:
        """The block holding the *kind* entry's *bci*."""
        if not 0 <= bci < len(self.method.code):
            raise GraphBuildError(
                f"{kind} bci {bci} out of range in "
                f"{self.method.qualified_name}")
        return self.block_graph.blocks[self.block_graph.block_of_bci[bci]]

    def _entry_frame(self, bci: int, stack_depth: int) -> BuilderFrame:
        """The entry frame of an OSR or deoptless continuation graph: one
        ParameterNode per local slot live at *bci*, dead slots cleared,
        then one per operand-stack value — the dual of the
        deoptimizer's frame-state decoding (an interpreter frame mapped
        *into* compiled code instead of out of it).  An OSR entry is the
        case of a loop header with an empty stack; a continuation may
        enter at any deopt bci, mid-block and with stack values, and is
        re-entered with exactly the rematerialized frame the
        deoptimizer would have handed the interpreter."""
        graph = self.graph
        live = self.liveness.live_before(bci)
        local_count = max(self.method.max_locals, self.method.arg_count)
        params = []
        slots = []
        locals_: List[Node] = []
        for slot in range(local_count):
            if slot in live:
                param = graph.add(ParameterNode(len(params)))
                params.append(param)
                slots.append(slot)
                locals_.append(param)
            else:
                locals_.append(graph.null)
        stack = [graph.add(ParameterNode(len(params) + i))
                 for i in range(stack_depth)]
        graph.parameters = params + stack
        graph.osr_entry_bci = bci
        graph.osr_local_slots = slots
        graph.entry_stack_depth = stack_depth
        return BuilderFrame(locals_, stack)

    # -- plumbing -----------------------------------------------------------

    def _append(self, node: FixedWithNextNode) -> FixedWithNextNode:
        """Append a fixed node at the current insert point."""
        self.graph.add(node)
        if self._current_bci is not None and \
                getattr(node, "position", None) is None:
            node.position = (self.method, self._current_bci)
        self._anchor.next = node
        self._anchor = node
        return node

    def _make_state(self, bci: int, frame: BuilderFrame,
                    stack: Optional[List[Node]] = None) -> FrameStateNode:
        state = FrameStateNode(self.method, bci)
        self.graph.add(state)
        # Non-live locals are cleared (Graal's clearNonLiveLocals): dead
        # object references must not keep allocations alive in states.
        live_bci = min(bci, len(self.method.code) - 1)
        live = self.liveness.live_before(live_bci)
        for slot, value in enumerate(frame.locals):
            state.locals_values.append(
                value if slot in live else self.graph.null)
        state.stack_values.extend(
            stack if stack is not None else frame.stack)
        state.locks.extend(self._method_locks)
        return state

    def _is_non_null(self, value: Node) -> bool:
        if value in self._always_non_null:
            return True
        if value in self._block_non_null:
            return True
        if isinstance(value, (NewInstanceNode, NewArrayNode)):
            return True
        if isinstance(value, ConstantNode) and value.value is not None:
            return True
        return False

    def _null_guard(self, value: Node, bci: int, frame: BuilderFrame,
                    stack_before: List[Node]):
        if self._is_non_null(value):
            return
        is_null = self._append(IsNullNode(value=value))
        state = self._make_state(bci, frame, stack_before)
        self._append(FixedGuardNode("null_check", negated=True,
                                    condition=is_null, state=state))
        self._block_non_null.add(value)

    # -- block processing ----------------------------------------------------

    def _process_block(self, block: BasicBlock):
        if block.index not in self.block_graph.reachable:
            return
        if block.index not in self._incoming:
            return  # all paths into this block were speculated away
        frame = self._materialize_entry(block)
        self._process_block_body(block, block.start, frame)

    def _process_block_body(self, block: BasicBlock, bci: int,
                            frame: BuilderFrame):
        """Lower *block*'s instructions starting at *bci* (the block
        start normally; a later bci for a mid-block continuation entry)."""
        self._block_non_null = set()
        code = self.method.code
        while bci <= block.end:
            insn = code[bci]
            self._current_bci = bci
            if insn.is_branch or insn.is_terminator:
                self._process_terminator(block, bci, insn, frame)
                return
            self._process_instruction(bci, insn, frame)
            bci += 1
        # Fallthrough into the next block.
        self._connect_edge(self._anchor, frame, block.index,
                           self.block_graph.block_of_bci[block.end + 1])

    def _materialize_entry(self, block: BasicBlock) -> BuilderFrame:
        incoming = self._incoming.pop(block.index, [])
        if block.is_loop_header:
            return self._materialize_loop_header(block, incoming)
        if len(incoming) == 1:
            anchor, frame = incoming[0]
            self._anchor = anchor
            return frame
        if not incoming:
            raise GraphBuildError(
                f"block {block.index} has no incoming edges")
        merge = self.graph.add(MergeNode())
        frames = []
        for anchor, frame in incoming:
            end = self.graph.add(EndNode())
            anchor.next = end
            merge.add_end(end)
            frames.append(frame)
        merged = self._merge_frames(merge, frames, block.start)
        self._anchor = merge
        return merged

    def _merge_frames(self, merge: MergeNode, frames: List[BuilderFrame],
                      entry_bci: Optional[int] = None) -> BuilderFrame:
        slot_lists = [frame.slots() for frame in frames]
        width = len(slot_lists[0])
        for slots in slot_lists:
            if len(slots) != width:
                raise GraphBuildError("inconsistent frame sizes at merge")
        local_count = len(frames[0].locals)
        live = (self.liveness.live_before(entry_bci)
                if entry_bci is not None else None)
        merged_slots: List[Node] = []
        for index in range(width):
            if live is not None and index < local_count and \
                    index not in live:
                merged_slots.append(self.graph.null)
                continue
            values = [slots[index] for slots in slot_lists]
            first = values[0]
            if all(value is first for value in values):
                merged_slots.append(first)
            else:
                phi = PhiNode(merge=merge)
                phi.values.extend(values)
                self.graph.add(phi)
                merged_slots.append(phi)
        result = frames[0].copy()
        result.set_slots(merged_slots)
        return result

    def _materialize_loop_header(self, block: BasicBlock, incoming
                                 ) -> BuilderFrame:
        if not incoming:
            raise GraphBuildError(
                f"loop header {block.index} has no forward edges")
        # LoopBegin invariant: exactly one forward end.  Multiple forward
        # edges are funnelled through a pre-merge first.
        if len(incoming) > 1:
            pre_merge = self.graph.add(MergeNode())
            frames = []
            for anchor, frame in incoming:
                end = self.graph.add(EndNode())
                anchor.next = end
                pre_merge.add_end(end)
                frames.append(frame)
            merged = self._merge_frames(pre_merge, frames, block.start)
            incoming = [(pre_merge, merged)]
        loop_begin = self.graph.add(LoopBeginNode())
        anchor, entry_frame = incoming[0]
        end = self.graph.add(EndNode())
        anchor.next = end
        loop_begin.add_end(end)
        # One phi per slot; loop-end inputs are appended when back edges
        # are connected.
        slots = entry_frame.slots()
        local_count = len(entry_frame.locals)
        live = self.liveness.live_before(block.start)
        phis: List[Optional[PhiNode]] = []
        merged_slots: List[Node] = []
        for index in range(len(slots)):
            if index < local_count and index not in live:
                # Dead local: no loop phi, no phantom loop-carried value.
                phis.append(None)
                merged_slots.append(self.graph.null)
                continue
            phi = PhiNode(merge=loop_begin)
            phi.values.append(slots[index])
            self.graph.add(phi)
            phis.append(phi)
            merged_slots.append(phi)
        self._loop_phis[block.index] = phis
        self._loop_begins[block.index] = loop_begin
        result = entry_frame.copy()
        result.set_slots(merged_slots)
        self._anchor = loop_begin
        return result

    def _connect_edge(self, anchor: FixedWithNextNode, frame: BuilderFrame,
                      source_block: int, target_block: int):
        target = self.block_graph.blocks[target_block]
        if source_block in target.back_edge_preds:
            loop_begin = self._loop_begins.get(target_block)
            if loop_begin is None:
                # Reachable only from an OSR entry that sits inside this
                # loop: the header was never materialized.  Bail out —
                # the enclosing loop's own header is the OSR point.
                raise GraphBuildError(
                    f"backedge into unmaterialized loop header "
                    f"{target_block} (OSR entry inside a nested loop)")
            loop_end = self.graph.add(LoopEndNode())
            anchor.next = loop_end
            loop_begin.add_loop_end(loop_end)
            slots = frame.slots()
            for phi, value in zip(self._loop_phis[target_block], slots):
                if phi is not None:
                    phi.values.append(value)
            return
        self._incoming.setdefault(target_block, []).append(
            (anchor, frame.copy()))

    # -- terminators ---------------------------------------------------------

    def _process_terminator(self, block: BasicBlock, bci: int,
                            insn: Instruction, frame: BuilderFrame):
        op = insn.op
        if op is Op.GOTO:
            self._connect_edge(self._anchor, frame, block.index,
                               self.block_graph.block_of_bci[insn.operand])
            return
        if op is Op.RETURN or op is Op.RETURN_VALUE:
            value = frame.pop() if op is Op.RETURN_VALUE else None
            if self._method_locks:
                exit_node = MonitorExitNode(object=self._method_locks[0])
                self._append(exit_node)
            ret = self.graph.add(ReturnNode(value=value))
            self._anchor.next = ret
            return
        if op is Op.THROW:
            state = self._make_state(bci, frame)
            deopt = self.graph.add(DeoptimizeNode("throw", state=state))
            self._anchor.next = deopt
            return

        # Conditional branches.
        stack_before = list(frame.stack)
        taken_is_true = True
        if op in INT_COMPARE_BRANCHES:
            b, a = frame.pop(), frame.pop()
            condition = self.graph.add(
                IntCompareNode(_COMPARE_OPS[op], x=a, y=b))
        elif op in REF_COMPARE_BRANCHES:
            b, a = frame.pop(), frame.pop()
            condition = self._append(RefEqualsNode(x=a, y=b))
            taken_is_true = op is Op.IF_ACMP_EQ
        elif op in NULL_BRANCHES:
            a = frame.pop()
            condition = self._append(IsNullNode(value=a))
            taken_is_true = op is Op.IF_NULL
        else:
            raise GraphBuildError(f"unhandled terminator {insn}")

        taken_block = self.block_graph.block_of_bci[insn.operand]
        fall_block = self.block_graph.block_of_bci[bci + 1]
        speculated = self._try_speculate(block, bci, condition,
                                         taken_is_true, frame,
                                         stack_before, taken_block,
                                         fall_block)
        if speculated:
            return

        if_node = self.graph.add(IfNode(condition=condition))
        if self.profile is not None:
            taken_p = self.profile.taken_probability(self.method, bci)
            if_node.true_probability = (
                taken_p if taken_is_true else 1.0 - taken_p)
        self._anchor.next = if_node
        true_begin = self.graph.add(BeginNode())
        false_begin = self.graph.add(BeginNode())
        if_node.true_successor = true_begin
        if_node.false_successor = false_begin

        taken_begin = true_begin if taken_is_true else false_begin
        fall_begin = false_begin if taken_is_true else true_begin
        self._connect_edge(taken_begin, frame, block.index, taken_block)
        self._connect_edge(fall_begin, frame, block.index, fall_block)

    def _try_speculate(self, block: BasicBlock, bci: int, condition: Node,
                       taken_is_true: bool, frame: BuilderFrame,
                       stack_before: List[Node], taken_block: int,
                       fall_block: int) -> bool:
        """Replace a never-taken (or always-taken) branch with a guard.

        The dead side's bytecode is not compiled at all; if the guard
        ever fails, execution deoptimizes and the interpreter takes the
        "impossible" path (Section 2's optimistic assumptions)."""
        context = self.continuation[2] if self.continuation else None
        if context is not None and context[0] == "branch" and \
                context[1] == bci:
            # Deoptless dispatch context: the observed failing branch
            # direction is compiled as an *assumption* guard, not a
            # profile fact — the recorder never sees it, so the live
            # profile (which has watched both directions) cannot falsify
            # the variant; the context rides the cache key instead.  A
            # guard failure here simply dispatches to a sibling variant.
            outcome = bool(context[2])
            return self._speculate_branch(block, bci, outcome, condition,
                                          taken_is_true, frame,
                                          stack_before, taken_block,
                                          fall_block)
        if not self.speculate_branches:
            return False
        # A loop that tiers up through OSR runs its iterations in
        # compiled code, where the interpreter no longer profiles, so
        # its exit branch looks never-taken however often it exits;
        # speculating on it would deoptimize at every exit.  Two cases:
        # the loop this very graph OSR-enters (its exit has *never*
        # been interpreted — the compilation request arrived mid-loop),
        # and loops that tiered up earlier (profile fact).  Covers the
        # while-shape (exit conditional in the header block) and the
        # do-while-shape (backward conditional jump to the header).
        if block.is_loop_header and \
                (block.start == self.osr_bci
                 or self.profile.loop_has_osr(self.method, block.start)):
            return False
        target_start = self.block_graph.blocks[taken_block].start
        if target_start <= bci and \
                (target_start == self.osr_bci
                 or self.profile.loop_has_osr(self.method, target_start)):
            return False
        outcome = self.profile.branch_outcome(
            self.method, bci, self.speculation_min_samples)
        if outcome is None:
            return False
        return self._speculate_branch(block, bci, outcome, condition,
                                      taken_is_true, frame, stack_before,
                                      taken_block, fall_block)

    def _speculate_branch(self, block: BasicBlock, bci: int,
                          outcome: bool, condition: Node,
                          taken_is_true: bool, frame: BuilderFrame,
                          stack_before: List[Node], taken_block: int,
                          fall_block: int) -> bool:
        if outcome:
            survivor, condition_true = taken_block, taken_is_true
        else:
            survivor, condition_true = fall_block, not taken_is_true
        state = self._make_state(bci, frame, stack_before)
        guard = FixedGuardNode("unreached_branch",
                               negated=not condition_true,
                               condition=condition, state=state)
        self._append(guard)
        self._connect_edge(self._anchor, frame, block.index, survivor)
        return True

    # -- straight-line instructions ---------------------------------------------

    def _process_instruction(self, bci: int, insn: Instruction,
                             frame: BuilderFrame):
        graph = self.graph
        op = insn.op
        stack_before = list(frame.stack)

        if op is Op.CONST:
            frame.push(graph.constant(insn.operand))
        elif op is Op.LOAD:
            frame.push(frame.locals[insn.operand])
        elif op is Op.STORE:
            frame.locals[insn.operand] = frame.pop()
        elif op is Op.POP:
            frame.pop()
        elif op is Op.DUP:
            frame.push(frame.stack[-1])
        elif op is Op.SWAP:
            frame.stack[-1], frame.stack[-2] = (frame.stack[-2],
                                                frame.stack[-1])
        elif op in _ARITH_OPS:
            b, a = frame.pop(), frame.pop()
            frame.push(graph.add(
                BinaryArithmeticNode(_ARITH_OPS[op], x=a, y=b)))
        elif op is Op.DIV or op is Op.REM:
            b, a = frame.pop(), frame.pop()
            non_zero = graph.add(
                IntCompareNode("ne", x=b, y=graph.constant(0)))
            state = self._make_state(bci, frame, stack_before)
            self._append(FixedGuardNode("div_by_zero", condition=non_zero,
                                        state=state))
            name = "div" if op is Op.DIV else "rem"
            frame.push(graph.add(BinaryArithmeticNode(name, x=a, y=b)))
        elif op is Op.NEG:
            frame.push(graph.add(NegNode(value=frame.pop())))

        elif op is Op.NEW:
            node = self._append(NewInstanceNode(insn.operand))
            frame.push(node)
        elif op is Op.NEWARRAY:
            length = frame.pop()
            non_negative = graph.add(
                IntCompareNode("ge", x=length, y=graph.constant(0)))
            state = self._make_state(bci, frame, stack_before)
            self._append(FixedGuardNode("negative_array_size",
                                        condition=non_negative,
                                        state=state))
            node = self._append(NewArrayNode(insn.operand, length=length))
            frame.push(node)
        elif op is Op.GETFIELD:
            obj = frame.pop()
            self._null_guard(obj, bci, frame, stack_before)
            frame.push(self._append(LoadFieldNode(insn.operand,
                                                  object=obj)))
        elif op is Op.PUTFIELD:
            value, obj = frame.pop(), frame.pop()
            self._null_guard(obj, bci, frame, stack_before)
            store = self._append(StoreFieldNode(insn.operand, object=obj,
                                                value=value))
            store.state_after = self._make_state(bci + 1, frame)
        elif op is Op.GETSTATIC:
            frame.push(self._append(LoadStaticNode(insn.operand)))
        elif op is Op.PUTSTATIC:
            value = frame.pop()
            store = self._append(StoreStaticNode(insn.operand,
                                                 value=value))
            store.state_after = self._make_state(bci + 1, frame)
        elif op is Op.ALOAD:
            index, array = frame.pop(), frame.pop()
            self._null_guard(array, bci, frame, stack_before)
            self._bounds_guard(array, index, bci, frame, stack_before)
            frame.push(self._append(LoadIndexedNode(array=array,
                                                    index=index)))
        elif op is Op.ASTORE:
            value, index, array = frame.pop(), frame.pop(), frame.pop()
            self._null_guard(array, bci, frame, stack_before)
            self._bounds_guard(array, index, bci, frame, stack_before)
            store = self._append(StoreIndexedNode(array=array, index=index,
                                                  value=value))
            store.state_after = self._make_state(bci + 1, frame)
        elif op is Op.ARRAYLENGTH:
            array = frame.pop()
            self._null_guard(array, bci, frame, stack_before)
            frame.push(self._append(ArrayLengthNode(array=array)))
        elif op is Op.INSTANCEOF:
            frame.push(self._append(InstanceOfNode(insn.operand,
                                                   value=frame.pop())))
        elif op is Op.CHECKCAST:
            obj = frame.stack[-1]
            is_null = self._append(IsNullNode(value=obj))
            instance_of = self._append(InstanceOfNode(insn.operand,
                                                      value=obj))
            either = graph.add(BinaryArithmeticNode("or", x=is_null,
                                                    y=instance_of))
            state = self._make_state(bci, frame, stack_before)
            self._append(FixedGuardNode("class_cast", condition=either,
                                        state=state))
        elif op in _INVOKE_KINDS:
            self._process_invoke(bci, insn, frame, stack_before)
        elif op is Op.MONITORENTER:
            obj = frame.pop()
            self._null_guard(obj, bci, frame, stack_before)
            enter = self._append(MonitorEnterNode(object=obj))
            enter.state_after = self._make_state(bci + 1, frame)
        elif op is Op.MONITOREXIT:
            obj = frame.pop()
            self._null_guard(obj, bci, frame, stack_before)
            exit_node = self._append(MonitorExitNode(object=obj))
            exit_node.state_after = self._make_state(bci + 1, frame)
        else:  # pragma: no cover
            raise GraphBuildError(f"unhandled opcode {op}")

    def _bounds_guard(self, array: Node, index: Node, bci: int,
                      frame: BuilderFrame, stack_before: List[Node]):
        length = self._append(ArrayLengthNode(array=array))
        in_bounds = self.graph.add(
            IntCompareNode("below", x=index, y=length))
        state = self._make_state(bci, frame, stack_before)
        self._append(FixedGuardNode("bounds_check", condition=in_bounds,
                                    state=state))

    def _process_invoke(self, bci: int, insn: Instruction,
                        frame: BuilderFrame, stack_before: List[Node]):
        ref = insn.operand
        kind = _INVOKE_KINDS[insn.op]
        callee = self.program.resolve_method(ref.class_name,
                                             ref.method_name)
        args = frame.pop_many(ref.arg_count)
        if kind in ("virtual", "special"):
            self._null_guard(args[0], bci, frame, stack_before)
        context = self.continuation[2] if self.continuation else None
        if kind == "virtual" and context is not None and \
                context[0] == "receiver" and context[1] == bci:
            devirt = self._devirtualize(bci, ref, args, frame,
                                        stack_before, context[2])
            if devirt is not None:
                kind, ref, callee = devirt
        invoke = InvokeNode(kind, ref, callee.return_type, bci)
        invoke.source_method = self.method
        self._append(invoke)
        invoke.arguments.extend(args)
        invoke.state_after = self._make_state(bci, frame)
        if kind == "virtual":
            # Deopt target for type-speculation guards: the arguments
            # are still on the stack, so the interpreter can re-execute
            # the invokevirtual and dispatch honestly.
            invoke.state_before = self._make_state(bci, frame,
                                                   stack_before)
        if invoke.has_value:
            frame.push(invoke)

    def _devirtualize(self, bci: int, ref, args: List[Node],
                      frame: BuilderFrame, stack_before: List[Node],
                      class_name: str):
        """Deoptless receiver context: guard the observed exact receiver
        type and call the resolved override directly — the builder-level
        twin of ``InliningPhase._insert_type_guard`` (continuation
        graphs skip inlining, so the specialization happens here).
        Returns ``(kind, ref, callee)`` or None when the type cannot be
        proven exact."""
        if self.program.has_subclasses(class_name):
            return None  # instanceof would not prove the exact type
        resolved = self.program.resolve_virtual(class_name,
                                                ref.method_name)
        if resolved.is_native:
            return None
        check = self._append(InstanceOfNode(class_name, value=args[0]))
        state = self._make_state(bci, frame, stack_before)
        self._append(FixedGuardNode("type_speculation", condition=check,
                                    state=state))
        # Re-anchor the ref at the guarded receiver class: the direct
        # call resolves through it to the same override the guard
        # proved (resolve_method walks superclasses).
        direct = MethodRef(class_name, ref.method_name, ref.arg_count)
        return "special", direct, resolved


def build_graph(program: Program, method: JMethod,
                profile: Optional[Profile] = None,
                speculate_branches: bool = False,
                speculation_min_samples: int = 50,
                osr_bci: Optional[int] = None,
                continuation: Optional[Tuple[int, int, Optional[tuple]]]
                = None) -> Graph:
    """Build and verify the IR graph for *method*.

    With *osr_bci* the graph is an on-stack-replacement entry variant:
    execution enters at that loop header, parameters carry the live
    interpreter locals (see :attr:`Graph.osr_local_slots`).  With
    *continuation* (``(bci, stack_depth, context)``) it is a deoptless
    continuation: entry at an arbitrary deopt bci with *stack_depth*
    operand-stack parameters after the live locals, specialized against
    the dispatch *context* (see :mod:`repro.jit.deoptless`)."""
    return GraphBuilder(program, method, profile, speculate_branches,
                        speculation_min_samples, osr_bci=osr_bci,
                        continuation=continuation).build()
