"""Interprocedural escape summaries over the bytecode.

Closes PEA's intraprocedural precision gap: the paper materializes every
virtual object flowing into a non-inlined call ("any reference argument
of a non-inlined invoke escapes").  A per-method summary computed by
abstract interpretation (in the spirit of Hill & Spoto, and of
Kotzmann's no-escape / arg-escape / global-escape states) tells the
caller what the callee actually does with each parameter:

- **used / read** — observed (field loads, identity compares, type
  checks) but never given a new name;
- **written** — a field/element of the parameter's subgraph is stored;
- **locked** — a monitor is entered on the parameter's subgraph;
- **returned** — (part of) the parameter may be the return value;
- **flows_to** — stored into another parameter's subgraph (Kotzmann's
  *arg-escape*);
- **captured** — stored into a static, an untracked object, thrown, or
  passed to a callee that captures it (*global-escape*).

The per-method analysis tracks, for every stack/local slot, the *may*
set of parameter roots the value derives from (loads from a derived
object stay derived — the whole reachable subgraph shares its root's
fate).  It runs on the generic :class:`~repro.analysis.dataflow`
solver over the bytecode :class:`~repro.frontend.blocks.BlockGraph`.
The interprocedural layer fixpoints over the call graph starting from
bottom (all-empty summaries), which handles recursion: flags only ever
grow, so iteration terminates at the least fixed point.  Virtual
dispatch joins the summaries of the resolved target and every override.
Native methods and resolution failures are top (everything set).

Summaries are deliberately *call-site independent* so they can be
digested into the compilation-cache key and revalidated like
speculation facts (see :mod:`repro.jit.cache`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..bytecode.classfile import JMethod, Program
from ..bytecode.instructions import MethodRef
from ..bytecode.opcodes import Op
from ..frontend.blocks import BlockGraph
from .dataflow import BytecodeCFG, ForwardSolver

_EMPTY: FrozenSet[int] = frozenset()

#: Types that never carry object references.
_PRIMITIVE_TYPES = ("int", "boolean", "void")


class ParamEscape:
    """Classification lattice, least escaping first."""

    UNUSED = "unused"
    READONLY = "readonly"
    NO_ESCAPE = "no_escape"
    RETURNED = "returned"
    ARG_ESCAPE = "arg_escape"
    CAPTURED = "captured"


@dataclass(frozen=True)
class ParamSummary:
    """What a method may do with one parameter's object subgraph."""

    used: bool = False
    read: bool = False
    written: bool = False
    locked: bool = False
    returned: bool = False
    captured: bool = False
    #: Parameter indices this parameter's subgraph may be stored into.
    flows_to: Tuple[int, ...] = ()

    TOP: "ParamSummary" = None  # assigned below

    @property
    def classification(self) -> str:
        if self.captured:
            return ParamEscape.CAPTURED
        if self.flows_to:
            return ParamEscape.ARG_ESCAPE
        if self.returned:
            return ParamEscape.RETURNED
        if self.written or self.locked:
            return ParamEscape.NO_ESCAPE
        if self.read or self.used:
            return ParamEscape.READONLY
        return ParamEscape.UNUSED

    @property
    def borrowable(self) -> bool:
        """True when the callee never creates a new name for the object:
        a caller may pass a throwaway copy without observable effect."""
        return not (self.written or self.locked or self.returned
                    or self.captured or self.flows_to)

    def join(self, other: "ParamSummary") -> "ParamSummary":
        return ParamSummary(
            used=self.used or other.used,
            read=self.read or other.read,
            written=self.written or other.written,
            locked=self.locked or other.locked,
            returned=self.returned or other.returned,
            captured=self.captured or other.captured,
            flows_to=tuple(sorted(set(self.flows_to)
                                  | set(other.flows_to))))

    def token(self) -> str:
        bits = "".join("1" if flag else "0" for flag in (
            self.used, self.read, self.written, self.locked,
            self.returned, self.captured))
        flows = ",".join(str(i) for i in self.flows_to)
        return f"{bits}:{flows}"


ParamSummary.TOP = ParamSummary(used=True, read=True, written=True,
                                locked=True, returned=True,
                                captured=True)


@dataclass(frozen=True)
class MethodSummary:
    """Per-parameter summaries for one method (index = local slot of
    the parameter, receiver included for instance methods)."""

    params: Tuple[ParamSummary, ...]
    #: Top summaries come from natives / resolution failures / analysis
    #: bailouts and are never an optimization license.
    is_top: bool = False

    @classmethod
    def top(cls, param_count: int) -> "MethodSummary":
        return cls(tuple(ParamSummary.TOP for _ in range(param_count)),
                   is_top=True)

    @classmethod
    def bottom(cls, param_count: int) -> "MethodSummary":
        return cls(tuple(ParamSummary() for _ in range(param_count)))

    def param(self, index: int) -> ParamSummary:
        if 0 <= index < len(self.params):
            return self.params[index]
        return ParamSummary.TOP

    def join(self, other: "MethodSummary") -> "MethodSummary":
        if len(self.params) != len(other.params):
            width = max(len(self.params), len(other.params))
            return MethodSummary.top(width)
        return MethodSummary(
            tuple(a.join(b) for a, b in zip(self.params, other.params)),
            is_top=self.is_top or other.is_top)

    def digest(self) -> str:
        text = ";".join(p.token() for p in self.params)
        if self.is_top:
            text += ";TOP"
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Per-method abstract interpretation
# ---------------------------------------------------------------------------


class _Flags:
    """Mutable flag accumulator for one method analysis run."""

    __slots__ = ("used", "read", "written", "locked", "returned",
                 "captured", "flows")

    def __init__(self, param_count: int):
        self.used = [False] * param_count
        self.read = [False] * param_count
        self.written = [False] * param_count
        self.locked = [False] * param_count
        self.returned = [False] * param_count
        self.captured = [False] * param_count
        self.flows: List[set] = [set() for _ in range(param_count)]

    def mark_read(self, roots: FrozenSet[int]):
        for root in roots:
            self.used[root] = True
            self.read[root] = True

    def mark(self, attr: str, roots: FrozenSet[int]):
        flags = getattr(self, attr)
        for root in roots:
            self.used[root] = True
            flags[root] = True

    def flow(self, value_roots: FrozenSet[int],
             container_roots: FrozenSet[int]):
        """A derived value is stored into *container*."""
        for root in value_roots:
            self.used[root] = True
            if not container_roots:
                # Untracked container (fresh object, call result, ...):
                # its fate is unknown — conservatively captured.
                self.captured[root] = True
            elif container_roots != frozenset((root,)):
                # May land in another parameter's subgraph.
                self.flows[root].update(container_roots - {root})

    def to_summary(self, param_count: int) -> MethodSummary:
        return MethodSummary(tuple(
            ParamSummary(used=self.used[i], read=self.read[i],
                         written=self.written[i], locked=self.locked[i],
                         returned=self.returned[i],
                         captured=self.captured[i],
                         flows_to=tuple(sorted(self.flows[i])))
            for i in range(param_count)))


class _SummaryAnalysis:
    """Dataflow analysis instance for one method: the state is
    ``(locals, stack)`` tuples of root sets, ``None`` = unreachable."""

    def __init__(self, method: JMethod, block_graph: BlockGraph,
                 flags: _Flags, database: "SummaryDatabase"):
        self.method = method
        self.block_graph = block_graph
        self.flags = flags
        self.database = database

    def bottom(self):
        return None

    def entry_state(self):
        locals_ = [_EMPTY] * self.method.max_locals
        for index, type_name in enumerate(self.method.param_types):
            if type_name not in _PRIMITIVE_TYPES:
                locals_[index] = frozenset((index,))
        return (tuple(locals_), ())

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        locals_a, stack_a = a
        locals_b, stack_b = b
        if len(stack_a) != len(stack_b):
            raise _AnalysisBailout("inconsistent stack depths at join")
        return (tuple(x | y for x, y in zip(locals_a, locals_b)),
                tuple(x | y for x, y in zip(stack_a, stack_b)))

    def transfer(self, block_index, state):
        if state is None:
            return None
        block = self.block_graph.blocks[block_index]
        locals_ = list(state[0])
        stack = list(state[1])
        for bci in range(block.start, block.end + 1):
            self._step(self.method.code[bci], locals_, stack)
        return (tuple(locals_), tuple(stack))

    # -- one instruction ----------------------------------------------------

    def _step(self, insn, locals_: List[FrozenSet[int]],
              stack: List[FrozenSet[int]]):
        op = insn.op
        flags = self.flags
        if op is Op.CONST:
            stack.append(_EMPTY)
        elif op is Op.LOAD:
            stack.append(locals_[insn.operand])
        elif op is Op.STORE:
            locals_[insn.operand] = stack.pop()
        elif op is Op.POP:
            stack.pop()
        elif op is Op.DUP:
            stack.append(stack[-1])
        elif op is Op.SWAP:
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif op in _ARITH_BINARY:
            stack.pop()
            stack.pop()
            stack.append(_EMPTY)
        elif op is Op.NEG:
            stack.pop()
            stack.append(_EMPTY)
        elif op is Op.GOTO:
            pass
        elif op in _INT_BRANCHES:
            stack.pop()
            stack.pop()
        elif op in _REF_BRANCHES:
            flags.mark_read(stack.pop())
            flags.mark_read(stack.pop())
        elif op in _NULL_BRANCHES:
            flags.mark_read(stack.pop())
        elif op is Op.NEW:
            stack.append(_EMPTY)
        elif op is Op.NEWARRAY:
            stack.pop()
            stack.append(_EMPTY)
        elif op is Op.GETFIELD:
            roots = stack.pop()
            flags.mark_read(roots)
            stack.append(roots)
        elif op is Op.PUTFIELD:
            value = stack.pop()
            container = stack.pop()
            flags.mark_read(container)
            flags.mark("written", container)
            flags.flow(value, container)
        elif op is Op.GETSTATIC:
            stack.append(_EMPTY)
        elif op is Op.PUTSTATIC:
            flags.mark("captured", stack.pop())
        elif op is Op.ALOAD:
            stack.pop()  # index
            roots = stack.pop()
            flags.mark_read(roots)
            stack.append(roots)
        elif op is Op.ASTORE:
            value = stack.pop()
            stack.pop()  # index
            container = stack.pop()
            flags.mark_read(container)
            flags.mark("written", container)
            flags.flow(value, container)
        elif op is Op.ARRAYLENGTH:
            flags.mark_read(stack.pop())
            stack.append(_EMPTY)
        elif op is Op.INSTANCEOF:
            flags.mark_read(stack.pop())
            stack.append(_EMPTY)
        elif op is Op.CHECKCAST:
            roots = stack[-1]
            flags.mark_read(roots)
        elif op in (Op.MONITORENTER, Op.MONITOREXIT):
            roots = stack.pop()
            flags.mark_read(roots)
            flags.mark("locked", roots)
        elif op is Op.THROW:
            flags.mark("captured", stack.pop())
        elif op is Op.RETURN:
            pass
        elif op is Op.RETURN_VALUE:
            flags.mark("returned", stack.pop())
        elif op in _INVOKES:
            self._call(insn.operand, stack)
        else:  # pragma: no cover - exhaustive over the Op enum
            raise _AnalysisBailout(f"unmodelled opcode {op}")

    def _call(self, ref: MethodRef, stack: List[FrozenSet[int]]):
        argc = ref.arg_count
        args = stack[len(stack) - argc:] if argc else []
        del stack[len(stack) - argc:]
        summary, return_type = self.database.invoke_summary(ref)
        flags = self.flags
        result_roots = _EMPTY
        for position, roots in enumerate(args):
            if not roots:
                continue
            callee_param = summary.param(position)
            if callee_param.used:
                for root in roots:
                    flags.used[root] = True
            if callee_param.read:
                flags.mark_read(roots)
            if callee_param.written:
                flags.mark("written", roots)
            if callee_param.locked:
                flags.mark("locked", roots)
            if callee_param.captured:
                flags.mark("captured", roots)
            if callee_param.returned:
                result_roots = result_roots | roots
            for target in callee_param.flows_to:
                container_roots = args[target] if target < len(args) \
                    else _EMPTY
                flags.flow(roots, container_roots)
        if return_type != "void":
            stack.append(result_roots)


class _AnalysisBailout(Exception):
    """Per-method analysis failure: the method's summary becomes top."""


_ARITH_BINARY = frozenset({
    Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.REM, Op.AND, Op.OR, Op.XOR,
    Op.SHL, Op.SHR})
_INT_BRANCHES = frozenset({
    Op.IF_EQ, Op.IF_NE, Op.IF_LT, Op.IF_LE, Op.IF_GT, Op.IF_GE})
_REF_BRANCHES = frozenset({Op.IF_ACMP_EQ, Op.IF_ACMP_NE})
_NULL_BRANCHES = frozenset({Op.IF_NULL, Op.IF_NONNULL})
_INVOKES = frozenset({Op.INVOKESTATIC, Op.INVOKEVIRTUAL,
                      Op.INVOKESPECIAL})


# ---------------------------------------------------------------------------
# The interprocedural database
# ---------------------------------------------------------------------------


class SummaryDatabase:
    """Whole-program escape summaries, computed once per program.

    The call-graph fixpoint starts every analyzable method at bottom
    (most optimistic) and re-analyzes in rounds until no summary
    changes.  Methods are visited in sorted qualified-name order and
    flags are monotone, so the result is independent of declaration
    order (a property test pins this down).
    """

    def __init__(self, program: Program):
        self.program = program
        self._summaries: Dict[str, MethodSummary] = {}
        self._block_graphs: Dict[str, BlockGraph] = {}
        self._computed = False
        #: Fixpoint rounds taken (diagnostics / tests).
        self.rounds = 0

    # -- public API ---------------------------------------------------------

    def summary(self, method: JMethod) -> MethodSummary:
        self._ensure_computed()
        summary = self._summaries.get(method.qualified_name)
        if summary is None:
            return MethodSummary.top(method.arg_count)
        return summary

    def invoke_summary(self, ref: MethodRef
                       ) -> Tuple[MethodSummary, str]:
        """The joined summary over every possible target of *ref*,
        plus the return type.  Unresolvable refs yield top."""
        self._ensure_computed()
        targets = self.resolve_targets(ref)
        if not targets:
            return MethodSummary.top(ref.arg_count), "Object"
        joined: Optional[MethodSummary] = None
        for target in targets:
            summary = self._summaries.get(target.qualified_name,
                                          MethodSummary.top(
                                              target.arg_count))
            joined = summary if joined is None else joined.join(summary)
        return joined, targets[0].return_type

    def digest(self, method: JMethod) -> str:
        return self.summary(method).digest()

    def resolve_targets(self, ref: MethodRef) -> List[JMethod]:
        """Every method an invoke of *ref* may dispatch to."""
        try:
            resolved = self.program.resolve_method(ref.class_name,
                                                   ref.method_name)
        except Exception:  # noqa: BLE001 - unresolved ref
            return []
        targets = [resolved]
        for jclass in self.program.classes.values():
            if jclass.name == ref.class_name:
                continue
            override = jclass.methods.get(ref.method_name)
            if override is not None and override is not resolved and \
                    self.program.is_subclass_of(jclass.name,
                                                ref.class_name):
                targets.append(override)
        return targets

    # -- fixpoint ------------------------------------------------------------

    def _ensure_computed(self):
        if self._computed:
            return
        self._computed = True  # set first: invoke_summary recurses here
        methods = sorted(self.program.all_methods(),
                         key=lambda m: m.qualified_name)
        for method in methods:
            if method.is_native or method.code is None:
                self._summaries[method.qualified_name] = \
                    MethodSummary.top(method.arg_count)
            else:
                self._summaries[method.qualified_name] = \
                    MethodSummary.bottom(method.arg_count)
        analyzable = [m for m in methods
                      if not (m.is_native or m.code is None)]
        for _ in range(len(analyzable) + 2):
            self.rounds += 1
            changed = False
            for method in analyzable:
                new = self._analyze(method)
                if new != self._summaries[method.qualified_name]:
                    self._summaries[method.qualified_name] = new
                    changed = True
            if not changed:
                return
        # Should be unreachable (flags are monotone), but never loop.
        for method in analyzable:  # pragma: no cover
            self._summaries[method.qualified_name] = \
                MethodSummary.top(method.arg_count)

    def _analyze(self, method: JMethod) -> MethodSummary:
        try:
            block_graph = self._block_graphs.get(method.qualified_name)
            if block_graph is None:
                block_graph = BlockGraph(method)
                self._block_graphs[method.qualified_name] = block_graph
            flags = _Flags(method.arg_count)
            analysis = _SummaryAnalysis(method, block_graph, flags,
                                        self)
            ForwardSolver(BytecodeCFG(block_graph), analysis).solve()
            return flags.to_summary(method.arg_count)
        except Exception:  # noqa: BLE001 - any bailout: stay sound
            return MethodSummary.top(method.arg_count)


def summaries_for(program: Program) -> SummaryDatabase:
    """The program's summary database, memoized on the program object
    and invalidated by content fingerprint (mirrors how the compilation
    cache treats the program)."""
    fingerprint = program.content_fingerprint()
    cached = getattr(program, "_escape_summary_cache", None)
    if cached is not None and cached[0] == fingerprint:
        return cached[1]
    database = SummaryDatabase(program)
    program._escape_summary_cache = (fingerprint, database)
    return database


class SummaryView:
    """A per-compilation recording view: every summary the compilation
    consults is remembered with its digest, so the compiler can emit
    ``escape_summary`` cache facts that are revalidated (by
    recomputation) before a cached graph is reused."""

    def __init__(self, database: SummaryDatabase):
        self.database = database
        #: qualified_name -> digest of every consulted summary.
        self.consulted: Dict[str, str] = {}

    def _record(self, method: JMethod):
        self.consulted[method.qualified_name] = \
            self.database.digest(method)

    def summary_for_call(self, ref: MethodRef,
                         receiver_class: Optional[str] = None
                         ) -> Optional[MethodSummary]:
        """The summary governing a call to *ref*; with
        *receiver_class* (an exact type known from a virtual object)
        the single precise target is used instead of the CHA join.
        ``None`` when the ref does not resolve."""
        if receiver_class is not None:
            try:
                exact = self.database.program.resolve_method(
                    receiver_class, ref.method_name)
            except Exception:  # noqa: BLE001 - unresolved receiver
                return None
            self._record(exact)
            return self.database.summary(exact)
        targets = self.database.resolve_targets(ref)
        if not targets:
            return None
        for target in targets:
            self._record(target)
        summary, _ = self.database.invoke_summary(ref)
        return summary

    def facts(self) -> tuple:
        return tuple(("escape_summary", qualified, digest)
                     for qualified, digest in sorted(
                         self.consulted.items()))
