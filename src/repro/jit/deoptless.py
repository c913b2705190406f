"""Deoptless: dispatched OSR with specialized continuations.

A failed speculation normally throws the frame back to the interpreter
and (after a few repeats) invalidates the compiled code — a latency
cliff exactly when traffic shifts.  Following Flückiger & Krynski
(*Deoptless*, 2022), a deopt instead becomes a *dispatch point*: the VM
derives a **dispatch context** from the observed failing runtime state
(the branch direction or receiver type that falsified the speculation),
compiles an OSR-style *continuation* entering at the deopt bci whose
entry parameters are the rematerialized live state, specialized against
that context, and on every later deopt at the same site dispatches
among the live variants by re-deriving the context from the current
state.  Pathological polymorphism is bounded by a per-site variant cap
with LRU retirement, so the worst case degrades to today's
deopt-to-interpreter behavior, never below it.

This module owns the parts that need no VM: the continuation cache-key
descriptor (it rides the existing ``entry_bci`` dimension of the
compilation cache), dispatch
context derivation (mirroring the interpreter's branch/receiver
evaluation exactly), and the VM's variant table, which keys every
installed piece of code — method entry, OSR entry or continuation —
by ``(method, entry)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..bytecode.classfile import JMethod
from ..bytecode.interpreter import _COMPARE_FNS
from ..bytecode.opcodes import Op

#: Tag marking a continuation descriptor in the cache's
#: ``entry_bci`` slot (a plain loop-header int means classic OSR).
CONT_TAG = "cont"

#: A dispatch context: ``("branch", bci, taken)`` or
#: ``("receiver", bci, class_name)``.
Context = Tuple[str, int, Any]


def continuation_entry(bci: int, stack_depth: int,
                       context: Optional[Context]) -> tuple:
    """The cache-key descriptor for one continuation variant.
    Hashable and picklable; rides the ``entry_bci`` field."""
    return (CONT_TAG, bci, stack_depth, context)


def is_continuation_entry(entry_bci) -> bool:
    return (isinstance(entry_bci, tuple) and len(entry_bci) == 4
            and entry_bci[0] == CONT_TAG)


def failure_entry(entry):
    """The key a failed compile of *entry* is recorded under: a
    continuation fails for structural reasons, so for its whole deopt
    site (every stack depth and context)."""
    if is_continuation_entry(entry):
        return (CONT_TAG, entry[1], None, None)
    return entry


def derive_context(method: JMethod, bci: int, locals_: List[Any],
                   stack: List[Any]) -> Optional[Context]:
    """The dispatch context of a deopt landing at *bci* with the given
    rematerialized frame, or None when the site is not specializable.

    Mirrors the interpreter's evaluation exactly: a conditional branch's
    context is the direction it is about to take with the current
    operands; an invokevirtual's context is the receiver's dynamic
    class.  Guard states put the stack *before* the failing instruction
    back on the frame, so the operands are sitting on top of *stack*.
    """
    if not 0 <= bci < len(method.code):
        return None
    insn = method.code[bci]
    op = insn.op
    fn = _COMPARE_FNS.get(op)
    if fn is not None:
        if len(stack) < 2:
            return None
        taken = bool(fn(stack[-2], stack[-1]))
        return ("branch", bci, taken)
    if op is Op.IF_NULL or op is Op.IF_NONNULL:
        if not stack:
            return None
        taken = (stack[-1] is None) == (op is Op.IF_NULL)
        return ("branch", bci, taken)
    if op is Op.INVOKEVIRTUAL:
        ref = insn.operand
        if len(stack) < ref.arg_count:
            return None
        receiver = stack[-ref.arg_count]
        if receiver is None:
            return None  # about to raise NPE — not specializable
        return ("receiver", bci, receiver.class_name)
    return None


@dataclass
class Variant:
    """One installed piece of compiled code: a method entry, an OSR
    entry or a continuation."""

    result: Any  # CompilationResult
    #: The entry point bound to the installing VM.
    entry: Callable[[List[Any]], Any]
    #: The owning method's deopt epoch when the variant was last known
    #: valid against the live profile.
    epoch: int = 0


@dataclass
class DeoptlessStats:
    continuation_compiles: int = 0
    dispatches: int = 0
    dispatch_misses: int = 0
    retirements: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "continuation_compiles": self.continuation_compiles,
            "dispatches": self.dispatches,
            "dispatch_misses": self.dispatch_misses,
            "retirements": self.retirements,
        }


class VariantTable(dict):
    """Every installed code variant of one VM, ``method -> {entry:
    Variant}``.  The entry is ``None`` for the method entry, a
    loop-header bci for an OSR entry, or a :func:`continuation_entry`
    descriptor.

    Continuations are LRU-bounded per deopt site: a method's dict keeps
    them in dispatch-recency order (``lookup`` moves a hit to the end),
    and ``install`` reports the least recently dispatched one once a
    site holds more than ``max_variants``."""

    __slots__ = ("max_variants",)

    def __init__(self, max_variants: int):
        super().__init__()
        self.max_variants = max(1, int(max_variants))

    def lookup(self, method: JMethod, entry) -> Optional[Variant]:
        variants = self.get(method)
        variant = variants.pop(entry, None) if variants else None
        if variant is not None:
            variants[entry] = variant
        return variant

    def install(self, method: JMethod, entry, variant: Variant):
        """Install (or replace) a variant; returns the continuation
        entry the site cap pushed out (still installed — the caller
        retires it), else None."""
        variants = self.setdefault(method, {})
        variants.pop(entry, None)
        variants[entry] = variant
        if is_continuation_entry(entry):
            site = self._site(variants, entry[1])
            if len(site) > self.max_variants:
                return site[0]
        return None

    def remove(self, method: JMethod, entry) -> Optional[Variant]:
        variants = self.get(method)
        return variants.pop(entry, None) if variants else None

    def site_count(self, method: JMethod, bci: int) -> int:
        return len(self._site(self.get(method, {}), bci))

    @staticmethod
    def _site(variants: Dict[Any, Variant], bci: int) -> List[Any]:
        return [entry for entry in variants
                if is_continuation_entry(entry) and entry[1] == bci]
