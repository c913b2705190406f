"""Convenience front door: source text -> verified :class:`Program`."""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Callable, Dict, Optional

from ..bytecode import Program, verify_program
from .codegen import generate_program
from .parser import parse
from .typechecker import typecheck

#: Source-text -> pristine verified Program memo.  The language frontend
#: (parse, typecheck, codegen, bytecode verify) is deterministic in the
#: source text, so its output can be cloned instead of rebuilt — the
#: fuzzer compiles each program eight times (``check_source``'s verifier
#: compile, then once per engine) and the benchmark harness once per
#: configuration.  A clone (:meth:`Program.clone`) has its own classes,
#: fields, methods, code lists and statics and shares only the frozen
#: instructions.  Bounded LRU; disable with ``REPRO_NO_SOURCE_MEMO=1``.
_MEMO_CAPACITY = 64
_memo: "OrderedDict[str, Program]" = OrderedDict()


def compile_source(source: str,
                   natives: Optional[Dict[str, Callable]] = None,
                   verify: bool = True) -> Program:
    """Compile *source* into a verified bytecode :class:`Program`.

    *natives* maps ``"Class.method"`` to a Python callable
    ``(interpreter, args) -> value`` implementing a ``native`` method
    declared in the source, or to a ``(callable, cycle_cost)`` tuple
    when the native models an expensive precompiled kernel on the
    simulated machine.

    Every call returns a **private** Program (a clone of the memoized
    build), so callers may mutate theirs freely — statics, profiles and
    native bindings never leak between the fuzzer's engines or the
    harness's configurations.
    """
    program = _frontend(source, verify)
    if natives:
        for qualified, impl in natives.items():
            method = program.method(qualified)
            if not method.is_native:
                raise ValueError(f"{qualified} is not declared native")
            if isinstance(impl, tuple):
                method.native_impl, method.native_cycle_cost = impl
            else:
                method.native_impl = impl
        # Direct attribute writes bypass _invalidate_caches; the content
        # fingerprint covers native presence/cost, so drop it explicitly.
        program._content_fingerprint = None
    return program


def _frontend(source: str, verify: bool) -> Program:
    if not verify or os.environ.get("REPRO_NO_SOURCE_MEMO"):
        return _build(source, verify)
    cached = _memo.get(source)
    if cached is None:
        cached = _build(source, verify)
        _memo[source] = cached
        while len(_memo) > _MEMO_CAPACITY:
            _memo.popitem(last=False)
    else:
        _memo.move_to_end(source)
    # The memo stores only pristine (natives-free) programs; natives are
    # bound on the caller's clone.
    return cached.clone()


def _build(source: str, verify: bool) -> Program:
    unit = parse(source)
    checker = typecheck(unit)
    program = generate_program(checker, unit)
    if verify:
        verify_program(program)
    return program
