"""The stable, user-facing facade.

Everything a typical embedder needs lives here and keeps working as the
internals move: pass MJ source (or an already-built
:class:`~repro.bytecode.classfile.Program`) to :func:`compile`, get a
:class:`CompiledProgram` wired to a tiered VM, and call into it.  The
deeper modules (``repro.jit``, ``repro.frontend``, ``repro.pea``, ...)
remain importable for research code that wants the internals, but their
layout is not a stability contract — this module is.

Quickstart::

    from repro import api

    prog = api.compile(SOURCE)                  # PEA config by default
    print(prog.run("Main.entry", 100))          # tiered execution
    print(prog.heap_stats().allocations)

    # one-shot
    print(api.run(SOURCE, "Main.entry", 100))

    # observe VM events through the typed listener protocol
    class Tracer(api.VMListener):
        def on_osr_compile(self, method, bci, result):
            print("OSR", method.qualified_name, "@", bci)
    prog.vm.add_listener(Tracer())
"""

from __future__ import annotations

from typing import Any, Optional, Union

from .bytecode.classfile import Program
from .bytecode.heap import HeapStats
from .jit import (CompilationCache, CompilationResult, CompileService,
                  CompilerConfig, ServiceClient, TierSpec, VM, VMListener,
                  default_cache_dir)
from .lang import compile_source
from .runtime.gcsim import GCSim, GCStats

__all__ = ["CompilationCache", "CompilationResult", "CompileService",
           "CompiledProgram", "CompilerConfig", "GCSim", "GCStats",
           "ServiceClient", "TierSpec", "VM", "VMListener", "compile",
           "compile_source", "default_cache_dir", "run"]


class CompiledProgram:
    """A program plus the tiered VM that runs it.

    Thin by design: :attr:`program`, :attr:`config` and :attr:`vm` are
    public, so anything not wrapped here stays one attribute away."""

    def __init__(self, program: Program, config: CompilerConfig,
                 cache: Optional[CompilationCache] = None):
        self.program = program
        self.config = config
        self.vm = VM(program, config, cache=cache)

    def run(self, entry: str, *args) -> Any:
        """Invoke ``"Class.method"`` through the tiers (interpreter
        first; compiled — including OSR'd loops — once hot)."""
        return self.vm.call(entry, *args)

    def warm_up(self, entry: str, *args, calls: int = 1,
                reset_statics: bool = True) -> None:
        """Run *entry* repeatedly so it gets profiled and compiled."""
        for _ in range(calls):
            self.vm.call(entry, *args)
            if reset_statics:
                self.program.reset_statics()

    def compile_method(self, qualified: str) -> CompilationResult:
        """Force compilation of ``"Class.method"`` right now."""
        return self.vm.compile_now(qualified)

    def heap_stats(self) -> HeapStats:
        return self.vm.heap_snapshot()

    def gc_stats(self) -> GCStats:
        """Cumulative simulated-collector counters (minor collections,
        pause cycles, promoted bytes — see
        :class:`repro.runtime.gcsim.GCStats`).  Per-collection events
        arrive through :meth:`VMListener.on_gc`."""
        return self.vm.gc_snapshot()

    def add_listener(self, listener: VMListener) -> VMListener:
        """Register a typed :class:`VMListener` on the VM."""
        return self.vm.add_listener(listener)


def compile(source_or_program: Union[str, Program],  # noqa: A001
            config: Optional[CompilerConfig] = None,
            cache: Optional[CompilationCache] = None,
            natives=None) -> CompiledProgram:
    """Build a :class:`CompiledProgram` from MJ source text or an
    existing :class:`Program`.

    *config* defaults to the paper's
    ``CompilerConfig.partial_escape()``; *cache* (optional) shares
    compiled graphs across programs and processes."""
    if isinstance(source_or_program, Program):
        program = source_or_program
    else:
        program = compile_source(source_or_program, natives=natives)
    return CompiledProgram(program,
                           config or CompilerConfig.partial_escape(),
                           cache=cache)


def run(source_or_program: Union[str, Program], entry: str, *args,
        config: Optional[CompilerConfig] = None,
        cache: Optional[CompilationCache] = None,
        warmup: int = 0) -> Any:
    """One-shot: compile, optionally warm up, and invoke *entry*."""
    prog = compile(source_or_program, config=config, cache=cache)
    if warmup:
        prog.warm_up(entry, *args, calls=warmup)
    return prog.run(entry, *args)
