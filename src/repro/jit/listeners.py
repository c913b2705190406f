"""Typed VM event listeners.

VM events (compilations, deopts, invalidations, cache hits, ...) are a
typed protocol.  Subclass :class:`VMListener`, override the events you
care about, and register with :meth:`repro.jit.vm.VM.add_listener` —
unknown events stay no-ops, so listeners keep working as the VM grows
new ones.  A listener is the only way to observe deoptimization; the
``Deoptimizer`` has no public hook.
"""

from __future__ import annotations


class VMListener:
    """Base class/protocol for VM lifecycle events.

    Every hook is a no-op by default.  Events fire synchronously on the
    VM's thread, in listener registration order.
    """

    def on_compile(self, method, result) -> None:
        """*method* was compiled at its normal entry; *result* is the
        :class:`~repro.jit.compiler.CompilationResult`."""

    def on_osr_compile(self, method, bci: int, result) -> None:
        """An on-stack-replacement variant of *method* entering at loop
        header *bci* was compiled."""

    def on_deopt(self, method, state) -> None:
        """Compiled code of *method* deoptimized at frame state
        *state* (the innermost state; ``state.outer_chain()`` walks the
        inlined frames)."""

    def on_invalidate(self, method, reason: str) -> None:
        """*method*'s compiled code (normal entry and every OSR
        variant) was thrown away; *reason* is a short tag such as
        ``"deopt-threshold"``."""

    def on_cache_hit(self, method, entry) -> None:
        """A compilation of *method* was served from the compilation
        cache; *entry* is the :class:`~repro.jit.cache.CacheEntry`."""

    def on_continuation_compile(self, method, bci: int, context,
                                result) -> None:
        """A deoptless continuation of *method* entering at deopt site
        *bci*, specialized against dispatch *context* (see
        :mod:`repro.jit.deoptless`), was compiled; *result* is the
        :class:`~repro.jit.compiler.CompilationResult`."""

    def on_dispatch(self, method, bci: int, context, hit: bool) -> None:
        """A deopt of *method* at *bci* reached the deoptless dispatch
        point with *context*.  ``hit=True`` means execution transferred
        into a matching continuation variant; ``hit=False`` means no
        variant matched (yet) and the interpreter bridged this deopt."""

    def on_gc(self, minor: int, pause_cycles: int,
              promoted_bytes: int) -> None:
        """The simulated generational collector
        (:mod:`repro.runtime.gcsim`) ran minor collection number
        *minor* (cumulative count for this VM), pausing the simulated
        machine for *pause_cycles* and promoting *promoted_bytes* to
        the old generation."""
