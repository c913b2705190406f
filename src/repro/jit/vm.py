"""The tiered virtual machine.

Methods start in the bytecode interpreter (collecting invocation and
branch profiles); once a method's invocation count crosses the compile
threshold it is compiled with the configured pipeline and subsequent
calls execute the optimized graph.  Tiering is two-axis: loop backedges
are counted too, and a loop that crosses ``osr_threshold`` while its
method is still interpreted tiers up mid-method through on-stack
replacement (an OSR entry variant of the graph whose entry is the loop
header, seeded from the interpreter frame).  Guards that fail
deoptimize back to the interpreter through
:class:`~repro.runtime.deopt.Deoptimizer`.

All compiled code shares one lifecycle.  Every installed variant is
keyed by ``(method, entry)`` — ``entry`` is ``None`` for the method
entry, a loop-header bci for an OSR entry, or a deoptless continuation
descriptor — and goes through the same steps: :meth:`VM._compile` (or
the compile service, ending in :meth:`VM._service_install`) produces a
result, :meth:`VM._install` binds and publishes it,
:meth:`VM._revalidated` re-checks OSR and continuation code after a
deopt, and :meth:`VM._retire` drops it.  The variant table is the one
record of installed code, and one failure table keyed the same way
records failed compiles (:meth:`VM._compile_failed`).

Every engine shares one :class:`~repro.bytecode.heap.Heap`, so the
allocation/monitor statistics of Table 1 are configuration-comparable.
"""

from __future__ import annotations

import logging
import sys
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..bytecode.classfile import JMethod, Program
from ..bytecode.heap import Heap, HeapStats
from ..bytecode.instructions import MethodRef
from ..bytecode.interpreter import NO_OSR, Interpreter, Profile
from ..runtime.codegen import CodegenError
from ..runtime.costmodel import ExecutionStats
from ..runtime.deopt import Deoptimizer
from ..runtime.graph_interpreter import GraphInterpreter
from ..runtime.plan import PlanError
from .cache import CompilationCache, validate_facts
from .compiler import CompilationResult, Compiler
from .deoptless import (DeoptlessStats, Variant, VariantTable,
                        continuation_entry, derive_context, failure_entry,
                        is_continuation_entry)
from .listeners import VMListener
from .options import CompilerConfig

_MIN_RECURSION_LIMIT = 40_000

#: Deoptimizations of one method before its code is thrown away and
#: recompiled without the failed assumption.
DEOPT_INVALIDATE_THRESHOLD = 3

#: Deoptless continuations per deopt site; an install past it retires
#: the least recently dispatched one.
DEOPTLESS_MAX_VARIANTS = 4

#: Ceiling on nested deoptless dispatches (a continuation deopting into
#: a continuation into ...): past it the interpreter bridges, so a
#: pathological guard chain cannot grow the Python stack unboundedly.
_MAX_DISPATCH_DEPTH = 8

_log = logging.getLogger("repro.jit.service")

#: Ceiling on one blocking wait for a compile-service reply; past it
#: the service is declared lost and the VM compiles in-process.
_SERVICE_WAIT_TIMEOUT = 120.0

#: ``(method, entry)``: the key of one piece of installed code.
VariantKey = Tuple[JMethod, Any]


class VM:
    """One program + one configuration, ready to run."""

    def __init__(self, program: Program, config: CompilerConfig,
                 cache: Optional[CompilationCache] = None,
                 service=None):
        if sys.getrecursionlimit() < _MIN_RECURSION_LIMIT:
            sys.setrecursionlimit(_MIN_RECURSION_LIMIT)
        self.program = program
        self.config = config
        self.cache = cache
        from ..runtime.gcsim import GCSim
        self.heap = Heap(program,
                         gc=GCSim.from_cost_model(config.cost_model))
        self.heap.gc.on_collection = self._handle_gc
        self.profile = Profile()
        self.interpreter = Interpreter(program, self.heap, self.profile)
        self.interpreter.dispatcher = self.call_method
        self.deoptimizer = Deoptimizer(program, self.heap,
                                       self.interpreter,
                                       notify=self._handle_deopt)
        self.exec_stats = ExecutionStats()
        self.graph_interpreter = GraphInterpreter(
            program, self.heap, self._invoke_callback, self.deoptimizer,
            config.cost_model, self.exec_stats,
            config.collect_node_histogram)
        self.compiler = Compiler(program, config, self.profile, cache)
        #: Every installed code variant with its bound entry point,
        #: ``method -> {entry: Variant}``; continuations are LRU-capped
        #: per deopt site.  The one record of installed code.
        self._variants = VariantTable(DEOPTLESS_MAX_VARIANTS)
        #: Failed compiles, ``method -> {failure_entry(entry): reason}``:
        #: a method entry stays interpreted, a loop header keeps
        #: interpreting its loop, a deopt site takes the plain deopt.
        self._failed: Dict[JMethod, Dict[Any, str]] = {}
        #: Installs that could not bind the configured backend's own
        #: lowering and run on the GraphInterpreter instead.
        self.backend_fallbacks = 0
        #: Completed OSR transfers (observability; not a suite metric).
        self.osr_entries = 0
        self._interpreter_steps_counted = 0
        #: GC pause cycles already folded into ``exec_stats.cycles``
        #: (mirror of the interpreter-steps pattern above: the
        #: simulated collector accumulates pauses in its own stats and
        #: the VM syncs the delta in at snapshot points).
        self._gc_pause_cycles_counted = 0
        self.deopt_counts: Dict[JMethod, int] = {}
        self.invalidations = 0
        #: Per-method deopt epoch: bumped on every deopt, compared
        #: against the epoch an OSR variant / continuation was last
        #: validated at, so stale speculative code is re-checked against
        #: the live profile before being re-entered (instead of
        #: deopt-cycling until the invalidate threshold).
        self._deopt_epoch: Dict[JMethod, int] = {}
        self.deoptless = DeoptlessStats()
        self._dispatch_depth = 0
        self._listeners: List[VMListener] = []
        if config.osr:
            self.interpreter.osr_handler = self._handle_osr
        if config.deoptless:
            self.deoptimizer.dispatch = self._dispatch_deopt
        #: Compile-service client (background tier-up).  Either injected
        #: (tests, the fleet benchmark) or constructed from
        #: ``config.compile_service``; ``None`` means in-process
        #: compilation — including after a service failure, which is
        #: logged once and demotes the VM to in-process mode for good.
        self._service = service
        #: Compile requests in flight (value: request id).
        self._service_pending: Dict[VariantKey, int] = {}
        #: Targets resubmitted after a stale reply (one resubmission
        #: with a fresh profile snapshot, then in-process fallback).
        self._service_retried: Set[VariantKey] = set()
        #: Replies installed / in-process fallbacks (observability).
        self.service_installs = 0
        self.service_fallbacks = 0
        if self._service is None and config.compile_service:
            from .client import ServiceClient
            try:
                self._service = ServiceClient(config.compile_service)
            except Exception as exc:  # noqa: BLE001 - connect refused
                self._service_lost(exc)
        if self._service is not None:
            try:
                self._service.register(program)
            except Exception as exc:  # noqa: BLE001
                self._service_lost(exc)

    # -- listeners --------------------------------------------------------

    def add_listener(self, listener: VMListener) -> VMListener:
        """Register a :class:`~repro.jit.listeners.VMListener`; events
        fire in registration order.  Returns the listener (chaining)."""
        self._listeners.append(listener)
        return listener

    def remove_listener(self, listener: VMListener) -> None:
        self._listeners.remove(listener)

    def _emit(self, event: str, *args) -> None:
        for listener in self._listeners:
            getattr(listener, event)(*args)

    # -- public -----------------------------------------------------------

    def call(self, qualified: str, *args) -> Any:
        """Invoke ``"Class.method"`` with *args* through the tiers."""
        return self.call_method(self.program.method(qualified),
                                list(args))

    def call_method(self, method: JMethod, args: List[Any]) -> Any:
        # The single invocation-counting point: every call — from the
        # host, from interpreted frames (via the interpreter's
        # dispatcher), or from compiled code — lands here and counts
        # exactly once, whichever tier executes it.  Counting anywhere
        # tier-dependent would make tiering decisions depend on which
        # tier the *caller* happened to run in.  _should_compile reads
        # the count before this call is added ("N prior invocations").
        if method.is_native:
            self.profile.record_invocation(method)
            self.exec_stats.cycles += (
                self.config.cost_model.invoke_overhead
                + method.native_cycle_cost)
            return method.native_impl(self.interpreter, args)
        variants = self._variants.get(method)
        variant = variants.get(None) if variants else None
        if variant is None and self._should_compile(method):
            variant = self._tier_up(method, None)
        self.profile.record_invocation(method)
        if variant is not None:
            return variant.entry(args)
        return self._execute_interpreted(method, args)

    @property
    def compiled(self) -> Dict[JMethod, CompilationResult]:
        """The installed method entries' results, derived from the
        variant table (a fresh dict; writing it changes nothing)."""
        return {method: variants[None].result
                for method, variants in self._variants.items()
                if None in variants}

    def compile_now(self, qualified: str,
                    entry=None) -> Optional[CompilationResult]:
        """The code for *qualified* at *entry* (``None``: the method
        entry, else an OSR loop header), compiled now unless installed
        (tests, the harness's warm-up replay); ``None`` when the entry
        failed to compile (:meth:`_compile_failed`)."""
        method = self.program.method(qualified)
        variants = self._variants.get(method)
        variant = variants.get(entry) if variants else None
        if variant is None and not self._has_failed(method, entry):
            variant = self._compile(method, entry)
        return variant.result if variant is not None else None

    def heap_snapshot(self) -> HeapStats:
        return self.heap.stats.copy()

    def gc_snapshot(self):
        """Cumulative :class:`repro.runtime.gcsim.GCStats` copy."""
        return self.heap.gc.stats.copy()

    def cycles_snapshot(self) -> float:
        self._sync_interpreter_cycles()
        self._sync_gc_cycles()
        return self.exec_stats.cycles

    # -- tiers -------------------------------------------------------------------

    def _should_compile(self, method: JMethod) -> bool:
        if not method.code or None in self._failed.get(method, ()):
            return False
        return (self.profile.invocation_count(method)
                >= self.config.compile_threshold)

    def _handle_osr(self, method: JMethod, bci: int,
                    locals_: List[Any]) -> Any:
        """Interpreter backedge hook: count the backedge, and past the
        OSR threshold transfer control into the compiled OSR variant.
        Returns :data:`~repro.bytecode.interpreter.NO_OSR` to keep
        interpreting, else the method's result."""
        count = self.profile.record_backedge(method, bci)
        variants = self._variants.get(method)
        variant = variants.get(bci) if variants else None
        if variant is not None:
            variant = self._revalidated(method, bci, variant)
        if variant is None:
            if count < self.config.osr_threshold or \
                    method.is_synchronized or \
                    bci in self._failed.get(method, ()):
                return NO_OSR
            variant = self._tier_up(method, bci)
            if variant is None:
                return NO_OSR
        self.osr_entries += 1
        self.profile.record_osr_entry(method, bci)
        return variant.entry([locals_[slot] for slot in
                              variant.result.graph.osr_local_slots])

    def _dispatch_deopt(self, frame_state, locals_: List[Any],
                        stack: List[Any]) -> Tuple[bool, Any]:
        """Deoptimizer hook (``config.deoptless``): instead of handing
        the innermost rematerialized frame to the interpreter, derive
        the dispatch context from the failing state and transfer into a
        continuation specialized for it — compiling one on first miss.
        Returns ``(True, result)`` on a dispatch hit, ``(False, None)``
        to fall back to the plain interpreter bridge."""
        method = frame_state.method
        if method.is_synchronized or not method.code or \
                self._dispatch_depth >= _MAX_DISPATCH_DEPTH:
            return False, None
        bci = frame_state.bci
        context = derive_context(method, bci, locals_, stack)
        if context is None:
            return False, None
        # Record what the interpreter bridge would have recorded at the
        # deopt site.  The continuation executes compiled code, so
        # without this the profile never learns the flipped behavior
        # and every post-invalidation recompile re-speculates the same
        # falsified direction — deoptless would bridge the deopt cycle
        # *forever* instead of until the unspeculated recompile.
        kind, site, observed = context
        if kind == "branch":
            self.profile.record_branch(method, site, observed)
        elif kind == "receiver":
            self.profile.record_receiver(method, site, observed)
        entry = continuation_entry(bci, len(stack), context)
        variant = self._variants.lookup(method, entry)
        if variant is not None:
            variant = self._revalidated(method, entry, variant)
        if variant is None and not self._has_failed(method, entry):
            variant = self._tier_up(method, entry)
        if variant is None:
            self.deoptless.dispatch_misses += 1
            self._emit("on_dispatch", method, bci, context, False)
            return False, None
        self.deoptless.dispatches += 1
        self._emit("on_dispatch", method, bci, context, True)
        args = [locals_[slot]
                for slot in variant.result.graph.osr_local_slots]
        args.extend(stack)
        self._dispatch_depth += 1
        try:
            return True, variant.entry(args)
        finally:
            self._dispatch_depth -= 1

    # -- the code-variant lifecycle ------------------------------------------

    def _tier_up(self, method: JMethod, entry) -> Optional[Variant]:
        """Produce code for ``(method, entry)``: through the compile
        service when one is attached, else in-process."""
        if self._service is not None:
            return self._service_compile(method, entry)
        return self._compile(method, entry)

    def _compile(self, method: JMethod, entry=None) -> Optional[Variant]:
        """Compile ``(method, entry)`` in-process and install it."""
        try:
            result = self.compiler.compile(method, osr_bci=entry)
        except Exception as exc:  # noqa: BLE001 - compile bailout
            self._compile_failed(method, entry,
                                 f"{type(exc).__name__}: {exc}", exc)
            return None
        return self._install(method, entry, result)

    def _compile_failed(self, method: JMethod, entry, reason: str,
                        error: Optional[Exception] = None) -> None:
        """Record a failed compile of ``(method, entry)``: in-process
        (*error*) or a compile-service reply.  A ``GraphBuildError`` at
        an OSR or continuation entry means "not enterable here" (e.g.
        an inner loop's header): it keeps interpreting.  Anything else
        is a compiler bug and raises."""
        self._failed.setdefault(method, {})[failure_entry(entry)] = reason
        if entry is not None and reason.startswith("GraphBuildError"):
            return
        if error is not None:
            raise error
        raise RuntimeError(
            f"{method.qualified_name} failed to compile: {reason}")

    def _has_failed(self, method: JMethod, entry) -> bool:
        return failure_entry(entry) in self._failed.get(method, ())

    def _install(self, method: JMethod, entry,
                 result: CompilationResult) -> Variant:
        """Atomically adopt a compilation of ``(method, entry)`` — from
        the local compiler or a compile-service reply: the result and
        its bound lowering are published together, so the next call,
        backedge or dispatch runs it."""
        variant = Variant(result, self._bind(result),
                          self._deopt_epoch.get(method, 0))
        pushed_out = self._variants.install(method, entry, variant)
        if entry is None:
            event = ("on_compile", method, result)
        elif is_continuation_entry(entry):
            if pushed_out is not None:
                self._retire(method, pushed_out)
            self.deoptless.continuation_compiles += 1
            event = ("on_continuation_compile", method, entry[1],
                     entry[3], result)
        else:
            event = ("on_osr_compile", method, entry, result)
        if result.cache_hit:
            self._emit("on_cache_hit", method, result.cache_entry)
        self._emit(*event)
        return variant

    def _bind(self, result: CompilationResult
              ) -> Callable[[List[Any]], Any]:
        """Bind the lowering *result* carries to this VM, else run it
        on the GraphInterpreter (a backend fallback unless the legacy
        backend is configured)."""
        if result.lowering is not None:
            try:
                return result.lowering.bind(
                    self.heap, self.exec_stats, self._invoke_callback,
                    self.deoptimizer,
                    self.config.collect_node_histogram).execute
            except (CodegenError, PlanError):
                pass
        if self.config.execution_backend != "legacy":
            self.backend_fallbacks += 1
        return partial(self.graph_interpreter.execute, result.graph)

    def _revalidated(self, method: JMethod, entry,
                     variant: Variant) -> Optional[Variant]:
        """Re-validate installed OSR or continuation code after a deopt.

        Without this, a deopt *inside* OSR'd loop code left the stale
        variant installed: the interpreter's very next backedge
        re-entered it, it deopted again, and the loop paid a
        remat+deopt cycle per iteration until the invalidate threshold
        tripped.  Comparing the method's deopt epoch costs one dict
        read per entry; when it moved, the variant's recorded facts
        are checked against the live profile — still valid refreshes
        the epoch, falsified retires the variant immediately so the
        caller rebuilds it against the updated profile.  The backedge
        counter is cumulative (never reset), so the re-tiering starts
        hot: the rebuild happens on this very backedge, not after a
        second warm-up."""
        epoch = self._deopt_epoch.get(method, 0)
        if variant.epoch == epoch:
            return variant
        if validate_facts(variant.result.facts, self.program,
                          self.profile):
            variant.epoch = epoch
            return variant
        self._retire(method, entry)
        return None

    def _retire(self, method: JMethod, entry) -> None:
        """Uninstall ``(method, entry)`` and evict its cache entry, so
        the dropped code cannot be re-served (locally or fleet-wide)."""
        variant = self._variants.remove(method, entry)
        if is_continuation_entry(entry):
            self.deoptless.retirements += 1
        record = variant.result.cache_entry
        if record is None:
            return
        if self.cache is not None:
            # The post-deopt profile changes the speculation facts, so
            # the cached entry could never validate again — and a
            # *different* VM whose profile still matches would re-import
            # the failed speculation.  Evict it.
            self.cache.evict(record.key, record.facts)
        if self._service is not None:
            # Broadcast the same eviction to the shared service cache,
            # so the fleet cannot be re-served the failed speculation.
            try:
                self._service.evict(record.key, record.facts)
            except Exception as exc:  # noqa: BLE001
                self._service_lost(exc)

    def _invalidate(self, method: JMethod, reason: str) -> None:
        """Throw away *method*'s compiled code — the method entry and
        every OSR variant (they embed the same failed speculation) —
        and evict the backing cache entries."""
        # Deoptless continuation variants survive invalidation: their
        # specialization is context-keyed (an assumption, not a profile
        # fact), so the falsified speculation that killed the method
        # entry is exactly what they exist to bridge.  Their *other*
        # facts are epoch-revalidated at the next dispatch.
        for entry in [entry for entry in self._variants.get(method, ())
                      if not is_continuation_entry(entry)]:
            self._retire(method, entry)
        self.deopt_counts[method] = 0
        self.invalidations += 1
        self._emit("on_invalidate", method, reason)

    # -- compile service (background tier-up) ------------------------------

    def _service_compile(self, method: JMethod,
                         entry) -> Optional[Variant]:
        """Tier up through the compile service: install any replies
        that already arrived, and if ``(method, entry)`` still has no
        code, make sure a request is in flight — then keep interpreting
        (or block for the reply under ``compile_service_wait``).  A
        continuation descriptor rides the ``entry_bci`` wire field
        (pickle framing keeps it intact) and keys the shared cache, so
        one fleet member's continuation serves the others."""
        self._service_drain()
        variant = self._variants.lookup(method, entry)
        if variant is not None:  # the drain just installed it
            return variant
        if self._has_failed(method, entry):
            return None
        if self._service is None:  # lost during drain
            return self._compile(method, entry)
        key = (method, entry)
        if key not in self._service_pending:
            rid = self._service_submit(method, entry)
            if rid is None:  # lost at submit
                return self._compile(method, entry)
            self._service_pending[key] = rid
        if self.config.compile_service_wait:
            self._service_wait_for([key])
            return self._variants.lookup(method, entry)
        return None

    def _service_submit(self, method: JMethod,
                        entry_bci) -> Optional[int]:
        try:
            return self._service.submit(
                self.program, method.qualified_name, self.config,
                self.profile.snapshot(), entry_bci)
        except Exception as exc:  # noqa: BLE001 - connection failure
            self._service_lost(exc)
            return None

    def _service_drain(self) -> None:
        """Install every service reply that has already arrived."""
        if self._service is None:
            return
        try:
            replies = self._service.poll()
        except Exception as exc:  # noqa: BLE001
            self._service_lost(exc)
            return
        for reply in replies:
            self._service_install(reply)

    def _service_wait_for(self, keys: List[VariantKey],
                          timeout: float = _SERVICE_WAIT_TIMEOUT) -> None:
        """Block until the requests for *keys* resolve (installed,
        marked uncompilable, or the service is lost), then compile
        whatever is still unresolved in-process, so the caller always
        makes progress."""
        deadline = time.monotonic() + timeout
        while self._service is not None and \
                any(key in self._service_pending for key in keys):
            try:
                replies = self._service.wait_any(
                    timeout=max(0.05, deadline - time.monotonic()))
            except Exception as exc:  # noqa: BLE001
                self._service_lost(exc)
                break
            if not replies and time.monotonic() >= deadline:
                self._service_lost(TimeoutError(
                    "compile service reply timed out"))
                break
            for reply in replies:
                self._service_install(reply)
        for method, entry in keys:
            if self._variants.lookup(method, entry) is None and \
                    not self._has_failed(method, entry):
                self.service_fallbacks += 1
                self._compile(method, entry)

    def finish_pending_compiles(
            self, timeout: float = _SERVICE_WAIT_TIMEOUT) -> None:
        """Drain every in-flight compile request and install the
        replies — the deterministic barrier the benchmark harness puts
        between warm-up and the measured window, so background tier-up
        cannot move compile points into (or out of) the measurement.
        Targets still unresolved after a service loss are compiled
        in-process.  No-op without a service."""
        self._service_wait_for(list(self._service_pending), timeout)

    def _service_install(self, reply) -> None:
        """Atomically install one compile-service reply.

        The reply's speculation facts are re-validated against the
        *live* profile first: an invalidation that raced the
        compilation (the deopt changed a branch decision after the
        snapshot was taken) fails validation here, the stale payload is
        discarded, and the request is resubmitted once with a fresh
        snapshot — after which the VM compiles in-process, so progress
        is guaranteed.  A payload that is not transportable
        ("compilation not cacheable") or does not decode is compiled
        in-process too — same policy as a cache that declines to
        store."""
        try:
            method = self.program.method(reply.qualified)
        except Exception:  # noqa: BLE001 - unknown method in reply
            return
        entry = reply.entry_bci
        key = (method, entry)
        self._service_pending.pop(key, None)
        if reply.error is not None and \
                reply.error != "compilation not cacheable":
            self._service_retried.discard(key)
            self._compile_failed(method, entry, reply.error)
            return
        result = None
        if reply.error is None:
            if not validate_facts(reply.entry.facts, self.program,
                                  self.profile):
                if key not in self._service_retried and \
                        self._service is not None:
                    self._service_retried.add(key)
                    rid = self._service_submit(method, entry)
                    if rid is not None:
                        self._service_pending[key] = rid
                        return
                # Second stale reply (or no service): the profile is
                # moving faster than the round trip.
            else:
                try:
                    result = self.compiler.result_from_service(
                        method, reply.entry, osr_bci=entry)
                except Exception:  # noqa: BLE001 - undecodable payload
                    pass
        self._service_retried.discard(key)
        if result is None:
            self.service_fallbacks += 1
            self._compile(method, entry)
            return
        self.service_installs += 1
        self._install(method, entry, result)

    def _service_lost(self, exc: BaseException) -> None:
        """Demote to in-process compilation, once, with one log line —
        the service is an accelerator, never a correctness
        dependency."""
        service, self._service = self._service, None
        if service is not None:
            try:
                service.close()
            except Exception:  # noqa: BLE001
                pass
        self._service_pending.clear()
        self._service_retried.clear()
        _log.warning(
            "compile service unavailable (%s: %s); falling back to "
            "in-process compilation", type(exc).__name__, exc)

    # -- execution and bookkeeping -----------------------------------------

    def _execute_interpreted(self, method: JMethod,
                             args: List[Any]) -> Any:
        self.exec_stats.interpreted_invocations += 1
        try:
            return self.interpreter.invoke(method, args)
        finally:
            self._sync_interpreter_cycles()

    def _sync_interpreter_cycles(self):
        steps = self.interpreter.stats.steps
        new_steps = steps - self._interpreter_steps_counted
        if new_steps:
            self._interpreter_steps_counted = steps
            self.exec_stats.interpreter_steps += new_steps
            self.exec_stats.cycles += (
                new_steps * self.config.cost_model.interpreter_step)

    def _sync_gc_cycles(self):
        """Fold minor-collection pauses accumulated by the simulated
        collector into the cycle total (single integer-valued addition
        per sync point, so the float total stays deterministic across
        backends)."""
        pauses = self.heap.gc.stats.pause_cycles
        new_pauses = pauses - self._gc_pause_cycles_counted
        if new_pauses:
            self._gc_pause_cycles_counted = pauses
            self.exec_stats.cycles += new_pauses

    def _handle_gc(self, minor: int, pause_cycles: int,
                   promoted_bytes: int) -> None:
        self._emit("on_gc", minor, pause_cycles, promoted_bytes)

    def _handle_deopt(self, root_method: JMethod, state) -> None:
        """Invalidate code that keeps deoptimizing; the next compilation
        sees the updated profile and drops the failed speculation."""
        self._emit("on_deopt", root_method, state)
        self._deopt_epoch[root_method] = \
            self._deopt_epoch.get(root_method, 0) + 1
        count = self.deopt_counts.get(root_method, 0) + 1
        self.deopt_counts[root_method] = count
        if count >= DEOPT_INVALIDATE_THRESHOLD and any(
                not is_continuation_entry(entry)
                for entry in self._variants.get(root_method, ())):
            self._invalidate(root_method, "deopt-threshold")

    def _invoke_callback(self, kind: str, ref: MethodRef,
                         args: List[Any]) -> Any:
        if kind == "virtual":
            receiver = args[0]
            callee = self.program.resolve_virtual(receiver.class_name,
                                                  ref.method_name)
        else:
            callee = self.program.resolve_method(ref.class_name,
                                                 ref.method_name)
        return self.call_method(callee, args)
