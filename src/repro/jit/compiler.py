"""The compilation pipeline: bytecode -> optimized graph.

Mirrors Graal's structure: graph building, inlining, canonicalization and
global value numbering, then what the configuration's escape tier runs
(its row of :data:`~repro.jit.options.ESCAPE_TIERS`: an escape
analysis, the summaries that feed it, stack allocation after it), then
cleanup.

When given a :class:`~repro.jit.cache.CompilationCache`, the compiler
becomes memoizing: it derives each compilation's content-addressed key
once (:meth:`Compiler.key`), records every profile fact the
pipeline consumes (through a :class:`~repro.jit.cache.RecordingProfile`)
and stores the optimized graph under that key; later compilations of
the same method under the same configuration — from this compiler or
any other sharing the cache — reuse the stored graph when the recorded
facts still hold against their own profile.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from ..bytecode.classfile import JMethod, Program
from ..bytecode.interpreter import Profile
from ..frontend.graph_builder import build_graph
from ..ir.graph import Graph
from ..opt.canonicalize import CanonicalizerPhase
from ..opt.conditional_elimination import ConditionalEliminationPhase
from ..opt.dce import DeadCodeEliminationPhase
from ..opt.gvn import GlobalValueNumberingPhase
from ..opt.inlining import InliningPhase, InliningPolicy
from ..opt.phase import PhasePlan
from ..pea.equi_escape import EquiEscapePhase
from ..pea.partial_escape import PartialEscapePhase, PEAResult
from ..runtime.codegen import CodegenError, CodegenPlan
from ..runtime.plan import ExecutionPlan, PlanError
from .cache import CacheEntry, CompilationCache, RecordingProfile
from .deoptless import is_continuation_entry
from .options import ESCAPE_TIERS, CompilerConfig


#: The configured backend's lowering of a graph.
Lowering = Union[ExecutionPlan, CodegenPlan]

#: backend -> (lowering class, the error it raises when it cannot lower).
_LOWERINGS = {"plan": (ExecutionPlan, PlanError),
              "codegen": (CodegenPlan, CodegenError)}


@dataclass
class CompilationResult:
    graph: Graph
    #: Stats from the escape analysis (empty result when disabled).
    ea_result: PEAResult
    node_count: int
    #: The configured backend's lowering of the graph; ``None`` under
    #: the legacy backend or when the graph cannot be lowered (the VM
    #: then runs this method on the GraphInterpreter).
    lowering: Optional[Lowering] = None
    #: Cache entry this result came from / was stored under, so deopt
    #: invalidation can evict it.  ``None`` when caching is off.
    cache_entry: Optional[CacheEntry] = None
    #: True when this result was served from the cache.
    cache_hit: bool = False
    #: The profile facts this compilation consumed (speculations the
    #: optimized code depends on).  Recorded whether or not a cache is
    #: attached, so the VM can re-validate installed code against the
    #: live profile (stale-OSR retirement, continuation dispatch).
    facts: tuple = ()

    @property
    def plan(self) -> Optional[ExecutionPlan]:
        """The threaded-code lowering, if that is what the result has."""
        return self.lowering if isinstance(self.lowering,
                                           ExecutionPlan) else None

    @property
    def codegen(self) -> Optional[CodegenPlan]:
        """The generated-Python lowering, if that is what the result
        has."""
        return self.lowering if isinstance(self.lowering,
                                           CodegenPlan) else None


class Compiler:
    """Compiles methods of one program under one configuration."""

    def __init__(self, program: Program, config: CompilerConfig,
                 profile: Optional[Profile] = None,
                 cache: Optional[CompilationCache] = None):
        self.program = program
        self.config = config
        self.profile = profile
        self.cache = cache
        #: PhaseTiming list from the most recent non-cached compile().
        self.last_timings = []
        #: Aggregates across this compiler's lifetime, which the
        #: harness reports.  ``phase_seconds`` splits
        #: ``compile_seconds_total`` into named spans: the phases,
        #: ``verify``, ``key``, ``cache-lookup``, ``build-graph``,
        #: ``summaries``, ``lower`` and ``cache-store``.
        self.compile_count = 0
        self.cache_hit_count = 0
        self.compile_seconds_total = 0.0
        self.phase_seconds: Dict[str, float] = defaultdict(float)

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.phase_seconds[name] += time.perf_counter() - started

    def key(self, method: JMethod, entry=None) -> Optional[str]:
        """With a cache attached, the key the compilation of
        ``(method, entry)`` is cached under.  Each compile derives it
        once."""
        if self.cache is None:
            return None
        return CompilationCache.compilation_key(
            self.program, method, self.config, self.profile is not None,
            entry)

    def compile(self, method: JMethod,
                osr_bci=None) -> CompilationResult:
        """Compile *method*; with *osr_bci*, compile the on-stack
        replacement entry variant whose entry is that loop header.
        *osr_bci* may also be a deoptless continuation descriptor
        (:func:`repro.jit.deoptless.continuation_entry`), which compiles
        an entry at an arbitrary deopt bci specialized against the
        descriptor's dispatch context."""
        started = time.perf_counter()
        try:
            result = self._compile(method, osr_bci)
        finally:
            self.compile_seconds_total += time.perf_counter() - started
        self.compile_count += 1
        if result.cache_hit:
            self.cache_hit_count += 1
        return result

    def _compile(self, method: JMethod,
                 osr_bci=None) -> CompilationResult:
        config = self.config
        with self._span("key"):
            key = self.key(method, osr_bci)
        if key is not None:
            with self._span("cache-lookup"):
                hit = self.cache.lookup(key, self.program, self.profile)
            if hit is not None:
                with self._span("lower"):
                    return self._relink(*hit, method, osr_bci)
        # Record consumed facts even without a cache: the VM uses them
        # to re-validate installed code against the live profile.
        profile = RecordingProfile(self.profile) \
            if self.profile is not None else None

        continuation = None
        if is_continuation_entry(osr_bci):
            continuation = tuple(osr_bci[1:])  # (bci, stack_depth, ctx)

        with self._span("build-graph"):
            graph = build_graph(self.program, method, profile,
                                config.speculate_branches,
                                config.speculation_min_samples,
                                osr_bci=None if continuation is not None
                                else osr_bci,
                                continuation=continuation)

        plan = PhasePlan(verify_ir=config.verify_ir)
        # OSR graphs are warm-up bridges and skip inlining: calls from
        # OSR'd code then record callee invocations through the VM's
        # invoke callback exactly as interpreted calls would, so which
        # methods tier up — and every deterministic benchmark metric —
        # is identical whether a loop reached steady state through OSR
        # or through the interpreter alone.  (Inlined callees record
        # nothing, so an inlining OSR graph would starve the callees of
        # the loop it took over out of their own compilations.)
        if config.inline and osr_bci is None:
            plan.append(InliningPhase(self.program, InliningPolicy(),
                                      profile,
                                      config.speculate_branches,
                                      config.speculation_min_samples))
        plan.append(CanonicalizerPhase())
        plan.append(GlobalValueNumberingPhase())
        plan.append(ConditionalEliminationPhase())
        plan.append(DeadCodeEliminationPhase())

        tier = ESCAPE_TIERS[config.escape_tier]
        summary_view = None
        if tier.summaries:
            from ..analysis.summaries import SummaryView, summaries_for
            with self._span("summaries"):
                summary_view = SummaryView(summaries_for(self.program))

        ea_phase = None
        if tier.analysis == "pea":
            ea_phase = PartialEscapePhase(
                self.program, config.pea_iterations,
                virtualize_arrays=config.pea_virtualize_arrays,
                fold_virtual_checks=config.pea_fold_checks,
                summaries=summary_view)
        elif tier.analysis == "equi":
            ea_phase = EquiEscapePhase(self.program)
        elif tier.analysis == "conngraph":
            # The cheap tier: no PEA — straight-line lock elision now,
            # connection-graph stack allocation below.
            from ..analysis.conngraph import ConnGraphLockElisionPhase
            ea_phase = ConnGraphLockElisionPhase(
                self.program, summaries=summary_view)
        if ea_phase is not None:
            plan.append(ea_phase)
            plan.append(CanonicalizerPhase())
            plan.append(GlobalValueNumberingPhase())
            plan.append(DeadCodeEliminationPhase())
        if config.read_elimination:
            from ..opt.read_elimination import ReadEliminationPhase
            plan.append(ReadEliminationPhase())
            plan.append(DeadCodeEliminationPhase())
        if tier.stack is not None:
            # Marginal stack allocation moves off the heap only what
            # the summaries uniquely prove non-escaping (and PEA still
            # materialized), so the escape-summaries A/B in Table 1
            # attributes every allocation delta to the interprocedural
            # analysis alone.
            from ..opt.stack_allocation import StackAllocationPhase
            plan.append(StackAllocationPhase(
                self.program, summaries=summary_view,
                marginal_only=tier.stack == "marginal"))

        plan.run(graph)
        self.last_timings = plan.timings
        for timing in plan.timings:
            self.phase_seconds[timing.phase] += timing.seconds
        self.phase_seconds["verify"] += plan.verify_seconds
        ea_result = (ea_phase.last_result if ea_phase is not None
                     and ea_phase.last_result is not None else PEAResult())
        with self._span("lower"):
            lowering, stored = self._lower(graph, method, osr_bci)

        facts = tuple(profile.facts) if profile is not None else ()
        if summary_view is not None:
            # Summaries are speculation-like facts: a cached graph
            # is only reusable while every consulted summary still
            # digests the same against the loading program.
            facts = facts + summary_view.facts()
        node_count = graph.node_count()
        entry = None
        if key is not None:
            with self._span("cache-store"):
                entry = self.cache.store(
                    key, self.program, method, facts,
                    {"graph": graph, "ea_result": ea_result,
                     "node_count": node_count, "lowering": stored},
                    entry_bci=osr_bci)
        return CompilationResult(graph, ea_result, node_count, lowering,
                                 cache_entry=entry, facts=facts)

    def _relink(self, entry: CacheEntry, payload: Dict[str, Any],
                method: JMethod, osr_bci) -> CompilationResult:
        """The result of a validated cache entry and its loaded payload,
        re-linking the stored lowering."""
        graph = payload["graph"]
        lowering, __ = self._lower(graph, method, osr_bci,
                                   payload["lowering"])
        return CompilationResult(
            graph, payload["ea_result"], payload["node_count"], lowering,
            cache_entry=entry, cache_hit=True, facts=entry.facts)

    def _lower(self, graph: Graph, method: JMethod, osr_bci,
               stored=None) -> Tuple[Optional[Lowering], Any]:
        """The configured backend's lowering of *graph*, and the value a
        cache entry stores for it: ``(backend, payload)``,
        ``(backend, "unsupported")`` when the graph cannot be lowered,
        or ``None`` under the legacy backend.

        One path for a compile and for a cache hit, which passes the
        entry's *stored* value: this backend's payload is re-linked, and
        its ``"unsupported"`` marker is trusted (same graph, same
        failure).  Anything else — a legacy or other-backend store, a
        corrupted or stale payload, a codegen payload emitted under
        another cost model — lowers from the graph.
        """
        backend = self.config.execution_backend
        if backend == "legacy":
            return None, None
        kind, error = _LOWERINGS[backend]
        cost_model = self.config.cost_model
        if stored is not None and stored[0] == backend:
            if stored[1] == "unsupported":
                return None, stored
            try:
                return kind.from_payload(graph, self.program, cost_model,
                                         stored[1]), stored
            except error:
                pass  # a clean miss: regenerate from the graph
        try:
            if backend == "codegen":
                lowering = CodegenPlan(graph, self.program, cost_model,
                                       self._codegen_label(method,
                                                           osr_bci))
            else:
                lowering = ExecutionPlan(graph, self.program, cost_model)
        except error:
            return None, (backend, "unsupported")
        return lowering, (backend, lowering.payload())

    @staticmethod
    def _codegen_label(method: JMethod, osr_bci) -> str:
        if osr_bci is None:
            return method.qualified_name
        if is_continuation_entry(osr_bci):
            return f"{method.qualified_name}@cont{osr_bci[1]}"
        return f"{method.qualified_name}@osr{osr_bci}"
