"""The compilation pipeline: bytecode -> optimized graph.

Mirrors Graal's structure: graph building, inlining, canonicalization and
global value numbering, then (optionally) one of the escape analyses,
then cleanup.

When given a :class:`~repro.jit.cache.CompilationCache`, the compiler
becomes memoizing: it records every profile fact the pipeline consumes
(through a :class:`~repro.jit.cache.RecordingProfile`) and stores the
optimized graph under a content-addressed key; later compilations of the
same method under the same configuration — from this compiler or any
other sharing the cache — reuse the stored graph when the recorded facts
still hold against their own profile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..bytecode.classfile import JMethod, Program
from ..bytecode.interpreter import Profile
from ..frontend.graph_builder import build_graph
from ..ir.graph import Graph
from ..opt.canonicalize import CanonicalizerPhase
from ..opt.dce import DeadCodeEliminationPhase
from ..opt.gvn import GlobalValueNumberingPhase
from ..opt.inlining import InliningPhase
from ..opt.phase import PhasePlan
from ..pea.equi_escape import EquiEscapePhase
from ..pea.partial_escape import PartialEscapePhase, PEAResult
from ..runtime.codegen import CodegenError, CodegenPlan
from ..runtime.plan import ExecutionPlan, PlanError
from .cache import (CacheEntry, CachedCompilation, CompilationCache,
                    RecordingProfile, load_graph_payload)
from .deoptless import is_continuation_entry
from .options import CompilerConfig, TierSpec


@dataclass
class CompilationResult:
    graph: Graph
    #: Stats from the escape analysis (empty result when disabled).
    ea_result: PEAResult
    node_count: int
    #: Threaded-code lowering of the graph; ``None`` when the legacy
    #: backend is selected or the graph uses a node kind the plan
    #: builder does not support (the VM then falls back to the
    #: GraphInterpreter for this method).
    plan: Optional[ExecutionPlan] = None
    #: Cache entry this result came from / was stored under, so deopt
    #: invalidation can evict it.  ``None`` when caching is off.
    cache_entry: Optional[CacheEntry] = None
    #: True when this result was served from the cache.
    cache_hit: bool = False
    #: Generated-Python lowering; only built under the ``codegen``
    #: backend, ``None`` when the graph cannot be structurized (the VM
    #: then uses ``plan``, which is built as the fallback).
    codegen: Optional[CodegenPlan] = None
    #: The profile facts this compilation consumed (speculations the
    #: optimized code depends on).  Recorded whether or not a cache is
    #: attached, so the VM can re-validate installed code against the
    #: live profile (stale-OSR retirement, continuation dispatch).
    facts: tuple = ()


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
        #: Aggregates across this compiler's lifetime (satellite 2: the
        #: harness reports these instead of dropping per-compile data).
        self.compile_count = 0
        self.cache_hit_count = 0
        self.compile_seconds_total = 0.0
        self.phase_seconds: Dict[str, float] = {}
        #: Pending jobs on the compile-service queue, fed to the
        #: escape-tier policy (0 for in-process compilation; the
        #: service sets it per job so a busy fleet degrades hot methods
        #: to the cheap tier instead of queueing PEA work).
        self.service_queue_depth = 0

    def resolve_tier_for(self, method: JMethod) -> TierSpec:
        """Evaluate the per-method escape-tier policy.

        Reads hotness from the *live* profile (never through a
        :class:`RecordingProfile` — an exact invocation-count fact
        would almost never revalidate and would kill caching).  Cache
        safety comes from keying every artifact with the resolved tier
        token instead.
        """
        hotness = (self.profile.invocation_count(method)
                   if self.profile is not None else 0)
        return self.config.resolve_tier(
            method.qualified_name, len(method.code), hotness,
            queue_depth=self.service_queue_depth)

    def compile(self, method: JMethod,
                osr_bci=None) -> CompilationResult:
        """Compile *method*; with *osr_bci*, compile the on-stack
        replacement entry variant whose entry is that loop header.
        *osr_bci* may also be a deoptless continuation descriptor
        (:func:`repro.jit.deoptless.continuation_entry`), which compiles
        an entry at an arbitrary deopt bci specialized against the
        descriptor's dispatch context."""
        started = time.perf_counter()
        result = self._compile(method, osr_bci)
        self.compile_seconds_total += time.perf_counter() - started
        self.compile_count += 1
        if result.cache_hit:
            self.cache_hit_count += 1
        return result

    def _compile(self, method: JMethod,
                 osr_bci=None) -> CompilationResult:
        config = self.config
        tier = self.resolve_tier_for(method)

        if self.cache is not None:
            cached = self.cache.lookup(self.program, method, config,
                                       self.profile, entry_bci=osr_bci,
                                       tier=tier.token())
            if cached is not None:
                return self._relink(cached, method, osr_bci)
        # Record consumed facts even without a cache: the VM uses them
        # to re-validate installed code against the live profile.
        profile = RecordingProfile(self.profile) \
            if self.profile is not None else None

        continuation = None
        if is_continuation_entry(osr_bci):
            continuation = tuple(osr_bci[1:])  # (bci, stack_depth, ctx)

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
            plan.append(InliningPhase(self.program,
                                      config.inlining_policy,
                                      profile,
                                      config.speculate_branches,
                                      config.speculation_min_samples,
                                      config.speculate_types))
        if config.canonicalize:
            plan.append(CanonicalizerPhase())
        if config.gvn:
            plan.append(GlobalValueNumberingPhase())
        if config.conditional_elimination:
            from ..opt.conditional_elimination import \
                ConditionalEliminationPhase
            plan.append(ConditionalEliminationPhase())
        plan.append(DeadCodeEliminationPhase())

        summary_view = None
        if tier.summaries:
            from ..analysis.summaries import SummaryView, summaries_for
            summary_view = SummaryView(summaries_for(self.program))

        ea_phase = None
        if tier.base == "pea":
            ea_phase = PartialEscapePhase(
                self.program, config.pea_iterations,
                virtualize_arrays=config.pea_virtualize_arrays,
                fold_virtual_checks=config.pea_fold_checks,
                summaries=summary_view)
        elif tier.base == "equi":
            ea_phase = EquiEscapePhase(self.program)
        elif tier.base == "conngraph":
            # The cheap tier: no PEA — straight-line lock elision now,
            # connection-graph stack allocation below.
            from ..analysis.conngraph import ConnGraphLockElisionPhase
            ea_phase = ConnGraphLockElisionPhase(
                self.program, summaries=summary_view)
        if ea_phase is not None:
            plan.append(ea_phase)
            if config.canonicalize:
                plan.append(CanonicalizerPhase())
            if config.gvn:
                plan.append(GlobalValueNumberingPhase())
            plan.append(DeadCodeEliminationPhase())
        if config.read_elimination:
            from ..opt.read_elimination import ReadEliminationPhase
            plan.append(ReadEliminationPhase())
            plan.append(DeadCodeEliminationPhase())
        if tier.stack or summary_view is not None:
            # Without ``+cgstack``, summary-marginal stack allocation:
            # what the summaries uniquely prove non-escaping (and PEA
            # still materialized) moves off the heap, so the
            # escape-summaries A/B in Table 1 attributes every
            # allocation delta to the interprocedural analysis alone.
            from ..opt.stack_allocation import StackAllocationPhase
            plan.append(StackAllocationPhase(
                self.program, summaries=summary_view,
                marginal_only=not tier.stack))

        plan.run(graph)
        self.last_timings = plan.timings
        for timing in plan.timings:
            self.phase_seconds[timing.phase] = \
                self.phase_seconds.get(timing.phase, 0.0) + timing.seconds
        ea_result = (ea_phase.last_result if ea_phase is not None
                     and ea_phase.last_result is not None else PEAResult())
        execution_plan = None
        plan_order = None
        codegen_plan = None
        codegen_payload = None
        if config.execution_backend == "codegen":
            try:
                codegen_plan = CodegenPlan(
                    graph, self.program, config.cost_model,
                    self._codegen_label(method, osr_bci))
                codegen_payload = codegen_plan.payload()
            except CodegenError:
                codegen_plan = None  # fall back to the plan backend
                codegen_payload = "unsupported"
        if config.execution_backend == "plan" or (
                config.execution_backend == "codegen"
                and codegen_plan is None):
            try:
                execution_plan = ExecutionPlan(graph, self.program,
                                               config.cost_model)
                plan_order = execution_plan.payload()
            except PlanError:
                execution_plan = None  # VM falls back to GraphInterpreter
                plan_order = "unsupported"

        facts = tuple(profile.facts) if profile is not None else ()
        if summary_view is not None:
            # Summaries are speculation-like facts: a cached graph
            # is only reusable while every consulted summary still
            # digests the same against the loading program.
            facts = facts + summary_view.facts()
        entry = None
        if self.cache is not None:
            entry = self.cache.store(
                self.program, method, config, self.profile, facts,
                graph, ea_result, graph.node_count(), plan_order,
                entry_bci=osr_bci, codegen=codegen_payload,
                tier=tier.token())
        return CompilationResult(graph, ea_result, graph.node_count(),
                                 execution_plan, cache_entry=entry,
                                 codegen=codegen_plan, facts=facts)

    def result_from_service(self, method: JMethod, blob: bytes,
                            facts, key: str, meta: Optional[dict],
                            osr_bci=None) -> CompilationResult:
        """Materialize a compile-service reply exactly like a cache
        hit: attach the detached payload to *this* program, re-link the
        backend lowering, and adopt the entry into the local cache so
        deopt invalidation can evict it (and later lookups hit without
        a round trip).  The caller has already validated *facts*
        against its live profile."""
        payload = load_graph_payload(blob, self.program)
        entry = CacheEntry(key, tuple(map(tuple, facts)), blob,
                           dict(meta or {}))
        result = self._relink(CachedCompilation(
            payload["graph"], payload["ea_result"], payload["node_count"],
            payload["plan_order"], payload.get("codegen"), entry),
            method, osr_bci)
        if self.cache is not None:
            self.cache.adopt_entry(entry)
        self.compile_count += 1
        self.cache_hit_count += 1
        return result

    def _relink(self, cached: CachedCompilation, method: JMethod,
                osr_bci) -> CompilationResult:
        """Rebuild the result of a stored graph (a cache hit or a
        compile-service reply): re-link its generated code, else its
        threaded-code plan."""
        codegen_plan = self._codegen_from_payload(
            cached.graph, cached.codegen, method, osr_bci)
        plan = None if codegen_plan is not None else \
            self._plan_from_order(cached.graph, cached.plan_order)
        return CompilationResult(
            cached.graph, cached.ea_result, cached.node_count, plan,
            cache_entry=cached.entry, cache_hit=True,
            codegen=codegen_plan,
            facts=tuple(cached.entry.facts)
            if cached.entry is not None else ())

    @staticmethod
    def _codegen_label(method: JMethod, osr_bci) -> str:
        if osr_bci is None:
            return method.qualified_name
        if is_continuation_entry(osr_bci):
            return f"{method.qualified_name}@cont{osr_bci[1]}"
        return f"{method.qualified_name}@osr{osr_bci}"

    def _codegen_from_payload(self, graph: Graph, payload, method: JMethod,
                              osr_bci: Optional[int]
                              ) -> Optional[CodegenPlan]:
        """Re-link generated code from a cached payload.

        A missing payload (stored by another backend) regenerates from
        the graph; a corrupted or stale payload (digest mismatch, node
        ids that no longer resolve) is treated as a clean miss and also
        regenerates; an ``"unsupported"`` marker means structurizing
        failed at store time, so (same graph) it would fail now.
        """
        if self.config.execution_backend != "codegen":
            return None
        if payload == "unsupported":
            return None
        if payload is not None:
            try:
                return CodegenPlan.from_payload(
                    graph, self.program, self.config.cost_model, payload)
            except CodegenError:
                pass  # fall through: regenerate from the cached graph
        try:
            return CodegenPlan(graph, self.program,
                               self.config.cost_model,
                               self._codegen_label(method, osr_bci))
        except CodegenError:
            return None

    def _plan_from_order(self, graph: Graph,
                         plan_order) -> Optional[ExecutionPlan]:
        """Re-link a threaded-code plan from a cached linearization.

        The entry records whether the storing compiler found the graph
        plan-lowerable; an ``"unsupported"`` marker means lowering
        failed then, so (same graph) it would fail now — skip retrying.
        """
        if self.config.execution_backend not in ("plan", "codegen"):
            return None
        if plan_order == "unsupported":
            return None
        try:
            if plan_order is None:
                # Stored by a legacy-backend compiler that never tried
                # to lower; build the plan from scratch.
                return ExecutionPlan(graph, self.program,
                                     self.config.cost_model)
            return ExecutionPlan.from_payload(graph, self.program,
                                              self.config.cost_model,
                                              plan_order)
        except PlanError:
            return None
