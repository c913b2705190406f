"""Compiler/VM configuration — the evaluation's configurations map to
these flags (no EA / equi-escape EA / connection-graph tier / Partial
Escape Analysis).

The escape-related knobs sit behind one policy:
``CompilerConfig.escape_tier``.  A tier is either a *token* string —

``"none"``
    no escape analysis at all;
``"equi"``
    the equi-escape-sets baseline (Section 6.2 comparator): the
    connection graph's symmetric mode feeding whole-method scalar
    replacement;
``"conngraph"``
    the cheap connection-graph tier: directed escape-graph
    reachability (:mod:`repro.analysis.conngraph`) feeding stack
    allocation and straight-line lock elision, with interprocedural
    summaries at call sites — no PEA;
``"pea"``
    the paper's Partial Escape Analysis (optionally
    ``"pea+summaries"``, ``"pea+cgstack"``,
    ``"pea+summaries+cgstack"``);
``"auto"``
    per-method selection by :data:`AUTO_TIER_POLICY` (hot small
    methods get PEA, everything else the connection graph)

— or a callable *policy* receiving a :class:`TierRequest` (method
name, bytecode size, hotness from the profile, compile-service queue
depth) and returning a token or :class:`TierSpec` per method.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..runtime.costmodel import CostModel


def _default_verify_ir() -> bool:
    """``REPRO_VERIFY_IR=1`` turns the full invariant verifier on by
    default (tests/conftest.py sets it, so it is always on under
    pytest)."""
    return os.environ.get("REPRO_VERIFY_IR", "") == "1"


#: Escape-tier bases, cheapest first.
TIER_BASES = ("none", "equi", "conngraph", "pea")


@dataclass(frozen=True)
class TierSpec:
    """A fully resolved escape tier for one compilation.

    ``base`` selects the analysis machinery; ``summaries`` enables the
    interprocedural escape summaries at call sites; ``stack`` (spelled
    ``+cgstack``) runs :class:`repro.opt.stack_allocation.StackAllocationPhase`
    on the directed connection graph.  The ``conngraph`` base always
    implies summaries and stack allocation — that *is* the tier.
    """

    base: str = "pea"
    summaries: bool = False
    stack: bool = False

    def __post_init__(self):
        if self.base not in TIER_BASES:
            raise ValueError(f"unknown escape tier base {self.base!r}")
        if self.base == "conngraph":
            object.__setattr__(self, "summaries", True)
            object.__setattr__(self, "stack", True)

    def token(self) -> str:
        """Canonical string form, parseable by :meth:`parse`."""
        if self.base == "conngraph":
            return "conngraph"
        parts = [self.base]
        if self.summaries:
            parts.append("summaries")
        if self.stack:
            parts.append("cgstack")
        return "+".join(parts)

    @classmethod
    def parse(cls, token: Union[str, "TierSpec"]) -> "TierSpec":
        if isinstance(token, TierSpec):
            return token
        parts = token.split("+")
        base = parts[0]
        if base not in TIER_BASES:
            raise ValueError(
                f"unknown escape tier {token!r} "
                f"(bases: {', '.join(TIER_BASES)})")
        flags = {"summaries": False, "cgstack": False}
        for flag in parts[1:]:
            if flag not in flags:
                raise ValueError(
                    f"unknown escape tier flag {flag!r} in {token!r}")
            flags[flag] = True
        return cls(base, flags["summaries"], flags["cgstack"])


@dataclass(frozen=True)
class TierRequest:
    """What a :data:`TierPolicy` gets to look at for one method."""

    method_name: str
    #: Bytecode instruction count of the method.
    method_size: int
    #: Invocation count observed by the profile at compile time.
    hotness: int
    #: Pending jobs on the compile-service queue (0 for in-process
    #: compilation) — a busy fleet should prefer the cheap tier.
    queue_depth: int = 0


#: A tier policy maps a per-method request to a tier token or spec.
TierPolicy = Callable[[TierRequest], Union[str, TierSpec]]


@dataclass(frozen=True)
class AutoTierPolicy:
    """The built-in ``"auto"`` policy.

    Hot, reasonably sized methods get the precise tier (PEA +
    summaries); cold or oversized methods — and any method compiled
    while the service queue is deep — get the cheap connection-graph
    tier.  The thresholds are deliberately simple; the point of the
    policy *object* is that users can swap in their own.
    """

    #: Invocation count at which a method counts as hot (2x the default
    #: compile threshold: the second compilation opportunity).
    hot_invocations: int = 40
    #: Methods with more bytecodes than this never get PEA.
    large_method_size: int = 300
    #: Service queue depth at which everything degrades to the cheap
    #: tier.
    busy_queue_depth: int = 4

    def __call__(self, request: TierRequest) -> str:
        if request.queue_depth >= self.busy_queue_depth:
            return "conngraph"
        if request.method_size > self.large_method_size:
            return "conngraph"
        if request.hotness >= self.hot_invocations:
            return "pea+summaries"
        return "conngraph"

    def fingerprint(self):
        return ("auto", self.hot_invocations, self.large_method_size,
                self.busy_queue_depth)


AUTO_TIER_POLICY = AutoTierPolicy()


@dataclass
class CompilerConfig:
    """One VM configuration."""

    #: The escape-tier policy: a token string (``"none"``, ``"equi"``,
    #: ``"conngraph"``, ``"pea"``, ``"pea+summaries"``, ...), a
    #: :class:`TierSpec`, ``"auto"``, or a :data:`TierPolicy` callable
    #: evaluated per method.  See the module docstring.
    escape_tier: Union[str, TierSpec, TierPolicy] = "pea"
    inline: bool = True
    #: Invocations before a method is compiled.
    compile_threshold: int = 20
    #: On-stack replacement: tier up at loop backedges, so a hot loop
    #: inside a long-running interpreted method reaches compiled code
    #: mid-method (the second axis of the two-axis tiering policy).
    osr: bool = True
    #: Backedge executions of one (method, loop-header bci) before an
    #: OSR compilation is requested.  Sits above the invocation
    #: threshold because a backedge fires once per iteration, not once
    #: per call.
    osr_threshold: int = 60
    #: Optimistic branch speculation (never-taken branches -> guards).
    #: Profiling only happens while interpreted, so the sample floor must
    #: sit below the compile threshold; bad speculation is repaired by
    #: deopt + invalidation + recompile.
    speculate_branches: bool = True
    speculation_min_samples: int = 16
    #: Profile-guided devirtualization of CHA-polymorphic calls.
    speculate_types: bool = True
    #: Deoptimizations of one method before its code is thrown away and
    #: recompiled without the failed assumption.
    deopt_invalidate_threshold: int = 3
    #: Deoptless dispatched OSR (Flückiger & Krynski 2022): a deopt at
    #: a specializable site (conditional branch / invokevirtual) does
    #: not fall back to the interpreter — the VM derives a dispatch
    #: context from the failing runtime state, compiles a continuation
    #: entering at the deopt bci specialized against that context, and
    #: dispatches among live variants on every later deopt there.
    #: Deopts still count toward ``deopt_invalidate_threshold``, so the
    #: method entry converges to unspeculated code exactly as without
    #: deoptless; the continuations only bridge the re-tiering window
    #: in compiled code instead of the interpreter.
    deoptless: bool = False
    #: Variant cap per (method, deopt bci): beyond this many contexts
    #: the least-recently-dispatched variant is retired (cache entry
    #: evicted), so pathological polymorphism degrades to plain deopt
    #: behavior instead of accumulating code.
    deoptless_max_variants: int = 4
    #: On a compiler error: True = bail out and stay interpreted (what a
    #: production VM does); False = raise (surfaces compiler bugs, the
    #: right default for a research codebase).
    compile_bailout: bool = False
    #: PEA application count (Graal applies it more than once).
    pea_iterations: int = 2
    #: Block-local load/store forwarding after escape analysis.
    read_elimination: bool = True
    #: Ablation knobs for the analysis itself.
    pea_virtualize_arrays: bool = True
    pea_fold_checks: bool = True
    #: Run the full :class:`repro.verify.GraphVerifier` invariant suite
    #: after every phase of every compilation (SSA dominance, CFG
    #: shape, frame-state completeness, PEA invariants).  Defaults to
    #: the ``REPRO_VERIFY_IR`` environment variable; always on in the
    #: test suite.
    verify_ir: bool = field(default_factory=_default_verify_ir)
    #: How compiled graphs are executed: ``"codegen"`` emits specialized
    #: Python source per graph and ``exec``s it (see
    #: :mod:`repro.runtime.codegen`); ``"plan"`` lowers each graph to
    #: threaded code (pre-linked handler closures, see
    #: :mod:`repro.runtime.plan`); ``"legacy"`` walks the IR with the
    #: original :class:`~repro.runtime.graph_interpreter.GraphInterpreter`.
    #: All three produce bit-identical checksums, allocations, monitors,
    #: deopts and OSR entries; the knob trades speed for simplicity and
    #: exists for differential testing.  A graph the configured backend
    #: cannot lower (or bind) runs on the GraphInterpreter for that
    #: method, counted in ``VM.backend_fallbacks``.
    execution_backend: str = "plan"
    #: Address of a shared compile service (``"host:port"`` or a Unix
    #: socket path, see :mod:`repro.jit.server`).  When set, the VM
    #: does not compile in-process at the tier-up threshold: it submits
    #: an asynchronous compile request and *keeps interpreting* until
    #: the reply arrives, then atomically installs the compiled code
    #: (background tier-up).  If the service dies or the connection
    #: fails, the VM logs once and falls back to in-process
    #: compilation.  Not part of the pipeline fingerprint — the service
    #: produces byte-identical cache payloads to a local compile.
    compile_service: Optional[str] = None
    #: Block on each service compile instead of tiering up in the
    #: background.  Keeps tier-up timing identical to in-process
    #: compilation, which is what the differential fuzzer needs to keep
    #: its engines bit-comparable while still exercising the
    #: client/server path.
    compile_service_wait: bool = False
    #: Record a per-node-kind execution histogram in
    #: :attr:`ExecutionStats.node_kind_executions` (used by ``--profile``).
    collect_node_histogram: bool = False
    cost_model: CostModel = field(default_factory=CostModel)

    # -- escape-tier policy -------------------------------------------------

    def tier_policy(self) -> TierPolicy:
        """The per-method policy behind ``escape_tier``."""
        tier = self.escape_tier
        if tier == "auto":
            return AUTO_TIER_POLICY
        if isinstance(tier, TierSpec):
            spec = tier
            return lambda request: spec
        if isinstance(tier, str):
            spec = TierSpec.parse(tier)
            return lambda request: spec
        if callable(tier):
            return tier
        raise ValueError(f"invalid escape_tier {tier!r}")

    def resolve_tier(self, method_name: str, method_size: int,
                     hotness: int, queue_depth: int = 0) -> TierSpec:
        """The tier one concrete compilation runs under."""
        request = TierRequest(method_name=method_name,
                              method_size=method_size, hotness=hotness,
                              queue_depth=queue_depth)
        return TierSpec.parse(self.tier_policy()(request))

    def tier_descriptor(self):
        """Stable, hashable description of the tier *policy* for the
        pipeline fingerprint.  Per-method resolutions additionally key
        the compilation cache with the resolved token, so two policies
        sharing a descriptor could only cross-contaminate if they also
        resolved identically — in which case the artifacts coincide.
        """
        tier = self.escape_tier
        if isinstance(tier, TierSpec):
            return tier.token()
        if isinstance(tier, str):
            if tier == "auto":
                return AUTO_TIER_POLICY.fingerprint()
            return TierSpec.parse(tier).token()
        fingerprint = getattr(tier, "fingerprint", None)
        if callable(fingerprint):
            value = fingerprint()
            return value if isinstance(value, str) else tuple(value)
        return f"{getattr(tier, '__module__', '?')}." \
               f"{getattr(tier, '__qualname__', repr(tier))}"

    def is_static_tier(self) -> bool:
        """True when every method compiles under the same tier."""
        return isinstance(self.escape_tier, TierSpec) or (
            isinstance(self.escape_tier, str)
            and self.escape_tier != "auto")

    def static_tier_spec(self) -> Optional[TierSpec]:
        if not self.is_static_tier():
            return None
        return TierSpec.parse(self.escape_tier)

    # -- canned configurations ----------------------------------------------

    @classmethod
    def no_ea(cls, **kwargs) -> "CompilerConfig":
        kwargs.setdefault("escape_tier", "none")
        return cls(**kwargs)

    @classmethod
    def equi_escape(cls, **kwargs) -> "CompilerConfig":
        kwargs.setdefault("escape_tier", "equi")
        return cls(**kwargs)

    @classmethod
    def conngraph(cls, **kwargs) -> "CompilerConfig":
        kwargs.setdefault("escape_tier", "conngraph")
        return cls(**kwargs)

    @classmethod
    def partial_escape(cls, **kwargs) -> "CompilerConfig":
        kwargs.setdefault("escape_tier", "pea")
        return cls(**kwargs)

    def label(self) -> str:
        tier = self.escape_tier
        if isinstance(tier, TierSpec):
            base = tier.base
        elif isinstance(tier, str):
            if tier == "auto":
                return "tiered EA (auto)"
            base = TierSpec.parse(tier).base
        else:
            return "tiered EA (policy)"
        return {
            "none": "without EA",
            "equi": "equi-escape EA",
            "conngraph": "conn-graph EA",
            "pea": "with PEA",
        }[base]
