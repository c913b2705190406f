"""Compiler/VM configuration — the evaluation's configurations map to
these flags (no EA / equi-escape EA / connection-graph tier / Partial
Escape Analysis).

The escape-related knobs sit behind one field,
``CompilerConfig.escape_tier``, a *token* string naming the tier every
method compiles under:

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
    ``"pea+summaries+cgstack"``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

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
    """The parsed form of an escape-tier token.

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
    def parse(cls, token: str) -> "TierSpec":
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


@dataclass
class CompilerConfig:
    """One VM configuration."""

    #: The escape tier as a token string (``"none"``, ``"equi"``,
    #: ``"conngraph"``, ``"pea"``, ``"pea+summaries"``, ...).  See the
    #: module docstring.
    escape_tier: str = "pea"
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
    #: Deoptless dispatched OSR (Flückiger & Krynski 2022): a deopt at
    #: a specializable site (conditional branch / invokevirtual) does
    #: not fall back to the interpreter — the VM derives a dispatch
    #: context from the failing runtime state, compiles a continuation
    #: entering at the deopt bci specialized against that context, and
    #: dispatches among live variants on every later deopt there.
    #: Deopts still count toward
    #: :data:`repro.jit.vm.DEOPT_INVALIDATE_THRESHOLD`, so the method
    #: entry converges to unspeculated code exactly as without
    #: deoptless; the continuations only bridge the re-tiering window
    #: in compiled code instead of the interpreter.  At most
    #: :data:`repro.jit.vm.DEOPTLESS_MAX_VARIANTS` continuations live
    #: per deopt site.
    deoptless: bool = False
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
    #: Record a per-node-kind execution histogram in
    #: :attr:`ExecutionStats.node_kind_executions` (used by ``--profile``).
    collect_node_histogram: bool = False
    cost_model: CostModel = field(default_factory=CostModel)

    def tier_spec(self) -> TierSpec:
        """The escape tier every method of this configuration compiles
        under."""
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
        return {
            "none": "without EA",
            "equi": "equi-escape EA",
            "conngraph": "conn-graph EA",
            "pea": "with PEA",
        }[self.tier_spec().base]
