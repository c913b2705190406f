"""Compiler/VM configuration — the evaluation's configurations map to
these fields.

The escape-related knobs sit behind one field,
``CompilerConfig.escape_tier``: a token naming the tier every method
compiles under, one of the six rows of :data:`ESCAPE_TIERS`:

``"none"``
    no escape analysis at all (Table 1's baseline);
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
    the paper's Partial Escape Analysis;
``"pea+summaries"``
    PEA fed by interprocedural escape summaries, plus stack allocation
    of what only the summaries prove non-escaping (Table 1's
    escape-summary A/B);
``"pea+summaries+cgstack"``
    the same with full connection-graph stack allocation after PEA
    (the GC A/B's PEA arm).

Each tier is the escape tier of an arm of
:data:`repro.benchsuite.harness.ARMS` (the evaluation's configurations)
or of a fuzz engine; ``tests/jit/test_escape_tier.py`` keeps the table
and those arms equal.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..runtime.costmodel import CostModel


def _default_verify_ir() -> bool:
    """``REPRO_VERIFY_IR=1`` turns the full invariant verifier on by
    default (tests/conftest.py sets it, so it is always on under
    pytest)."""
    return os.environ.get("REPRO_VERIFY_IR", "") == "1"


@dataclass(frozen=True)
class EscapeTier:
    """What one escape tier runs."""

    #: :meth:`CompilerConfig.label`.
    label: str
    #: The escape analysis: ``None``, ``"equi"``, ``"conngraph"`` or
    #: ``"pea"``.
    analysis: Optional[str]
    #: Interprocedural escape summaries feed the analysis.
    summaries: bool
    #: :class:`repro.opt.stack_allocation.StackAllocationPhase` after
    #: the analysis: ``None``, ``"marginal"`` (only what the summaries
    #: uniquely prove non-escaping) or ``"full"``.
    stack: Optional[str]


#: The escape tiers by token.  The tokens are hashed into
#: :func:`repro.jit.cache.pipeline_fingerprint`.
ESCAPE_TIERS: Dict[str, EscapeTier] = {
    "none": EscapeTier("without EA", None, False, None),
    "equi": EscapeTier("equi-escape EA", "equi", False, None),
    "conngraph": EscapeTier("conn-graph EA", "conngraph", True, "full"),
    "pea": EscapeTier("with PEA", "pea", False, None),
    "pea+summaries": EscapeTier("with PEA", "pea", True, "marginal"),
    "pea+summaries+cgstack": EscapeTier("with PEA", "pea", True, "full"),
}


@dataclass
class CompilerConfig:
    """One VM configuration."""

    #: The escape tier: a key of :data:`ESCAPE_TIERS`.  See the module
    #: docstring.
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

    def __post_init__(self):
        if self.escape_tier not in ESCAPE_TIERS:
            raise ValueError(
                f"unknown escape tier {self.escape_tier!r} "
                f"(tiers: {', '.join(ESCAPE_TIERS)})")

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
        return ESCAPE_TIERS[self.escape_tier].label
