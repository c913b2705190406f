"""The Partial Escape Analysis phase — the paper's contribution.

Runs the control-flow-sensitive analysis
(:class:`~repro.pea.processor.PEAProcessor`), then applies the recorded
effects: scalar replacement of virtual allocations, lock elision on
virtual monitors, materialization on escaping branches, and frame-state
rewriting for deoptimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..bytecode.classfile import Program
from ..ir.graph import Graph
from ..opt.phase import Phase
from .effects import Effects
from .processor import PEAProcessor


@dataclass
class PEAResult:
    """Statistics from one Partial Escape Analysis application."""

    virtualized_allocations: int = 0
    materializations: int = 0
    removed_monitor_pairs: int = 0
    applied_effects: int = 0
    #: Summary-guided invoke decisions (summary-enabled tiers only).
    nulled_args: int = 0
    borrowed_args: int = 0
    #: Escape-site attribution
    #: (:class:`repro.analysis.diagnostics.MaterializationEvent`, plain
    #: data — survives the compilation cache's detached pickles).
    #: Unlike :attr:`materializations`, this list is exact: events from
    #: rolled-back loop-processing retries are discarded with them.
    events: list = field(default_factory=list)


class PartialEscapePhase(Phase):
    name = "partial-escape-analysis"

    def __init__(self, program: Program, iterations: int = 2,
                 virtualize_arrays: bool = True,
                 fold_virtual_checks: bool = True, summaries=None):
        self.program = program
        #: Graal applies PEA multiple times; later rounds pick up
        #: opportunities exposed by the previous round's simplifications.
        self.iterations = iterations
        #: Ablation knobs (measured by ``table1 --json``'s
        #: ``ablation_ab``).
        self.virtualize_arrays = virtualize_arrays
        self.fold_virtual_checks = fold_virtual_checks
        #: Interprocedural escape summaries (a
        #: :class:`repro.analysis.summaries.SummaryView`), or None for
        #: the paper's conservative invoke handling.
        self.summaries = summaries
        self.last_result: Optional[PEAResult] = None

    def run(self, graph: Graph) -> bool:
        from ..opt.canonicalize import CanonicalizerPhase
        from ..opt.dce import DeadCodeEliminationPhase

        total = PEAResult()
        changed_any = False
        for _ in range(max(1, self.iterations)):
            changed = self.run_once(graph, total)
            if changed:
                # Pick up constants/branch folds produced by this round.
                CanonicalizerPhase().run(graph)
                DeadCodeEliminationPhase().run(graph)
                changed_any = True
            else:
                break
        self.last_result = total
        return changed_any

    def run_once(self, graph: Graph, total: PEAResult) -> bool:
        effects = Effects(graph)
        processor = PEAProcessor(graph, self.program, effects)
        processor.tool.virtualize_arrays = self.virtualize_arrays
        processor.tool.fold_virtual_checks = self.fold_virtual_checks
        processor.tool.summaries = self.summaries
        tool = processor.run()
        if len(effects) == 0:
            return False
        applied = effects.apply()
        graph.verify()
        total.virtualized_allocations += tool.virtualized_allocations
        total.materializations += tool.materializations
        total.removed_monitor_pairs += tool.removed_monitor_pairs
        total.applied_effects += applied
        total.events.extend(tool.events)
        total.nulled_args += sum(1 for event in tool.events
                                 if event.kind == "nulled_arg")
        total.borrowed_args += sum(1 for event in tool.events
                                   if event.kind == "borrowed")
        return True
