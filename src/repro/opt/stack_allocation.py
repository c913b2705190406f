"""Stack allocation — the other classic Escape Analysis consumer.

Section 3 of the paper lists three optimizations EA enables: scalar
replacement, lock elision (both implemented by PEA) and *stack
allocation* ("allocation on the stack or in other non-garbage-collected
allocation areas such as zones").  Scalar replacement subsumes stack
allocation when it applies; this phase picks up what's left: allocations
that survived PEA (e.g. phi-merged objects that had to materialize) but
still provably never escape the method get flagged ``stack_allocated``.

The runtime then serves them from the simulated stack/zone: they are
counted separately (``HeapStats.stack_allocations``), never enter the
simulated GC nursery (:mod:`repro.runtime.gcsim`), and are charged the
much cheaper non-GC allocation cost.

Who runs this phase is owned by the escape tier
(``CompilerConfig.escape_tier``): the ``conngraph`` tier runs it as its
*primary* optimization, ``+cgstack`` runs it after PEA, a PEA tier with
escape summaries runs it in summary-marginal mode, and the
``none``/``equi`` tiers do not run it — so Table 1's heap numbers stay
comparable with the paper's configurations.  Approvals always come from
the directed connection graph (:mod:`repro.analysis.conngraph`).
"""

from __future__ import annotations

from ..analysis.conngraph import ConnectionGraph
from ..bytecode.classfile import Program
from ..ir.graph import Graph
from ..ir.nodes import NewArrayNode, NewInstanceNode
from .phase import Phase


class StackAllocationPhase(Phase):
    name = "stack-allocation"

    def __init__(self, program: Program, summaries=None,
                 marginal_only: bool = False):
        self.program = program
        #: Optional interprocedural escape summaries
        #: (:class:`repro.analysis.summaries.SummaryView`): invoke
        #: arguments with proven non-capturing callees stop escaping.
        self.summaries = summaries
        #: With ``marginal_only`` the phase flags only allocations the
        #: summaries *uniquely* enable (approved with summaries but not
        #: without).  That keeps an escape-summaries A/B attribution
        #: pure: the baseline configuration never runs this phase, so
        #: plain-approved allocations must stay on the heap in both
        #: arms.
        self.marginal_only = marginal_only
        self.flagged = 0

    def run(self, graph: Graph) -> bool:
        approved = ConnectionGraph(graph, self.program,
                                   summaries=self.summaries).analyze()
        if self.marginal_only and self.summaries is not None:
            approved -= ConnectionGraph(graph, self.program).analyze()
        changed = False
        for node in graph.nodes_of(NewInstanceNode, NewArrayNode):
            if node in approved and not getattr(node, "stack_allocated",
                                                False):
                node.stack_allocated = True
                self.flagged += 1
                changed = True
        return changed
