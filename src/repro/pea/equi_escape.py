"""Flow-insensitive Escape Analysis baseline (equi-escape sets).

This is the comparator of the paper's Section 6.2: a Kotzmann-style
equi-escape-sets analysis (as used by the HotSpot compilers) that makes a
single, global escape decision per allocation.  If an object escapes on
*any* path — however unlikely — none of the optimizations apply to it.

The sets are the connected components of the connection graph
(:class:`repro.analysis.conngraph.ConnectionGraph`) built with
``symmetric=True``: a store of ``a`` into ``b`` joins ``a`` and ``b``,
and stores to globals, returns and call arguments mark the whole
component as escaping.  Frame state references do NOT escape (Kotzmann
& Mössenböck's insight: deoptimization can rematerialize).

Scalar replacement / lock elision / frame-state rewriting then reuse the
Partial Escape Analysis machinery, restricted to the approved
allocations: since an approved allocation escapes nowhere, the
flow-sensitive pass will virtualize it everywhere without
materializations — which is exactly the classic transformation
(Listings 1-3 of the paper).
"""

from __future__ import annotations

from typing import Optional

from ..analysis.conngraph import ConnectionGraph
from ..bytecode.classfile import Program
from ..ir.graph import Graph
from ..opt.phase import Phase
from .effects import Effects
from .partial_escape import PEAResult
from .processor import PEAProcessor


class EquiEscapePhase(Phase):
    """Whole-method Escape Analysis + scalar replacement (the baseline
    configuration of Section 6.2)."""

    name = "equi-escape-analysis"

    def __init__(self, program: Program):
        self.program = program
        self.last_result: Optional[PEAResult] = None

    def run(self, graph: Graph) -> bool:
        from ..opt.canonicalize import CanonicalizerPhase
        from ..opt.dce import DeadCodeEliminationPhase

        approved = ConnectionGraph(graph, self.program,
                                   symmetric=True).analyze()
        if not approved:
            self.last_result = PEAResult()
            return False
        effects = Effects(graph)
        processor = PEAProcessor(graph, self.program, effects)
        processor.tool.allowed_allocations = approved
        tool = processor.run()
        result = PEAResult(
            virtualized_allocations=tool.virtualized_allocations,
            materializations=tool.materializations,
            removed_monitor_pairs=tool.removed_monitor_pairs)
        if len(effects):
            result.applied_effects = effects.apply()
            graph.verify()
            CanonicalizerPhase().run(graph)
            DeadCodeEliminationPhase().run(graph)
        self.last_result = result
        return result.applied_effects > 0
