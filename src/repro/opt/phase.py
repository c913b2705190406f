"""The optimization-phase framework."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..ir.graph import Graph
from ..ir.node import IRError


class Phase:
    """Base class: a transformation over one graph."""

    #: Override with a human-readable phase name.
    name = "phase"

    def run(self, graph: Graph) -> bool:
        """Apply the phase; returns True if the graph changed."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__}>"


@dataclass
class PhaseTiming:
    phase: str
    seconds: float
    changed: bool


#: Verification levels, weakest first: the structural
#: :meth:`Graph.verify` alone, or the full
#: :class:`repro.verify.GraphVerifier` (which includes it).
_STRUCTURAL, _FULL = 1, 2


class PhasePlan:
    """An ordered list of phases applied to a graph, with verification
    after every phase (compiler bugs surface immediately).

    The cheap structural check (:meth:`Graph.verify`) runs after each
    phase; ``verify_ir`` replaces it with the full
    :class:`repro.verify.GraphVerifier` invariant suite (SSA dominance,
    CFG shape, frame-state completeness, PEA invariants, and the
    structural check), run on the input graph too, attributing any
    violation to the phase that introduced it.

    Every distinct graph state is checked once: after a check passes,
    :meth:`run` records :attr:`Graph.edit_count` and the level, and the
    next check is skipped while the count has not moved and the
    recorded level is at least the one asked for.  A phase's ``changed``
    result is never trusted for this.  The time spent verifying
    accumulates in :attr:`verify_seconds`, apart from the phase
    timings."""

    def __init__(self, phases: Optional[List[Phase]] = None,
                 verify_ir: bool = False):
        self.phases: List[Phase] = list(phases) if phases else []
        self.verify_ir = verify_ir
        self.timings: List[PhaseTiming] = []
        self.verify_seconds = 0.0

    def append(self, phase: Phase) -> "PhasePlan":
        self.phases.append(phase)
        return self

    def _verify(self, graph: Graph, phase_name: str,
                checked: Optional[Tuple[int, int]]
                ) -> Tuple[int, int]:
        """Verify *graph* unless it passed at least this level at its
        current edit count (*checked*); returns the new record."""
        level = _FULL if self.verify_ir else _STRUCTURAL
        if checked is not None and checked[0] == graph.edit_count \
                and checked[1] >= level:
            return checked
        started = time.perf_counter()
        if level == _FULL:
            from ..verify.verifier import verify_graph
            verify_graph(graph, phase=phase_name)
        else:
            try:
                graph.verify()
            except IRError as exc:
                raise IRError(f"after phase '{phase_name}': {exc}") from exc
        self.verify_seconds += time.perf_counter() - started
        return graph.edit_count, level

    def run(self, graph: Graph) -> Graph:
        checked: Optional[Tuple[int, int]] = None
        if self.verify_ir:
            checked = self._verify(graph, "graph-building", checked)
        for phase in self.phases:
            started = time.perf_counter()
            changed = bool(phase.run(graph))
            self.timings.append(PhaseTiming(
                phase.name, time.perf_counter() - started, changed))
            checked = self._verify(graph, phase.name, checked)
        return graph
