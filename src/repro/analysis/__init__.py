"""Lattice-based static analyses over bytecode and IR control flow.

Three layers (ISSUE 5):

- :mod:`repro.analysis.dataflow` — a generic forward/backward worklist
  solver parameterized over a CFG adapter and a lattice protocol.
- :mod:`repro.analysis.summaries` — interprocedural escape summaries
  (which parameters a callee captures / returns / merely reads),
  consulted by Partial Escape Analysis at Invoke sites.
- :mod:`repro.analysis.diagnostics` — escape-site attribution and lint
  passes backing the ``repro analyze`` / ``repro lint`` CLI.
- :mod:`repro.analysis.conngraph` — the flow-insensitive escape
  analysis: escape-root reachability over a connection graph, directed
  for the cheap tier's stack allocation and lock elision, symmetric for
  the equi-escape-sets baseline.
"""

from .conngraph import ConnectionGraph, ConnGraphLockElisionPhase
from .dataflow import (BackwardSolver, BytecodeCFG, DataflowResult,
                       ForwardSolver, IRCFG)
from .summaries import (MethodSummary, ParamSummary, ParamEscape,
                        SummaryDatabase)

__all__ = [
    "ForwardSolver", "BackwardSolver", "DataflowResult", "BytecodeCFG",
    "IRCFG", "SummaryDatabase", "MethodSummary", "ParamSummary",
    "ParamEscape", "ConnectionGraph", "ConnGraphLockElisionPhase",
]
