"""Correctness tooling: the IR invariant verifier and the differential
fuzzer.

- :mod:`repro.verify.verifier` — :class:`GraphVerifier`, run on every
  graph state a phase produces when ``CompilerConfig.verify_ir`` is set
  (always on under pytest via the ``REPRO_VERIFY_IR`` environment
  variable); :class:`repro.opt.phase.PhasePlan` skips a re-check of a
  graph no edit has touched since it passed.
- :mod:`repro.verify.generator` — the random MJ program generator,
  biased toward the control-flow/allocation shapes Partial Escape
  Analysis transforms.
- :mod:`repro.verify.fuzz` — the coverage-guided differential fuzzer
  (``repro fuzz``) over the seven engines of its ``ENGINES`` table: the
  reference bytecode interpreter, the legacy graph interpreter, the
  plan and codegen backends, escape summaries, the connection-graph
  tier and deoptless dispatch.
- :mod:`repro.verify.shrink` — delta-debugging shrinker producing
  minimal reproducers for ``tests/corpus/``.
"""

from .verifier import GraphVerificationError, GraphVerifier, verify_graph

__all__ = ["GraphVerificationError", "GraphVerifier", "verify_graph"]
