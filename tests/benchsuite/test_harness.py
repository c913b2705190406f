"""The A/B runner's identity check, and the compile-time breakdown it
reports."""

import dataclasses
import gc

import pytest

from repro.benchsuite.harness import (Measurement, mismatched,
                                      run_workload, verify_checksums)
from repro.benchsuite.workloads import by_name, quick_copy
from repro.jit import CompilationCache, CompilerConfig


def _measurement(**changes) -> Measurement:
    return dataclasses.replace(
        Measurement("fop", "with PEA", 7, 1.0, 2.0, 0.0, 100.0, 5, 0),
        **changes)


def test_mismatched_names_exactly_the_differing_fields():
    arms = {"a": _measurement(), "b": _measurement(deopts=1),
            "c": _measurement(kb_per_iteration=3.0)}
    assert mismatched(arms, ("checksum", "kb_per_iteration", "deopts",
                             "cycles_per_iteration")) == \
        ["kb_per_iteration", "deopts"]
    assert mismatched({"a": _measurement(),
                       "b": _measurement(compile_seconds=9.0)},
                      ("checksum", "compile_seconds")) == \
        ["compile_seconds"]
    assert mismatched({"a": _measurement(), "b": _measurement()},
                      ("checksum", "deopts")) == []


def test_checksum_mismatch_raises():
    verify_checksums(by_name("fop"), {"no_ea": _measurement(),
                                      "pea": _measurement()})
    with pytest.raises(AssertionError, match="fop: checksum mismatch 7 vs 8"):
        verify_checksums(by_name("fop"), {"no_ea": _measurement(),
                                          "pea": _measurement(checksum=8)})


def test_compile_spans_account_for_compile_time():
    """The named entries of ``Compiler.phase_seconds`` cover at least
    95% of ``compile_seconds_total`` over one quick workload's
    compiles: the phases and ``verify``, key derivation, the cache
    lookup and store, graph building, summaries and lowering.  The
    cyclic collector is off, so that none of its pauses lands between
    two spans."""
    gc.disable()
    try:
        measured = run_workload(
            quick_copy(by_name("fop")),
            CompilerConfig.partial_escape(escape_tier="pea+summaries"),
            cache=CompilationCache())
    finally:
        gc.enable()
    spans = measured.compile_phase_seconds
    assert {"key", "cache-lookup", "cache-store", "build-graph",
            "summaries", "lower", "verify"} <= set(spans)
    assert sum(spans.values()) >= 0.95 * measured.compile_seconds
