"""The A/B runner's identity check."""

import dataclasses

import pytest

from repro.benchsuite.harness import (Measurement, mismatched,
                                      verify_checksums)
from repro.benchsuite.workloads import by_name


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
