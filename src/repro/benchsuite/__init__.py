"""Benchmark suite: synthetic analogs of DaCapo, ScalaDaCapo and
SPECjbb2005, the measurement harness with the evaluation's arms, the
Table 1 and Section 6.2 report, and jitdiff."""

from .harness import (ARMS, SIMULATED_CYCLES_PER_MINUTE, Comparison,
                      Measurement, compare_workload, mismatched,
                      run_arms, run_suite, run_workload)
from .workloads import (ALL_WORKLOADS, DACAPO, SCALADACAPO, SPECJBB_ALL,
                        SUITES, PaperRow, Workload, by_name)

__all__ = [
    "ARMS", "SIMULATED_CYCLES_PER_MINUTE", "Comparison", "Measurement",
    "compare_workload", "mismatched", "run_arms", "run_suite",
    "run_workload", "ALL_WORKLOADS", "DACAPO", "SCALADACAPO",
    "SPECJBB_ALL", "SUITES", "PaperRow", "Workload", "by_name",
]
