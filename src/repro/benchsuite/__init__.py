"""Benchmark suite: synthetic analogs of DaCapo, ScalaDaCapo and
SPECjbb2005, the measurement harness and the Table 1 / Section 6.2
report generators."""

from .harness import (SIMULATED_CYCLES_PER_MINUTE, Comparison,
                      Measurement, compare_workload, mismatched,
                      run_arms, run_suite, run_workload)
from .workloads import (ALL_WORKLOADS, DACAPO, SCALADACAPO, SPECJBB_ALL,
                        SUITES, PaperRow, Workload, by_name)

__all__ = [
    "SIMULATED_CYCLES_PER_MINUTE", "Comparison", "Measurement",
    "compare_workload", "mismatched", "run_arms", "run_suite",
    "run_workload", "ALL_WORKLOADS", "DACAPO", "SCALADACAPO",
    "SPECJBB_ALL", "SUITES", "PaperRow", "Workload", "by_name",
]
