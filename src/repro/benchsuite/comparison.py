"""Section 6.2: flow-insensitive Escape Analysis vs Partial Escape
Analysis.

The paper reports that the HotSpot server compiler gains less from its
(flow-insensitive) Escape Analysis than Graal does from PEA:
0.9% vs 2.2% on DaCapo, 7.4% vs 10.4% on ScalaDaCapo, 5.4% vs 8.7% on
SPECjbb2005.  This harness runs every suite under three configurations
(no EA / equi-escape EA / PEA) and prints the same comparison.

Usage::

    python -m repro.benchsuite.comparison [--suite ...] [--quick]
"""

from __future__ import annotations

import argparse
import cProfile
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..jit import CompilerConfig
from .harness import Measurement, run_workload
from .profiling import print_profile, profiled
from .reporting import pct, render_table
from .workloads import SUITES, Workload, quick_copy


@dataclass
class ThreeWay:
    workload: Workload
    no_ea: Measurement
    equi: Measurement
    pea: Measurement

    def speedup(self, measurement: Measurement) -> float:
        base = self.no_ea.iterations_per_minute
        if base == 0:
            return 0.0
        return (measurement.iterations_per_minute - base) / base * 100.0

    @property
    def equi_speedup_pct(self) -> float:
        return self.speedup(self.equi)

    @property
    def pea_speedup_pct(self) -> float:
        return self.speedup(self.pea)

    def verify(self):
        assert self.no_ea.checksum == self.equi.checksum == \
            self.pea.checksum, f"{self.workload.name}: checksum mismatch"


def run_three_way(workload: Workload, backend: str = "plan",
                  histogram: Optional[Dict[str, int]] = None
                  ) -> ThreeWay:
    collect = histogram is not None
    result = ThreeWay(
        workload,
        run_workload(workload, CompilerConfig.no_ea(
            execution_backend=backend, collect_node_histogram=collect),
            histogram),
        run_workload(workload, CompilerConfig.equi_escape(
            execution_backend=backend, collect_node_histogram=collect),
            histogram),
        run_workload(workload, CompilerConfig.partial_escape(
            execution_backend=backend, collect_node_histogram=collect),
            histogram),
    )
    result.verify()
    return result


def _three_way_worker(item) -> ThreeWay:
    """Module-level worker so ProcessPoolExecutor can pickle it."""
    workload, backend = item
    return run_three_way(workload, backend)


#: The paper's Section 6.2 numbers: suite -> (server EA %, Graal PEA %).
PAPER_62 = {
    "dacapo": (0.9, 2.2),
    "scaladacapo": (7.4, 10.4),
    "specjbb": (5.4, 8.7),
}


def generate(suites: Sequence[str], quick: bool = False, out=sys.stdout,
             jobs: int = 1, backend: str = "plan",
             profile: bool = False) -> Dict[str, List[ThreeWay]]:
    if profile:
        jobs = 1  # cProfile + histogram need everything in-process
    histogram: Optional[Dict[str, int]] = {} if profile else None
    profiler = cProfile.Profile() if profile else None
    results: Dict[str, List[ThreeWay]] = {}
    for suite_name in suites:
        workloads = SUITES[suite_name]
        if quick:
            workloads = [quick_copy(w) for w in workloads]
        with profiled(profiler):
            if jobs > 1:
                from concurrent.futures import ProcessPoolExecutor
                items = [(w, backend) for w in workloads]
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    three_ways = list(pool.map(_three_way_worker, items))
            else:
                three_ways = [run_three_way(w, backend, histogram)
                              for w in workloads]
        results[suite_name] = three_ways
        rows = [[t.workload.name, pct(t.equi_speedup_pct),
                 pct(t.pea_speedup_pct)] for t in three_ways]
        equi_avg = sum(t.equi_speedup_pct for t in three_ways) \
            / len(three_ways)
        pea_avg = sum(t.pea_speedup_pct for t in three_ways) \
            / len(three_ways)
        paper_equi, paper_pea = PAPER_62[suite_name]
        rows.append(["average", pct(equi_avg), pct(pea_avg)])
        rows.append(["(paper)", pct(paper_equi), pct(paper_pea)])
        print(f"\n== {suite_name}: speedup over no-EA ==", file=out)
        print(render_table(["benchmark", "equi-escape EA", "PEA"], rows),
              file=out)
    if profile:
        print_profile(profiler, histogram, out=out)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=sorted(PAPER_62) + ["all"],
                        default="all",
                        help="one of the paper's three suites (default: "
                             "all three)")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run workloads in N parallel processes")
    parser.add_argument("--backend", choices=["plan", "legacy"],
                        default="plan",
                        help="compiled-code execution backend")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile top-20 + per-node-kind execution "
                             "histogram (forces --jobs 1)")
    args = parser.parse_args(argv)
    suites = list(PAPER_62) if args.suite == "all" else [args.suite]
    generate(suites, quick=args.quick, jobs=args.jobs,
             backend=args.backend, profile=args.profile)


if __name__ == "__main__":
    main()
