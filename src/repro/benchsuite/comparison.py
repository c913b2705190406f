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
from typing import Dict, List, Mapping, Optional, Sequence

from ..jit import CompilerConfig
from .harness import (Measurement, delta_pct, run_suite,
                      verify_checksums)
from .profiling import print_profile, profiled
from .reporting import pct, render_table
from .workloads import SUITES, quick_copy


def arms(backend: str = "plan", collect_node_histogram: bool = False
         ) -> Dict[str, CompilerConfig]:
    """The three configurations of Section 6.2, baseline first."""
    options = dict(execution_backend=backend,
                   collect_node_histogram=collect_node_histogram)
    return {"no_ea": CompilerConfig.no_ea(**options),
            "equi": CompilerConfig.equi_escape(**options),
            "pea": CompilerConfig.partial_escape(**options)}


def speedup_pct(measured: Mapping[str, Measurement], arm: str) -> float:
    """*arm*'s speedup over the no-EA arm, in percent."""
    return delta_pct(measured["no_ea"].iterations_per_minute,
                     measured[arm].iterations_per_minute)


#: The paper's Section 6.2 numbers: suite -> (server EA %, Graal PEA %).
PAPER_62 = {
    "dacapo": (0.9, 2.2),
    "scaladacapo": (7.4, 10.4),
    "specjbb": (5.4, 8.7),
}


def generate(suites: Sequence[str], quick: bool = False, out=sys.stdout,
             jobs: int = 1, backend: str = "plan",
             profile: bool = False
             ) -> Dict[str, List[Dict[str, Measurement]]]:
    """Run the suites under :func:`arms` and print each suite's
    speedups; returns every workload's ``{arm: Measurement}`` per
    suite, in suite order."""
    if profile:
        jobs = 1  # cProfile + histogram need everything in-process
    histogram: Optional[Dict[str, int]] = {} if profile else None
    profiler = cProfile.Profile() if profile else None
    configs = arms(backend, collect_node_histogram=profile)
    results: Dict[str, List[Dict[str, Measurement]]] = {}
    for suite_name in suites:
        workloads = SUITES[suite_name]
        if quick:
            workloads = [quick_copy(w) for w in workloads]
        with profiled(profiler):
            measured = run_suite(workloads, configs, jobs=jobs,
                                 histogram=histogram)
        for workload, measurements in zip(workloads, measured):
            verify_checksums(workload, measurements)
        results[suite_name] = measured
        equi = [speedup_pct(m, "equi") for m in measured]
        pea = [speedup_pct(m, "pea") for m in measured]
        rows = [[w.name, pct(e), pct(p)]
                for w, e, p in zip(workloads, equi, pea)]
        paper_equi, paper_pea = PAPER_62[suite_name]
        rows.append(["average", pct(sum(equi) / len(equi)),
                     pct(sum(pea) / len(pea))])
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
