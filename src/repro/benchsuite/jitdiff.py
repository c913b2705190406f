"""``repro jitdiff`` — per-method backend diff, CoreCLR-jitdiff style.

Runs the whole workload corpus twice — once under the threaded-code
``plan`` backend (the base) and once under the generated-Python
``codegen`` backend (the diff) — and reports:

- a per-workload table of wall-clock time, allocations and deopts,
  sorted by wall-clock regression (worst speedup first), plus a
  bit-identity verdict over the deterministic metrics;
- a per-method table of generated-code sizes: threaded-code size is
  ``len(plan.nodes)`` (handler slots), codegen size is
  ``CodegenPlan.code_size`` (bytes of emitted Python source).  Methods
  the structurizer could not express show as ``plan-fallback`` — every
  such row is a codegen coverage gap worth a look.

Any deterministic-metric mismatch between the backends is a correctness
bug, not a perf delta: the run prints the offending workloads and exits
non-zero so CI fails.  Simulated cycles are deliberately outside the
identity scope — codegen pre-folds each block's cost into one constant,
so float summation order differs from the plan backend's per-node
accumulation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

from .. import api
from ..api import CompilerConfig, compile_source
from ..jit.cache import CompilationCache
from .reporting import num, render_table
from .workloads import SUITES, Workload, quick_copy

#: The deterministic Measurement scope both backends must agree on.
IDENTITY_FIELDS = ("checksum", "kb_per_iteration",
                   "allocations_per_iteration",
                   "monitor_ops_per_iteration", "deopts")


def _method_sizes(vm) -> Dict[str, dict]:
    """Per compiled method (and OSR variant): which lowering the VM
    executes and how big it is."""
    rows: Dict[str, dict] = {}

    def describe(result) -> dict:
        if result.codegen is not None:
            return {"backend": "codegen",
                    "size": result.codegen.code_size}
        if result.plan is not None:
            return {"backend": "plan", "size": len(result.plan.nodes)}
        return {"backend": "interpreter", "size": result.node_count}

    for method, result in vm.compiled.items():
        rows[method.qualified_name] = describe(result)
    for (method, bci), result in vm.osr_compiled.items():
        rows[f"{method.qualified_name}@osr{bci}"] = describe(result)
    return rows


def _run(workload: Workload, backend: str, osr: bool,
         cache: Optional[CompilationCache]) -> dict:
    """One timed, per-method-instrumented run of *workload* under
    *backend*.  Mirrors the harness's measured window (zeroed cycle
    counter, statics reset per iteration) but keeps the VM so the
    compiled set can be inspected afterwards."""
    program = compile_source(workload.source,
                             natives=workload.natives or None)
    config = CompilerConfig.partial_escape(execution_backend=backend,
                                           osr=osr)
    started = time.perf_counter()
    vm = api.compile(program, config=config, cache=cache).vm
    checksum = 0
    for _ in range(workload.warmup_iterations):
        checksum = vm.call(workload.entry, workload.iteration_size)
        program.reset_statics()
    vm.cycles_snapshot()
    vm.exec_stats.cycles = 0.0
    heap_before = vm.heap_snapshot()
    for _ in range(workload.measure_iterations):
        checksum = vm.call(workload.entry, workload.iteration_size)
        program.reset_statics()
    seconds = time.perf_counter() - started
    heap_delta = vm.heap_snapshot().delta(heap_before)
    cycles = vm.cycles_snapshot()
    iterations = workload.measure_iterations
    return {
        "seconds": seconds,
        "checksum": checksum,
        "kb_per_iteration": heap_delta.allocated_bytes / iterations
        / 1024.0,
        "allocations_per_iteration": heap_delta.allocations / iterations,
        "monitor_ops_per_iteration": heap_delta.monitor_operations
        / iterations,
        "cycles_per_iteration": cycles / iterations,
        "deopts": vm.exec_stats.deopts,
        "osr_entries": vm.osr_entries,
        "methods": _method_sizes(vm),
    }


def run_jitdiff(workloads: Sequence[Workload], osr: bool = True,
                cache: Optional[CompilationCache] = None,
                out=sys.stdout) -> dict:
    """Diff the corpus; returns the full report (also printed)."""
    per_workload = {}
    methods: List[dict] = []
    mismatches: List[str] = []
    totals = {"plan": 0.0, "codegen": 0.0}
    for workload in workloads:
        base = _run(workload, "plan", osr, cache)
        diff = _run(workload, "codegen", osr, cache)
        totals["plan"] += base["seconds"]
        totals["codegen"] += diff["seconds"]
        mismatched = [name for name in IDENTITY_FIELDS
                      if base[name] != diff[name]]
        if mismatched:
            mismatches.append(f"{workload.name}: {', '.join(mismatched)}")
        for label in sorted(set(base["methods"]) | set(diff["methods"])):
            plan_row = base["methods"].get(label)
            codegen_row = diff["methods"].get(label)
            methods.append({
                "workload": workload.name,
                "method": label,
                "plan_size_nodes":
                    plan_row["size"] if plan_row else None,
                "codegen_size_bytes":
                    codegen_row["size"]
                    if codegen_row and codegen_row["backend"] == "codegen"
                    else None,
                "codegen_backend":
                    codegen_row["backend"] if codegen_row else "absent",
            })
        per_workload[workload.name] = {
            "plan_seconds": round(base["seconds"], 3),
            "codegen_seconds": round(diff["seconds"], 3),
            "speedup": round(base["seconds"]
                             / max(diff["seconds"], 1e-9), 3),
            "allocations_per_iteration":
                diff["allocations_per_iteration"],
            "deopts": diff["deopts"],
            "osr_entries": diff["osr_entries"],
            "metrics_identical": not mismatched,
            "mismatched_fields": mismatched,
        }

    # Worst wall-clock regression first, CoreCLR-jitdiff style.
    ordered = sorted(per_workload.items(),
                     key=lambda kv: kv[1]["speedup"])
    rows = [[name, num(entry["plan_seconds"], 3),
             num(entry["codegen_seconds"], 3),
             f"x{entry['speedup']:.2f}",
             num(entry["allocations_per_iteration"], 1),
             str(entry["deopts"]),
             "yes" if entry["metrics_identical"] else "NO"]
            for name, entry in ordered]
    print("\n== jitdiff: plan (base) vs codegen (diff), "
          "sorted by regression ==", file=out)
    print(render_table(["benchmark", "plan s", "codegen s", "speedup",
                        "allocs/it", "deopts", "identical"], rows),
          file=out)

    fallbacks = [m for m in methods
                 if m["codegen_backend"] != "codegen"]
    biggest = sorted(
        (m for m in methods if m["codegen_size_bytes"] is not None),
        key=lambda m: -m["codegen_size_bytes"])[:15]
    print("\n-- largest generated methods --", file=out)
    print(render_table(
        ["benchmark", "method", "plan nodes", "codegen bytes"],
        [[m["workload"], m["method"], str(m["plan_size_nodes"]),
          str(m["codegen_size_bytes"])] for m in biggest]), file=out)
    if fallbacks:
        print(f"\n-- {len(fallbacks)} method(s) not on codegen --",
              file=out)
        print(render_table(
            ["benchmark", "method", "executes as"],
            [[m["workload"], m["method"], m["codegen_backend"]]
             for m in fallbacks]), file=out)
    else:
        print("\nevery compiled method runs on codegen "
              "(no structurizer fallbacks)", file=out)

    speedup = totals["plan"] / max(totals["codegen"], 1e-9)
    print(f"\ntotal: plan {totals['plan']:.3f}s, "
          f"codegen {totals['codegen']:.3f}s, speedup x{speedup:.2f}",
          file=out)
    if mismatches:
        print("\nMETRIC MISMATCHES (correctness bug):", file=out)
        for line in mismatches:
            print(f"  {line}", file=out)
    return {
        "workloads": dict(ordered),
        "methods": methods,
        "totals": {
            "plan_seconds": round(totals["plan"], 3),
            "codegen_seconds": round(totals["codegen"], 3),
            "speedup": round(speedup, 3),
            "codegen_fallbacks": len(fallbacks),
        },
        "metrics_identical": not mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=sorted(SUITES) + ["all"],
                        default="all")
    parser.add_argument("--quick", action="store_true",
                        help="fewer warmup iterations")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full report as JSON")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persist the compilation cache here")
    parser.add_argument("--no-osr", dest="osr", action="store_false",
                        default=True,
                        help="disable on-stack replacement")
    args = parser.parse_args(argv)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    workloads = [w for name in suites for w in SUITES[name]]
    if args.quick:
        workloads = [quick_copy(w) for w in workloads]
    cache = CompilationCache(args.cache_dir) if args.cache_dir else None
    report = run_jitdiff(workloads, osr=args.osr, cache=cache)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if report["metrics_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
