"""Regenerates the paper's Table 1: size and number of allocations, and
performance, on the (Scala)DaCapo and SPECjbb2005 analogs.

Usage::

    python -m repro.benchsuite.table1 [--suite dacapo|scaladacapo|specjbb]
                                      [--locks] [--quick]

The table mirrors the paper's layout: per benchmark, KB / iteration
(the paper reports MB — our simulated iterations are smaller), thousands
of allocations / iteration (the paper reports millions), and iterations
per minute on the simulated clock, each without and with Partial Escape
Analysis plus the relative change.  Suite averages include the DaCapo
benchmarks without significant changes, as in the paper's footnote.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import sys
import time
from typing import List, Optional, Sequence

from ..jit import CompilationCache, CompilerConfig
from .harness import Comparison, run_suite, run_workload
from .profiling import print_profile, profiled
from .reporting import num, pct, render_table
from .workloads import (DACAPO, DACAPO_SHOWN, SCALADACAPO, SPECJBB_ALL,
                        SUITES, Workload, by_name, quick_copy)


def _average(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def table_rows(comparisons: List[Comparison],
               shown: Optional[List[str]] = None) -> List[List[str]]:
    rows = []
    for comparison in comparisons:
        if shown is not None and comparison.workload.name not in shown:
            continue
        without, with_pea = comparison.without, comparison.with_pea
        rows.append([
            comparison.workload.name,
            num(without.kb_per_iteration),
            num(with_pea.kb_per_iteration),
            pct(comparison.kb_delta_pct),
            num(without.allocations_per_iteration / 1000.0, 2),
            num(with_pea.allocations_per_iteration / 1000.0, 2),
            pct(comparison.allocs_delta_pct),
            num(without.iterations_per_minute),
            num(with_pea.iterations_per_minute),
            pct(comparison.speedup_pct),
        ])
    return rows


def average_row(comparisons: List[Comparison], label: str) -> List[str]:
    return [
        label, "", "",
        pct(_average([c.kb_delta_pct for c in comparisons])),
        "", "",
        pct(_average([c.allocs_delta_pct for c in comparisons])),
        "", "",
        pct(_average([c.speedup_pct for c in comparisons])),
    ]


HEADERS = ["benchmark", "KB/it", "KB/it+", "dKB",
           "kAll/it", "kAll/it+", "dAllocs",
           "it/min", "it/min+", "speedup"]


def generate(suites: Sequence[str], quick: bool = False,
             locks: bool = False, out=sys.stdout, jobs: int = 1,
             backend: str = "plan", json_path: Optional[str] = None,
             profile: bool = False,
             cache: Optional[CompilationCache] = None,
             osr: bool = True,
             fleet: Optional[dict] = None) -> dict:
    """Run the selected suites and print Table 1; returns the raw
    comparisons keyed by suite for programmatic use."""
    if profile:
        jobs = 1  # cProfile + histogram need everything in-process
    baseline = CompilerConfig.no_ea(
        execution_backend=backend, collect_node_histogram=profile,
        osr=osr)
    optimized = CompilerConfig.partial_escape(
        execution_backend=backend, collect_node_histogram=profile,
        osr=osr)
    histogram = {} if profile else None
    profiler = cProfile.Profile() if profile else None
    results = {}
    wall_clock = {}
    for suite_name in suites:
        workloads = SUITES[suite_name]
        if quick:
            workloads = [quick_copy(w) for w in workloads]
        started = time.perf_counter()
        with profiled(profiler):
            comparisons = run_suite(workloads, baseline, optimized,
                                    jobs=jobs, histogram=histogram,
                                    cache=cache)
        wall_clock[suite_name] = time.perf_counter() - started
        results[suite_name] = comparisons
        shown = ([w.name for w in DACAPO_SHOWN]
                 if suite_name == "dacapo" else None)
        rows = table_rows(comparisons, shown)
        rows.append(average_row(comparisons, "average"))
        print(f"\n== {suite_name} "
              f"(without PEA vs with PEA) ==", file=out)
        print(render_table(HEADERS, rows), file=out)
        if locks:
            print(f"\n-- {suite_name}: monitor operations/iteration --",
                  file=out)
            lock_rows = [[
                c.workload.name,
                num(c.without.monitor_ops_per_iteration),
                num(c.with_pea.monitor_ops_per_iteration),
                pct(c.monitor_delta_pct)]
                for c in comparisons
                if c.without.monitor_ops_per_iteration > 0]
            print(render_table(["benchmark", "without", "with", "change"],
                               lock_rows), file=out)
    if profile:
        print_profile(profiler, histogram, out=out)
        _print_compile_seconds(results, out)
    if cache is not None:
        stats = cache.stats
        elided = sum(m.warmup_iterations_elided
                     for cs in results.values() for c in cs
                     for m in (c.without, c.with_pea))
        print(f"\ncache: {stats.hits} hits, {stats.misses} misses, "
              f"{stats.disk_hits} from disk, {stats.evictions} evicted, "
              f"{elided} warm-up iterations elided", file=out)
    if json_path:
        analysis_ab = _analysis_ab(results, backend=backend,
                                   cache=cache, osr=osr)
        codegen_ab = _codegen_ab(results, osr=osr)
        gc_ab = _gc_ab(results, backend=backend, cache=cache, osr=osr)
        _write_json(json_path, results, wall_clock, jobs, backend, quick,
                    cache, osr, analysis_ab, codegen_ab, fleet, gc_ab)
    return results


def _analysis_ab(results: dict, backend: str,
                 cache: Optional[CompilationCache], osr: bool) -> dict:
    """Per-workload A/B of the interprocedural escape-summary analysis:
    re-run every workload under ``escape_tier="pea+summaries"`` and
    record the deltas against the plain-PEA measurement.  Results, locks and
    deopts must be bit-identical — the analysis may only remove
    allocations (see :mod:`repro.analysis.summaries`)."""
    config = CompilerConfig.partial_escape(
        execution_backend=backend, osr=osr,
        escape_tier="pea+summaries")
    section = {}
    for comparisons in results.values():
        for c in comparisons:
            pea = c.with_pea
            summ = run_workload(c.workload, config, cache=cache)
            section[c.workload.name] = {
                "allocations_per_iteration_pea":
                    pea.allocations_per_iteration,
                "allocations_per_iteration_summaries":
                    summ.allocations_per_iteration,
                "allocations_delta_per_iteration": round(
                    pea.allocations_per_iteration
                    - summ.allocations_per_iteration, 6),
                "materializations_pea": pea.materializations,
                "materializations_summaries": summ.materializations,
                "checksum_identical": summ.checksum == pea.checksum,
                "monitor_ops_identical":
                    summ.monitor_ops_per_iteration
                    == pea.monitor_ops_per_iteration,
                "deopts_identical": summ.deopts == pea.deopts,
            }
    return section


#: The three escape tiers the GC A/B compares.  The PEA arm stacks the
#: connection graph on top (``+cgstack``) so allocations PEA leaves
#: behind but the cheaper analysis can prove non-escaping still leave
#: the heap — that is what keeps the arms totally ordered.
_GC_AB_TIERS = (("none", "none"),
                ("conngraph", "conngraph"),
                ("pea", "pea+summaries+cgstack"))


def _gc_ab(results: dict, backend: str,
           cache: Optional[CompilationCache], osr: bool) -> dict:
    """Three-way escape-tier A/B through the simulated generational
    collector: every workload runs under no escape analysis, the
    connection-graph fast tier, and full PEA, and the section records
    how allocation behavior translates into collector behavior (minor
    collections, pause cycles, promotion).  Checksums must be identical
    — tiers change *where* objects live, never what the program
    computes — and per-iteration allocations must be totally ordered
    ``pea <= conngraph <= none`` (PEA subsumes the connection graph's
    decisions; see :mod:`repro.analysis.conngraph`)."""
    section = {}
    for comparisons in results.values():
        for c in comparisons:
            arms = {}
            for arm, tier in _GC_AB_TIERS:
                config = CompilerConfig(
                    escape_tier=tier, execution_backend=backend, osr=osr)
                m = run_workload(c.workload, config, cache=cache)
                arms[arm] = {
                    "tier": tier,
                    "checksum": m.checksum,
                    "allocations_per_iteration":
                        m.allocations_per_iteration,
                    "kb_per_iteration": m.kb_per_iteration,
                    "gc_minor_collections": m.gc_minor_collections,
                    "gc_pause_cycles": m.gc_pause_cycles,
                    "gc_promoted_kb": m.gc_promoted_kb,
                    "cycles_per_iteration": m.cycles_per_iteration,
                }
            none_, cg, pea = arms["none"], arms["conngraph"], arms["pea"]
            section[c.workload.name] = {
                **arms,
                "checksums_identical":
                    none_["checksum"] == cg["checksum"] == pea["checksum"],
                "allocations_ordered":
                    pea["allocations_per_iteration"]
                    <= cg["allocations_per_iteration"]
                    <= none_["allocations_per_iteration"],
                "pause_cycles_saved_conngraph": round(
                    none_["gc_pause_cycles"] - cg["gc_pause_cycles"], 6),
                "pause_cycles_saved_pea": round(
                    none_["gc_pause_cycles"] - pea["gc_pause_cycles"], 6),
            }
    return section


def _codegen_ab(results: dict, osr: bool) -> dict:
    """Wall-clock A/B of the codegen backend against the threaded-code
    plan backend over every workload the run covered (uncached, so
    neither side hides behind warm-up elision).  The simulated metrics
    must be bit-identical — the backends differ only in how fast real
    time passes — so the section records per-workload wall-clock
    speedups plus the identity verdict."""
    workloads = [c.workload for comparisons in results.values()
                 for c in comparisons]
    per_workload = {}
    totals = {"plan": 0.0, "codegen": 0.0}
    identical = True
    for workload in workloads:
        seconds = {}
        measured = {}
        for backend in ("plan", "codegen"):
            config = CompilerConfig.partial_escape(
                execution_backend=backend, osr=osr)
            started = time.perf_counter()
            measured[backend] = run_workload(workload, config)
            seconds[backend] = time.perf_counter() - started
            totals[backend] += seconds[backend]
        # Bit-identity scope: everything deterministic.  Simulated
        # cycles are excluded — codegen pre-folds each block's cost
        # into one constant, so the float summation *order* differs
        # from the plan backend's per-node accumulation.
        plan_m, codegen_m = measured["plan"], measured["codegen"]
        same = all(
            getattr(plan_m, name) == getattr(codegen_m, name)
            for name in ("checksum", "kb_per_iteration",
                         "allocations_per_iteration",
                         "monitor_ops_per_iteration", "deopts"))
        identical = identical and same
        per_workload[workload.name] = {
            "plan_seconds": round(seconds["plan"], 3),
            "codegen_seconds": round(seconds["codegen"], 3),
            "speedup": round(seconds["plan"]
                             / max(seconds["codegen"], 1e-9), 3),
            "metrics_identical": same,
        }
    return {
        "plan_seconds": round(totals["plan"], 3),
        "codegen_seconds": round(totals["codegen"], 3),
        "speedup": round(totals["plan"]
                         / max(totals["codegen"], 1e-9), 3),
        "metrics_identical": identical,
        "workloads": per_workload,
    }


def _latency_histogram(samples) -> dict:
    """Power-of-two bucketed latency histogram (bucket upper bound ->
    count), compact enough for the JSON payload while still showing the
    bimodal fast/cliff shape."""
    buckets: dict = {}
    for sample in samples:
        bound = 1 << max(1, int(sample)).bit_length()
        buckets[bound] = buckets.get(bound, 0) + 1
    return {str(bound): count for bound, count in sorted(buckets.items())}


def _deoptless_ab() -> dict:
    """Phase-shift tail-latency A/B: drive each phase-shifting workload
    through its flip with deoptless off and on (see
    :mod:`.workloads.phaseshift`) and record post-flip p50/p95/p99
    simulated-cycle latency, the latency histogram, and interpreter
    steps spent bridging deopts after the flip.  Checksums must be
    identical — deoptless only changes *where* the post-deopt half of a
    call executes, never what it computes.  Everything here is
    simulated and deterministic; it lives under ``timing`` because tail
    latency is a performance claim, not a Table 1 metric."""
    from ..jit import VM
    from ..lang import compile_source as compile_mj
    from .harness import percentile
    from .workloads.phaseshift import AB_DRIVERS
    section = {}
    for name, (source, driver) in sorted(AB_DRIVERS.items()):
        sides = {}
        for enabled in (False, True):
            program = compile_mj(source)
            config = CompilerConfig.partial_escape(deoptless=enabled)
            vm = VM(program, config)
            outcome = driver(vm, program)
            latencies = outcome["post_flip_latencies"]
            side = {
                "checksum": outcome["checksum"],
                "post_flip_p50_cycles": percentile(latencies, 50.0),
                "post_flip_p95_cycles": percentile(latencies, 95.0),
                "post_flip_p99_cycles": percentile(latencies, 99.0),
                "interpreter_steps_after_flip":
                    outcome["interpreter_steps_after_flip"],
                "latency_histogram": _latency_histogram(latencies),
            }
            if enabled:
                side.update(vm.deoptless.snapshot())
            sides[enabled] = side
        off, on = sides[False], sides[True]
        section[name] = {
            "off": off,
            "on": on,
            "checksum_identical": off["checksum"] == on["checksum"],
            "p99_speedup": round(
                off["post_flip_p99_cycles"]
                / max(on["post_flip_p99_cycles"], 1e-9), 3),
            "fewer_interpreter_steps_after_flip":
                on["interpreter_steps_after_flip"]
                < off["interpreter_steps_after_flip"],
        }
    return section


def _osr_warmup_ab(workload: Workload) -> dict:
    """Time one loop-heavy workload's full (uncached) run with and
    without on-stack replacement.  The simulated metrics are identical —
    OSR only moves warm-up iterations from the interpreter into compiled
    code — so the interesting number is real wall-clock."""
    seconds = {}
    for enabled in (True, False):
        config = CompilerConfig.partial_escape(osr=enabled)
        started = time.perf_counter()
        run_workload(workload, config)
        seconds[enabled] = time.perf_counter() - started
    return {
        "workload": workload.name,
        "osr_seconds": round(seconds[True], 3),
        "no_osr_seconds": round(seconds[False], 3),
    }


def _print_compile_seconds(results: dict, out) -> None:
    """Per-phase compile-time breakdown (satellite of the compilation
    cache work: Compiler aggregates instead of dropping timings)."""
    phases: dict = {}
    total = 0.0
    for comparisons in results.values():
        for c in comparisons:
            for m in (c.without, c.with_pea):
                total += m.compile_seconds
                for phase, seconds in m.compile_phase_seconds.items():
                    phases[phase] = phases.get(phase, 0.0) + seconds
    print(f"\n-- compile time: {total:.3f}s total --", file=out)
    rows = [[phase, f"{seconds:.3f}"]
            for phase, seconds in
            sorted(phases.items(), key=lambda kv: -kv[1])]
    print(render_table(["phase", "seconds"], rows), file=out)


def _write_json(path: str, results: dict, wall_clock: dict, jobs: int,
                backend: str, quick: bool,
                cache: Optional[CompilationCache] = None,
                osr: bool = True,
                analysis_ab: Optional[dict] = None,
                codegen_ab: Optional[dict] = None,
                fleet: Optional[dict] = None,
                gc_ab: Optional[dict] = None) -> None:
    """Benchmark metrics for CI tracking (BENCH_table1.json).

    ``suites`` holds only deterministic, simulated metrics — identical
    across machines, cache modes and cold/warm runs, so CI can diff it
    byte-for-byte.  Wall-clock and compile-time measurements live in the
    separate ``timing`` section."""
    payload = {
        "backend": backend,
        "jobs": jobs,
        "osr": osr,
        "quick": quick,
        "suites": {},
        "timing": {"suites": {}},
    }
    if analysis_ab is not None:
        payload["analysis_ab"] = analysis_ab
    for suite_name, comparisons in results.items():
        payload["suites"][suite_name] = {
            "workloads": {
                c.workload.name: {
                    "checksum": c.without.checksum,
                    "cycles_per_iteration_no_ea":
                        c.without.cycles_per_iteration,
                    "cycles_per_iteration_pea":
                        c.with_pea.cycles_per_iteration,
                    "kb_per_iteration_no_ea": c.without.kb_per_iteration,
                    "kb_per_iteration_pea": c.with_pea.kb_per_iteration,
                    "allocations_per_iteration_no_ea":
                        c.without.allocations_per_iteration,
                    "allocations_per_iteration_pea":
                        c.with_pea.allocations_per_iteration,
                    "monitor_ops_per_iteration_no_ea":
                        c.without.monitor_ops_per_iteration,
                    "monitor_ops_per_iteration_pea":
                        c.with_pea.monitor_ops_per_iteration,
                    "compiled_nodes_no_ea": c.without.compiled_nodes,
                    "compiled_nodes_pea": c.with_pea.compiled_nodes,
                    "deopts_no_ea": c.without.deopts,
                    "deopts_pea": c.with_pea.deopts,
                    "latency_p95_cycles_no_ea":
                        c.without.latency_p95_cycles,
                    "latency_p95_cycles_pea":
                        c.with_pea.latency_p95_cycles,
                    "latency_p99_cycles_no_ea":
                        c.without.latency_p99_cycles,
                    "latency_p99_cycles_pea":
                        c.with_pea.latency_p99_cycles,
                } for c in comparisons
            },
        }
        phase_seconds: dict = {}
        compile_seconds = 0.0
        warmup_elided = 0
        cache_hits = 0
        osr_compilations = 0
        osr_entries = 0
        for c in comparisons:
            for m in (c.without, c.with_pea):
                compile_seconds += m.compile_seconds
                warmup_elided += m.warmup_iterations_elided
                cache_hits += m.cache_hits
                osr_compilations += m.osr_compilations
                osr_entries += m.osr_entries
                for phase, seconds in m.compile_phase_seconds.items():
                    phase_seconds[phase] = \
                        phase_seconds.get(phase, 0.0) + seconds
        payload["timing"]["suites"][suite_name] = {
            "harness_wall_clock_seconds": round(
                wall_clock[suite_name], 3),
            "compile_seconds": {
                "total": round(compile_seconds, 3),
                "phases": {phase: round(seconds, 3)
                           for phase, seconds in phase_seconds.items()},
            },
            "warmup_iterations_elided": warmup_elided,
            "cache_hits": cache_hits,
            "osr_compilations": osr_compilations,
            "osr_entries": osr_entries,
        }
    if codegen_ab is not None:
        payload["timing"]["codegen_ab"] = codegen_ab
    if gc_ab is not None:
        # Escape-tier x generational-collector A/B (see _gc_ab).  The
        # metrics inside are simulated and deterministic; the section
        # lives under ``timing`` because its headline claim — pause
        # cycles saved per tier — is a performance claim.
        payload["timing"]["gc_ab"] = gc_ab
    if fleet is not None:
        # Compile-service fleet benchmark (see benchsuite.fleet):
        # wall-clock/latency numbers are machine-dependent, but
        # dedup_or_hit_rate, checksums_consistent and
        # identity.all_identical are acceptance-gated invariants.
        payload["timing"]["fleet"] = fleet
    if osr:
        # Demonstrate the tentpole's point on real wall-clock: one
        # loop-heavy workload warmed with and without OSR.
        h2 = by_name("h2")
        payload["timing"]["osr_warmup_ab"] = _osr_warmup_ab(
            quick_copy(h2) if quick else h2)
    # Deoptless phase-shift A/B: post-flip tail latency and interpreter
    # bridging, deoptless off vs on (simulated, deterministic).
    payload["timing"]["deoptless_ab"] = _deoptless_ab()
    if cache is not None:
        stats = cache.stats.snapshot()
        payload["timing"]["cache"] = {
            name: round(value, 3) if isinstance(value, float) else value
            for name, value in stats.items()}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=sorted(SUITES) + ["all"],
                        default="all")
    parser.add_argument("--locks", action="store_true",
                        help="also print monitor-operation changes")
    parser.add_argument("--quick", action="store_true",
                        help="fewer warmup iterations")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run workloads in N parallel processes")
    parser.add_argument("--backend",
                        choices=["codegen", "plan", "legacy"],
                        default="plan",
                        help="compiled-code execution backend")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write per-workload metrics as JSON")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile top-20 + per-node-kind execution "
                             "histogram (forces --jobs 1)")
    parser.add_argument("--cache", dest="cache", action="store_true",
                        default=True,
                        help="share compiled graphs across VMs "
                             "(default)")
    parser.add_argument("--no-cache", dest="cache", action="store_false",
                        help="compile every method from scratch")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persist the compilation cache here so "
                             "later runs start warm (implies --cache)")
    parser.add_argument("--no-osr", dest="osr", action="store_false",
                        default=True,
                        help="disable on-stack replacement (hot loops "
                             "wait for the invocation threshold)")
    parser.add_argument("--fleet", action="store_true",
                        help="also run the compile-service fleet "
                             "benchmark and record it under "
                             "timing.fleet in the --json payload")
    parser.add_argument("--fleet-workers", type=int, default=16,
                        metavar="N",
                        help="concurrent VM client processes for "
                             "--fleet (default 16)")
    args = parser.parse_args(argv)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    cache = None
    if args.cache or args.cache_dir:
        cache = CompilationCache(args.cache_dir)
    fleet_payload = None
    if args.fleet:
        from .fleet import run_fleet
        fleet_payload = run_fleet(workers=args.fleet_workers,
                                  quick=args.quick)
    generate(suites, quick=args.quick, locks=args.locks, jobs=args.jobs,
             backend=args.backend, json_path=args.json,
             profile=args.profile, cache=cache, osr=args.osr,
             fleet=fleet_payload)


if __name__ == "__main__":
    main()
