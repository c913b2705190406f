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
import io
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..jit import CompilationCache, CompilerConfig
from .harness import Comparison, mismatched, run_suite, run_workload
from .jitdiff import run_jitdiff
from .profiling import print_profile, profiled
from .reporting import num, pct, render_table
from .workloads import DACAPO_SHOWN, SUITES, Workload, by_name, quick_copy


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


def arms(backend: str = "plan", collect_node_histogram: bool = False,
         osr: bool = True) -> Dict[str, CompilerConfig]:
    """Table 1's two configurations, baseline first."""
    options = dict(execution_backend=backend,
                   collect_node_histogram=collect_node_histogram, osr=osr)
    return {"no_ea": CompilerConfig.no_ea(**options),
            "pea": CompilerConfig.partial_escape(**options)}


def generate(suites: Sequence[str], quick: bool = False,
             locks: bool = False, out=sys.stdout, jobs: int = 1,
             backend: str = "plan", json_path: Optional[str] = None,
             profile: bool = False,
             cache: Optional[CompilationCache] = None,
             osr: bool = True) -> dict:
    """Run the selected suites and print Table 1; returns the raw
    comparisons keyed by suite for programmatic use.  With *json_path*
    the A/B sections run too, all before the cache summary is printed,
    so that line covers every run the command made."""
    if profile:
        jobs = 1  # cProfile + histogram need everything in-process
    configs = arms(backend, collect_node_histogram=profile, osr=osr)
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
            measured = run_suite(workloads, configs, jobs=jobs,
                                 histogram=histogram, cache=cache)
        wall_clock[suite_name] = time.perf_counter() - started
        comparisons = [Comparison.of(w, m)
                       for w, m in zip(workloads, measured)]
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
    measurements = [m for cs in results.values() for c in cs
                    for m in c.arms.values()]
    if profile:
        print_profile(profiler, histogram, out=out)
        _print_compile_seconds(measurements, out)
    sections = None
    if json_path:
        sections = _ab_sections(results, backend, quick, jobs, cache, osr)
    print(file=out)
    if cache is not None:
        stats = cache.stats
        elided = sum(m.warmup_iterations_elided for m in measurements)
        print(f"cache: {stats.hits} hits, {stats.misses} misses, "
              f"{stats.disk_hits} from disk, {stats.evictions} evicted, "
              f"{stats.dropped} dropped, "
              f"{elided} warm-up iterations elided", file=out)
    fallbacks = sum(m.backend_fallbacks for m in measurements)
    print(f"backend fallbacks: {fallbacks} installs ran on the "
          f"GraphInterpreter instead of the configured backend",
          file=out)
    failures = sum(m.compile_failures for m in measurements)
    print(f"compile failures: {failures} method or OSR entries failed "
          f"to compile and ran interpreted", file=out)
    if json_path:
        _write_json(json_path, results, wall_clock, jobs, backend, quick,
                    cache, osr, sections)
    return results


def _ab_sections(results: dict, backend: str, quick: bool, jobs: int,
                 cache: Optional[CompilationCache], osr: bool) -> dict:
    """Every A/B the ``--json`` payload records: ``analysis_ab`` and
    ``ablation_ab`` at the top level, the rest under ``timing``."""
    comparisons = [c for cs in results.values() for c in cs]
    analysis_ab = _analysis_ab(comparisons, backend=backend, jobs=jobs,
                               cache=cache, osr=osr)
    ablation_ab = _ablation_ab(comparisons, backend=backend, jobs=jobs,
                               cache=cache, osr=osr)
    timing = {
        "codegen_ab": _codegen_ab(comparisons, osr=osr),
        # Escape-tier x generational-collector A/B.  The metrics inside
        # are simulated and deterministic; the section lives under
        # ``timing`` because its headline claim — pause cycles saved
        # per tier — is a performance claim.
        "gc_ab": _gc_ab(comparisons, backend=backend, jobs=jobs,
                        cache=cache, osr=osr),
    }
    if osr:
        # OSR's gain is real wall-clock, not a simulated metric: one
        # loop-heavy workload warmed with and without OSR.
        h2 = by_name("h2")
        timing["osr_warmup_ab"] = _osr_warmup_ab(
            quick_copy(h2) if quick else h2)
    # Deoptless phase-shift A/B: post-flip tail latency and interpreter
    # bridging, deoptless off vs on (simulated, deterministic).
    timing["deoptless_ab"] = _deoptless_ab()
    return {"analysis_ab": analysis_ab, "ablation_ab": ablation_ab,
            "timing": timing}


#: The escape tier of the escape-summary A/B's ``summaries`` arm.
_ANALYSIS_AB_TIER = "pea+summaries"


def _analysis_ab(comparisons: List[Comparison], backend: str, jobs: int,
                 cache: Optional[CompilationCache], osr: bool) -> dict:
    """Per-workload A/B of the interprocedural escape-summary analysis:
    re-run every workload under :data:`_ANALYSIS_AB_TIER` and record
    the deltas against the plain-PEA measurement.  Results, locks and
    deopts must be bit-identical — the analysis may only remove
    allocations (see :mod:`repro.analysis.summaries`)."""
    config = CompilerConfig(execution_backend=backend, osr=osr,
                            escape_tier=_ANALYSIS_AB_TIER)
    measured = run_suite([c.workload for c in comparisons],
                         {"summaries": config}, jobs=jobs, cache=cache)
    section = {}
    for c, arms in zip(comparisons, measured):
        pea, summ = c.with_pea, arms["summaries"]
        differ = mismatched({"pea": pea, "summaries": summ},
                            ("checksum", "monitor_ops_per_iteration",
                             "deopts"))
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
            "checksum_identical": "checksum" not in differ,
            "monitor_ops_identical":
                "monitor_ops_per_iteration" not in differ,
            "deopts_identical": "deopts" not in differ,
        }
    return section


#: The PEA ablations, by arm: each switches one ingredient of the full
#: pipeline off.  The ``full`` arm is Table 1's PEA measurement (the
#: same configuration), so only these run.
_ABLATIONS = {
    "single_pass": {"pea_iterations": 1},
    # No virtual arrays (Section 5.2).
    "no_arrays": {"pea_virtualize_arrays": False},
    # No folding of reference equality, null and type checks on virtual
    # objects.
    "no_check_folds": {"pea_fold_checks": False},
    # No load/store forwarding after escape analysis.
    "no_read_elim": {"read_elimination": False},
    # PEA "is particularly effective if it can interact with other
    # parts of the compiler, such as inlining".
    "no_inlining": {"inline": False},
    # No profile-driven pruning of never-taken branches: rare escaping
    # branches rejoin and force materialization.
    "no_branch_speculation": {"speculate_branches": False},
}

#: The Measurement fields each ablation arm records.
_ABLATION_FIELDS = ("checksum", "allocations_per_iteration",
                    "kb_per_iteration", "cycles_per_iteration")


def _ablation_ab(comparisons: List[Comparison], backend: str, jobs: int,
                 cache: Optional[CompilationCache], osr: bool) -> dict:
    """Per-workload A/B of the PEA ablations: every workload under each
    arm of :data:`_ABLATIONS` beside the full pipeline (Table 1's PEA
    arm).  Checksums must be identical — an ablation changes what the
    compiler removes, never what the program computes — and no arm may
    allocate less than ``full``."""
    rerun = {arm: CompilerConfig.partial_escape(
                 execution_backend=backend, osr=osr, **knobs)
             for arm, knobs in _ABLATIONS.items()}
    measured = run_suite([c.workload for c in comparisons], rerun,
                         jobs=jobs, cache=cache)
    section = {}
    for c, reran in zip(comparisons, measured):
        arms = {"full": c.with_pea, **reran}
        full = c.with_pea.allocations_per_iteration
        section[c.workload.name] = {
            **{arm: {name: getattr(m, name) for name in _ABLATION_FIELDS}
               for arm, m in arms.items()},
            "checksums_identical": not mismatched(arms, ("checksum",)),
            "never_below_full": all(m.allocations_per_iteration >= full
                                    for m in reran.values()),
        }
    return section


#: The escape tiers the GC A/B compares, by arm.  The ``none`` arm is
#: Table 1's no-EA measurement (the same configuration), so only the
#: other two run.  The PEA arm runs full connection-graph stack
#: allocation after PEA, so allocations PEA leaves behind but the
#: cheaper analysis can prove non-escaping still leave the heap — that
#: is what keeps the arms totally ordered.
_GC_AB_TIERS = {"none": "none",
                "conngraph": "conngraph",
                "pea": "pea+summaries+cgstack"}

#: The Measurement fields each GC A/B arm records.
_GC_AB_FIELDS = ("checksum", "allocations_per_iteration",
                 "kb_per_iteration", "gc_minor_collections",
                 "gc_pause_cycles", "gc_promoted_kb",
                 "cycles_per_iteration")


def _gc_ab(comparisons: List[Comparison], backend: str, jobs: int,
           cache: Optional[CompilationCache], osr: bool) -> dict:
    """Three-way escape-tier A/B through the simulated generational
    collector: every workload under no escape analysis (Table 1's
    no-EA arm), the connection-graph fast tier, and full PEA, and the
    section records how allocation behavior translates into collector
    behavior (minor collections, pause cycles, promotion).  Checksums
    must be identical — tiers change *where* objects live, never what
    the program computes — and per-iteration allocations must be
    totally ordered ``pea <= conngraph <= none`` (PEA subsumes the
    connection graph's decisions; see :mod:`repro.analysis.conngraph`)."""
    rerun = {arm: CompilerConfig(escape_tier=tier,
                                 execution_backend=backend, osr=osr)
             for arm, tier in _GC_AB_TIERS.items() if arm != "none"}
    measured = run_suite([c.workload for c in comparisons], rerun,
                         jobs=jobs, cache=cache)
    section = {}
    for c, reran in zip(comparisons, measured):
        arms = {"none": c.without, **reran}
        rows = {arm: {"tier": _GC_AB_TIERS[arm],
                      **{name: getattr(m, name) for name in _GC_AB_FIELDS}}
                for arm, m in arms.items()}
        none_, cg, pea = rows["none"], rows["conngraph"], rows["pea"]
        section[c.workload.name] = {
            **rows,
            "checksums_identical": not mismatched(arms, ("checksum",)),
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


def _codegen_ab(comparisons: List[Comparison], osr: bool) -> dict:
    """Wall-clock A/B of the codegen backend against the threaded-code
    plan backend over every workload the run covered: ``repro jitdiff``
    run uncached (so neither side hides behind warm-up elision), keeping
    its per-workload timings and its verdict that the deterministic
    metrics are bit-identical."""
    report = run_jitdiff([c.workload for c in comparisons], osr=osr,
                         out=io.StringIO())
    keys = ("plan_seconds", "codegen_seconds", "speedup")
    return {
        **{key: report["totals"][key] for key in keys},
        "metrics_identical": report["metrics_identical"],
        "workloads": {
            name: {key: row[key] for key in keys + ("metrics_identical",)}
            for name, row in report["workloads"].items()},
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


def _compile_seconds(measurements) -> Tuple[float, dict]:
    """Total compile seconds and seconds per phase (as
    :class:`~repro.jit.Compiler` aggregates them) over *measurements*."""
    phases: dict = {}
    total = 0.0
    for m in measurements:
        total += m.compile_seconds
        for phase, seconds in m.compile_phase_seconds.items():
            phases[phase] = phases.get(phase, 0.0) + seconds
    return total, phases


def _print_compile_seconds(measurements, out) -> None:
    """Per-phase compile-time breakdown."""
    total, phases = _compile_seconds(measurements)
    print(f"\n-- compile time: {total:.3f}s total --", file=out)
    rows = [[phase, f"{seconds:.3f}"]
            for phase, seconds in
            sorted(phases.items(), key=lambda kv: -kv[1])]
    print(render_table(["phase", "seconds"], rows), file=out)


#: The Measurement fields ``suites`` records per workload, each once
#: per Table 1 arm (``<field>_no_ea``, ``<field>_pea``).
_SUITE_FIELDS = ("cycles_per_iteration", "kb_per_iteration",
                 "allocations_per_iteration", "monitor_ops_per_iteration",
                 "compiled_nodes", "deopts", "latency_p95_cycles",
                 "latency_p99_cycles")

#: The Measurement counters ``timing.suites`` sums per suite.
_SUITE_COUNTERS = ("warmup_iterations_elided", "cache_hits",
                   "osr_compilations", "osr_entries", "backend_fallbacks",
                   "compile_failures")


def _write_json(path: str, results: dict, wall_clock: dict, jobs: int,
                backend: str, quick: bool,
                cache: Optional[CompilationCache], osr: bool,
                sections: dict) -> None:
    """Benchmark metrics for CI tracking (BENCH_table1.json): Table 1's
    measurements, the A/B *sections* of :func:`_ab_sections` and the
    cache counters, serialized.

    ``suites`` holds only deterministic, simulated metrics — identical
    across machines, cache modes and cold/warm runs, so CI can diff it
    byte-for-byte.  Wall-clock and compile-time measurements live in the
    separate ``timing`` section."""
    payload = {
        "backend": backend,
        "jobs": jobs,
        "osr": osr,
        "quick": quick,
        "analysis_ab": sections["analysis_ab"],
        "ablation_ab": sections["ablation_ab"],
        "suites": {},
        "timing": {"suites": {}, **sections["timing"]},
    }
    for suite_name, comparisons in results.items():
        payload["suites"][suite_name] = {
            "workloads": {
                c.workload.name: {
                    "checksum": c.without.checksum,
                    **{f"{name}_{arm}": getattr(m, name)
                       for arm, m in c.arms.items()
                       for name in _SUITE_FIELDS},
                } for c in comparisons
            },
        }
        measurements = [m for c in comparisons for m in c.arms.values()]
        compile_seconds, phase_seconds = _compile_seconds(measurements)
        payload["timing"]["suites"][suite_name] = {
            "harness_wall_clock_seconds": round(
                wall_clock[suite_name], 3),
            "compile_seconds": {
                "total": round(compile_seconds, 3),
                "phases": {phase: round(seconds, 3)
                           for phase, seconds in phase_seconds.items()},
            },
            **{name: sum(getattr(m, name) for m in measurements)
               for name in _SUITE_COUNTERS},
        }
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
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persist the compilation cache here so "
                             "later runs start warm")
    parser.add_argument("--no-osr", dest="osr", action="store_false",
                        default=True,
                        help="disable on-stack replacement (hot loops "
                             "wait for the invocation threshold)")
    args = parser.parse_args(argv)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    cache = CompilationCache(args.cache_dir) if args.cache_dir else None
    generate(suites, quick=args.quick, locks=args.locks, jobs=args.jobs,
             backend=args.backend, json_path=args.json,
             profile=args.profile, cache=cache, osr=args.osr)


if __name__ == "__main__":
    main()
