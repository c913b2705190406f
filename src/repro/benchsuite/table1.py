"""Regenerates the paper's Table 1 (size and number of allocations, and
performance) and its Section 6.2 comparison, on the (Scala)DaCapo and
SPECjbb2005 analogs.

Usage::

    python -m repro.benchsuite.table1 [--suite S] [--locks] [--quick]
                                      [--json PATH]

The table mirrors the paper's layout: per benchmark, KB / iteration
(the paper reports MB — our simulated iterations are smaller), thousands
of allocations / iteration (the paper reports millions), and iterations
per minute on the simulated clock, each without and with Partial Escape
Analysis plus the relative change.  Suite averages include the DaCapo
benchmarks without significant changes, as in the paper's footnote.

After each suite's table comes Section 6.2: the speedup over no escape
analysis of the flow-insensitive equi-escape EA and of PEA.  The paper
reports that the HotSpot server compiler gains less from its
(flow-insensitive) Escape Analysis than Graal does from PEA: 0.9% vs
2.2% on DaCapo, 7.4% vs 10.4% on ScalaDaCapo, 5.4% vs 8.7% on
SPECjbb2005.

Each suite is one :func:`~.harness.run_suite` pass over the arms of
:data:`PAPER_ARMS`; with ``--json`` every arm of
:data:`~.harness.ARMS` joins that pass, and the A/B sections are
computed from its measurements.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import sys
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..jit import CompilationCache, CompilerConfig
from .harness import (ARMS, Comparison, Measurement, delta_pct,
                      mismatched, run_suite, run_workload)
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

#: The arms every ``table1`` run measures: Table 1's two, baseline
#: first, and Section 6.2's equi-escape comparator.
PAPER_ARMS = ("no_ea", "equi", "pea")

#: The paper's Section 6.2 numbers: suite -> (server EA %, Graal PEA %).
PAPER_62 = {
    "dacapo": (0.9, 2.2),
    "scaladacapo": (7.4, 10.4),
    "specjbb": (5.4, 8.7),
}


def arms(names: Iterable[str] = PAPER_ARMS, backend: str = "plan",
         collect_node_histogram: bool = False
         ) -> Dict[str, CompilerConfig]:
    """The configurations of the named arms of :data:`ARMS`, in order,
    under one backend."""
    return {name: CompilerConfig(**ARMS[name], execution_backend=backend,
                                 collect_node_histogram=
                                 collect_node_histogram)
            for name in names}


def speedup_pct(measured: Mapping[str, Measurement], arm: str) -> float:
    """*arm*'s speedup over the no-EA arm, in percent."""
    return delta_pct(measured["no_ea"].iterations_per_minute,
                     measured[arm].iterations_per_minute)


def _ordered(measured: Mapping[str, Measurement], arms: Sequence[str],
             name: str) -> bool:
    """Whether the *name* metric never decreases along *arms*."""
    values = [getattr(measured[arm], name) for arm in arms]
    return all(a <= b for a, b in zip(values, values[1:]))


#: Section 6.2's arms, most precise analysis first.
_PRECISION = ("pea", "equi", "no_ea")

#: The two speedups each row of Section 6.2 holds.
_SPEEDUPS = ("equi_speedup_pct", "pea_speedup_pct")


def _section62(suite_name: str,
               measured: Mapping[str, Mapping[str, Measurement]]
               ) -> dict:
    """Section 6.2 for one suite from each workload's measurements (by
    workload name): the equi and PEA arms' speedups over no EA and
    whether allocations and monitor operations are ordered
    ``pea <= equi <= no_ea``, the suite's average speedups, and for a
    paper suite the paper's."""
    rows = {name: {
        "equi_speedup_pct": speedup_pct(arms, "equi"),
        "pea_speedup_pct": speedup_pct(arms, "pea"),
        "allocations_ordered":
            _ordered(arms, _PRECISION, "allocations_per_iteration"),
        "monitor_ops_ordered":
            _ordered(arms, _PRECISION, "monitor_ops_per_iteration"),
    } for name, arms in measured.items()}
    section = {"workloads": rows,
               "average": {key: _average([row[key]
                                          for row in rows.values()])
                           for key in _SPEEDUPS}}
    if suite_name in PAPER_62:
        section["paper"] = dict(zip(_SPEEDUPS, PAPER_62[suite_name]))
    return section


def _print_section62(suite_name: str, section: dict, out) -> None:
    labelled = {**section["workloads"], "average": section["average"]}
    if "paper" in section:
        labelled["(paper)"] = section["paper"]
    rows = [[label, *(pct(row[key]) for key in _SPEEDUPS)]
            for label, row in labelled.items()]
    print(f"\n== {suite_name}: speedup over no-EA ==", file=out)
    print(render_table(["benchmark", "equi-escape EA", "PEA"], rows),
          file=out)


def _print_table1(suite_name: str, comparisons: List[Comparison],
                  locks: bool, out) -> None:
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


def generate(suites: Sequence[str], quick: bool = False,
             locks: bool = False, out=sys.stdout, jobs: int = 1,
             backend: str = "plan", json_path: Optional[str] = None,
             profile: bool = False,
             cache: Optional[CompilationCache] = None) -> dict:
    """Measure each selected suite in one :func:`run_suite` pass and
    print its Table 1 and Section 6.2; returns Table 1's comparisons
    keyed by suite for programmatic use.  With *json_path* every arm of
    :data:`ARMS` joins the pass and the A/B sections are computed from
    it, all before the cache summary is printed, so that line covers
    every run the command made."""
    if profile:
        jobs = 1  # cProfile + histogram need everything in-process
    configs = arms(ARMS if json_path else PAPER_ARMS, backend,
                   collect_node_histogram=profile)
    histogram = {} if profile else None
    profiler = cProfile.Profile() if profile else None
    results = {}
    #: workload name -> arm -> Measurement, over every suite.
    measured: Dict[str, Dict[str, Measurement]] = {}
    sections62 = {}
    wall_clock = {}
    for suite_name in suites:
        workloads = SUITES[suite_name]
        if quick:
            workloads = [quick_copy(w) for w in workloads]
        started = time.perf_counter()
        with profiled(profiler):
            suite = dict(zip([w.name for w in workloads],
                             run_suite(workloads, configs, jobs=jobs,
                                       histogram=histogram,
                                       cache=cache)))
        wall_clock[suite_name] = time.perf_counter() - started
        results[suite_name] = [
            Comparison.of(w, {arm: suite[w.name][arm]
                              for arm in PAPER_ARMS})
            for w in workloads]
        measured.update(suite)
        sections62[suite_name] = _section62(suite_name, suite)
        _print_table1(suite_name, results[suite_name], locks, out)
        _print_section62(suite_name, sections62[suite_name], out)
    table1_measured = [m for cs in results.values() for c in cs
                       for m in c.arms.values()]
    all_measured = [m for arms in measured.values() for m in arms.values()]
    if profile:
        print_profile(profiler, histogram, out=out)
        _print_compile_seconds(all_measured, out)
    sections = None
    if json_path:
        workloads = [c.workload for cs in results.values() for c in cs]
        sections = {**_ab_sections(measured, workloads, quick),
                    "section62": sections62}
    print(file=out)
    if cache is not None:
        stats = cache.stats
        elided = sum(m.warmup_iterations_elided for m in all_measured)
        print(f"cache: {stats.hits} hits, {stats.misses} misses, "
              f"{stats.disk_hits} from disk, {stats.evictions} evicted, "
              f"{stats.dropped} dropped, "
              f"{elided} warm-up iterations elided", file=out)
    fallbacks = sum(m.backend_fallbacks for m in table1_measured)
    print(f"backend fallbacks: {fallbacks} installs ran on the "
          f"GraphInterpreter instead of the configured backend",
          file=out)
    failures = sum(m.compile_failures for m in table1_measured)
    print(f"compile failures: {failures} method or OSR entries failed "
          f"to compile and ran interpreted", file=out)
    if json_path:
        _write_json(json_path, results, wall_clock, jobs, backend, quick,
                    cache, sections)
    return results


def _ab_sections(measured: Mapping[str, Mapping[str, Measurement]],
                 workloads: Sequence[Workload], quick: bool) -> dict:
    """Every A/B the ``--json`` payload records: ``analysis_ab`` and
    ``ablation_ab`` at the top level, the rest under ``timing``.  The
    first three read *measured* (workload name -> arm -> Measurement);
    the codegen, OSR and deoptless A/Bs make their own runs."""
    h2 = by_name("h2")
    timing = {
        "codegen_ab": _codegen_ab(workloads),
        # Escape-tier x generational-collector A/B.  The metrics inside
        # are simulated and deterministic; the section lives under
        # ``timing`` because its headline claim — pause cycles saved
        # per tier — is a performance claim.
        "gc_ab": _gc_ab(measured),
        # OSR's gain is real wall-clock, not a simulated metric: one
        # loop-heavy workload warmed with and without OSR.
        "osr_warmup_ab": _osr_warmup_ab(quick_copy(h2) if quick else h2),
        # Deoptless phase-shift A/B: post-flip tail latency and
        # interpreter bridging, deoptless off vs on (simulated,
        # deterministic).
        "deoptless_ab": _deoptless_ab(),
    }
    return {"analysis_ab": _analysis_ab(measured),
            "ablation_ab": _ablation_ab(measured), "timing": timing}


def _analysis_ab(measured: Mapping[str, Mapping[str, Measurement]]
                 ) -> dict:
    """Per-workload A/B of the interprocedural escape-summary analysis:
    the ``summaries`` arm's deltas against the plain-PEA arm.  Results,
    locks and deopts must be bit-identical — the analysis may only
    remove allocations (see :mod:`repro.analysis.summaries`)."""
    section = {}
    for name, arms in measured.items():
        pea, summ = arms["pea"], arms["summaries"]
        differ = mismatched({"pea": pea, "summaries": summ},
                            ("checksum", "monitor_ops_per_iteration",
                             "deopts"))
        section[name] = {
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


#: The PEA ablations: the arms of :data:`ARMS` that run the ``pea`` tier
#: with one ingredient switched off.  Their ``full`` arm is ``pea``.
_ABLATIONS = tuple(arm for arm, overrides in ARMS.items()
                   if overrides["escape_tier"] == "pea" and arm != "pea")

#: The Measurement fields each ablation arm records.
_ABLATION_FIELDS = ("checksum", "allocations_per_iteration",
                    "kb_per_iteration", "cycles_per_iteration")


def _ablation_ab(measured: Mapping[str, Mapping[str, Measurement]]
                 ) -> dict:
    """Per-workload A/B of the PEA ablations: each arm of
    :data:`_ABLATIONS` beside the full pipeline (the ``pea`` arm).
    Checksums must be identical — an ablation changes what the compiler
    removes, never what the program computes — and no arm may allocate
    less than ``full``."""
    section = {}
    for name, measurements in measured.items():
        arms = {"full": measurements["pea"],
                **{arm: measurements[arm] for arm in _ABLATIONS}}
        full = arms["full"].allocations_per_iteration
        section[name] = {
            **{arm: {field: getattr(m, field)
                     for field in _ABLATION_FIELDS}
               for arm, m in arms.items()},
            "checksums_identical": not mismatched(arms, ("checksum",)),
            "never_below_full": all(m.allocations_per_iteration >= full
                                    for m in arms.values()),
        }
    return section


#: The GC A/B's rows, by the arm of :data:`ARMS` each reads.
_GC_AB_ROWS = {"none": "no_ea", "conngraph": "conngraph",
               "pea": "pea+summaries+cgstack"}

#: The Measurement fields each GC A/B arm records.
_GC_AB_FIELDS = ("checksum", "allocations_per_iteration",
                 "kb_per_iteration", "gc_minor_collections",
                 "gc_pause_cycles", "gc_promoted_kb",
                 "cycles_per_iteration")


def _gc_ab(measured: Mapping[str, Mapping[str, Measurement]]) -> dict:
    """Three-way escape-tier A/B through the simulated generational
    collector: every workload under no escape analysis, the
    connection-graph fast tier, and full PEA, and the section records
    how allocation behavior translates into collector behavior (minor
    collections, pause cycles, promotion).  Checksums must be
    identical — tiers change *where* objects live, never what the
    program computes — and per-iteration allocations must be totally
    ordered ``pea <= conngraph <= none`` (PEA subsumes the connection
    graph's decisions; see :mod:`repro.analysis.conngraph`)."""
    section = {}
    for name, measurements in measured.items():
        arms = {row: measurements[arm] for row, arm in _GC_AB_ROWS.items()}
        rows = {row: {"tier": ARMS[_GC_AB_ROWS[row]]["escape_tier"],
                      **{field: getattr(m, field)
                         for field in _GC_AB_FIELDS}}
                for row, m in arms.items()}
        none_, cg, pea = rows["none"], rows["conngraph"], rows["pea"]
        section[name] = {
            **rows,
            "checksums_identical": not mismatched(arms, ("checksum",)),
            "allocations_ordered": _ordered(
                arms, ("pea", "conngraph", "none"),
                "allocations_per_iteration"),
            "pause_cycles_saved_conngraph": round(
                none_["gc_pause_cycles"] - cg["gc_pause_cycles"], 6),
            "pause_cycles_saved_pea": round(
                none_["gc_pause_cycles"] - pea["gc_pause_cycles"], 6),
        }
    return section


def _codegen_ab(workloads: Sequence[Workload]) -> dict:
    """Wall-clock A/B of the codegen backend against the threaded-code
    plan backend over every workload the run covered: ``repro jitdiff``
    run uncached (so neither side hides behind warm-up elision), keeping
    its per-workload timings and its verdict that the deterministic
    metrics are bit-identical."""
    report = run_jitdiff(workloads, out=io.StringIO())
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
                cache: Optional[CompilationCache],
                sections: dict) -> None:
    """Benchmark metrics for CI tracking (BENCH_table1.json): Table 1's
    measurements, Section 6.2, the A/B *sections* of
    :func:`_ab_sections` and the cache counters, serialized.

    ``suites`` holds only deterministic, simulated metrics — identical
    across machines, cache modes and cold/warm runs, so CI can diff it
    byte-for-byte.  Wall-clock and compile-time measurements live in the
    separate ``timing`` section: each suite's harness wall-clock covers
    every arm of its pass, and its counters sum Table 1's two arms."""
    payload = {
        "backend": backend,
        "jobs": jobs,
        "quick": quick,
        "analysis_ab": sections["analysis_ab"],
        "ablation_ab": sections["ablation_ab"],
        "section62": sections["section62"],
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
                        help="also run every A/B arm and write the "
                             "metrics as JSON")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile top-20 + per-node-kind execution "
                             "histogram (forces --jobs 1)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persist the compilation cache here so "
                             "later runs start warm")
    args = parser.parse_args(argv)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    cache = CompilationCache(args.cache_dir) if args.cache_dir else None
    generate(suites, quick=args.quick, locks=args.locks, jobs=args.jobs,
             backend=args.backend, json_path=args.json,
             profile=args.profile, cache=cache)


if __name__ == "__main__":
    main()
