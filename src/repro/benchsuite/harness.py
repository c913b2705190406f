"""The benchmark harness.

Mirrors the paper's process (Section 6.1): each benchmark is warmed up
until its hot methods are compiled, then a number of measured iterations
are averaged.  "Run time" is simulated cycles from the cost model;
"iterations per minute" is derived from a fixed simulated clock so the
numbers read like the paper's.

With a :class:`~repro.jit.cache.CompilationCache` the harness gets two
further amortizations, neither of which can change a reported metric:

- compiled graphs are shared across VMs and (with a cache directory)
  across harness runs, keyed by content + configuration + the profile
  facts the pipeline consumed;
- **warm-up elision**: a cold run records, per (workload, program,
  full configuration), a snapshot of the profiling state one iteration
  before the end of warm-up, plus the VM state the final warm-up
  iteration reached (its method and OSR entries, each installed one
  by cache key and speculation facts, and those that failed to
  compile; deoptimization and invalidation counts; checksum) — stored
  only if the VM then stayed quiescent through the whole *measured*
  window.  A warm run installs
  the snapshot into a fresh VM, replays just the final warm-up
  iteration (every hot method's invocation count is already past the
  compile threshold, so compilation — served from the cache — happens
  immediately), and verifies the recorded state was reached.  Workload
  iterations are deterministic in (profile, statics, compiled code):
  statics reset every iteration and the replayed iteration starts from
  the recorded profile, so the VM enters the measured window in
  *exactly* the cold run's state and the measurement is an exact
  replay.  If verification fails (stale record, changed thresholds),
  the VM is discarded and the full warm-up runs.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .. import api
from ..api import VM, CompilerConfig, compile_source
from ..jit.cache import CompilationCache, full_config_fingerprint
from ..jit.deoptless import is_continuation_entry
from .workloads import Workload

#: The simulated machine's clock: cycles per minute (a 2 MHz toy CPU —
#: absolute values are meaningless; only ratios matter).
SIMULATED_CYCLES_PER_MINUTE = 120_000_000.0


@dataclass
class Measurement:
    """Averaged per-iteration metrics for one workload under one
    configuration."""

    workload: str
    config: str
    checksum: int
    kb_per_iteration: float
    allocations_per_iteration: float
    monitor_ops_per_iteration: float
    cycles_per_iteration: float
    compiled_nodes: int
    deopts: int
    #: Wall-clock / cache observability, excluded from equality: two
    #: runs with identical *metrics* compare equal regardless of how
    #: long compilation took or how much the cache absorbed.
    #: compile_seconds covers everything inside Compiler.compile,
    #: including cache lookups/stores.
    compile_seconds: float = field(default=0.0, compare=False)
    #: compile_seconds split into named spans (phases, verify, key,
    #: cache lookup and store, graph building, summaries, lowering).
    compile_phase_seconds: Dict[str, float] = field(
        default_factory=dict, compare=False)
    compile_count: int = field(default=0, compare=False)
    cache_hits: int = field(default=0, compare=False)
    warmup_iterations_run: int = field(default=0, compare=False)
    warmup_iterations_elided: int = field(default=0, compare=False)
    #: On-stack replacement observability.  Excluded from equality:
    #: OSR moves warm-up work between tiers (and warm-up elision skips
    #: it wholesale) without touching the measured-window metrics.
    osr_compilations: int = field(default=0, compare=False)
    osr_entries: int = field(default=0, compare=False)
    #: Installs that could not bind the configured backend's lowering
    #: and ran on the GraphInterpreter (``VM.backend_fallbacks``).
    #: Excluded from equality: a fallback changes speed, not metrics.
    backend_fallbacks: int = field(default=0, compare=False)
    #: Method and OSR entries whose compile failed (the VM's failure
    #: table), which run interpreted.  Excluded from equality like the
    #: other observability fields.
    compile_failures: int = field(default=0, compare=False)
    #: Partial Escape Analysis observability, summed over the compiled
    #: set (cached compilations carry their PEAResult, so warm runs
    #: report the same counts).  Excluded from equality alongside the
    #: other observability fields.
    virtualized_allocations: int = field(default=0, compare=False)
    materializations: int = field(default=0, compare=False)
    #: Tail latency over the measured window: per-iteration simulated
    #: cycles at the 95th/99th percentile (nearest-rank).  The mean
    #: (``cycles_per_iteration``) hides the deopt latency cliff — one
    #: interpreted bridge among fast iterations barely moves it but
    #: owns the tail — so phase-shifting workloads gate on these.
    #: Excluded from equality like the other observability fields.
    latency_p95_cycles: float = field(default=0.0, compare=False)
    latency_p99_cycles: float = field(default=0.0, compare=False)
    #: Simulated-collector behavior over the measured window
    #: (per-iteration averages; see :mod:`repro.runtime.gcsim`).  The
    #: pause cycles are *also* folded into ``cycles_per_iteration`` —
    #: these fields break them out so a configuration that trades
    #: allocation for collection work is visible.  compare=False: the
    #: collector is driven entirely by the allocation stream, so these
    #: are observability over facts the compared metrics already pin.
    gc_minor_collections: float = field(default=0.0, compare=False)
    gc_pause_cycles: float = field(default=0.0, compare=False)
    gc_promoted_kb: float = field(default=0.0, compare=False)
    #: Per compiled method (and OSR variant, labelled ``name@osrBCI``):
    #: the lowering the VM executes and its size — codegen source
    #: bytes, plan handler slots, or IR nodes on the GraphInterpreter.
    #: Excluded from equality: the lowering is the backend's choice.
    code_sizes: Dict[str, dict] = field(default_factory=dict,
                                        compare=False)

    @property
    def iterations_per_minute(self) -> float:
        if self.cycles_per_iteration <= 0:
            return float("inf")
        return SIMULATED_CYCLES_PER_MINUTE / self.cycles_per_iteration


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(0, min(len(ordered), rank) - 1)]


#: Keys a record by its signature's layout: other layouts are never read.
_RECORD_LAYOUT = "cache key and facts"


def _harness_key(workload: Workload, program, config: CompilerConfig
                 ) -> str:
    """Key for one workload's warm-up record: everything that shapes
    the replayed iteration sequence."""
    description = (_RECORD_LAYOUT, workload.name, workload.entry,
                   workload.iteration_size, workload.warmup_iterations,
                   workload.measure_iterations,
                   program.content_fingerprint(),
                   full_config_fingerprint(config))
    return hashlib.sha256(repr(description).encode()).hexdigest()


def _vm_code(vm: VM) -> List[Tuple[str, object, object]]:
    """One pass over the VM's variant and failure tables: its method
    (entry ``None``) and OSR entries as sorted ``(qualified name, entry,
    result)`` rows, *result* ``None`` for a failed compile.
    Continuations are left out: no harness configuration enables
    deoptless."""
    rows = []
    for table, installed in ((vm._variants, True), (vm._failed, False)):
        for method, entries in table.items():
            for entry, value in entries.items():
                if not is_continuation_entry(entry):
                    rows.append((method.qualified_name, entry,
                                 value.result if installed else None))
    rows.sort(key=lambda row: (row[0], -1 if row[1] is None else row[1],
                               row[2] is None))
    return rows


def _vm_signature(vm: VM, checksum: int) -> Optional[list]:
    """The VM state a warm-up record certifies (pickle friendly).

    Installed code is identified by its cache entry's key and
    speculation facts, not just by name: a VM can legitimately hold
    code its *current* profile would no longer produce (a speculation
    that deoptimized fewer times than the invalidation threshold stays
    installed).  A key whose facts hold is the same compilation (the
    cache's premise, backed by ``tests/jit/test_reproducible.py``), so
    no payload bytes are read.  ``None`` (uncertifiable) when any
    installed entry has no cache entry."""
    code = []
    for qualified, entry, result in _vm_code(vm):
        if result is None:
            code.append([qualified, entry])
        elif result.cache_entry is None:
            return None
        else:
            code.append([qualified, entry, result.cache_entry.key,
                         result.cache_entry.facts])
    return [code, vm.exec_stats.deopts, vm.invalidations, checksum]


def _progress_cycles(vm: VM) -> float:
    """What :meth:`VM.cycles_snapshot` would return, computed
    *read-only*: per-iteration latency sampling must not force
    interpreter-cycle syncs mid-window, because splitting the float
    accumulation into differently-ordered additions can move the last
    bit of ``cycles_per_iteration`` — which is byte-diffed in CI."""
    pending = vm.interpreter.stats.steps - vm._interpreter_steps_counted
    pending_gc = vm.heap.gc.stats.pause_cycles - vm._gc_pause_cycles_counted
    return vm.exec_stats.cycles + pending_gc + \
        pending * vm.config.cost_model.interpreter_step


def _vm_tick(vm: VM) -> tuple:
    """Cheap per-iteration progress probe for steady-state detection:
    how many method and OSR entries are installed and how many failed,
    and the deopt and invalidation counts."""
    kinds = Counter((entry is None, result is None)
                    for __, entry, result in _vm_code(vm))
    return kinds, vm.exec_stats.deopts, vm.invalidations


def _describe(result) -> dict:
    """Which lowering the VM executes for *result* and how big it is
    (:attr:`Measurement.code_sizes`)."""
    if result.codegen is not None:
        return {"backend": "codegen", "size": result.codegen.code_size}
    if result.plan is not None:
        return {"backend": "plan", "size": len(result.plan.nodes)}
    return {"backend": "interpreter", "size": result.node_count}


def _profile_snapshot(vm: VM) -> dict:
    """The VM's profiling state (qualified-name keyed, see
    :meth:`~repro.bytecode.interpreter.Profile.snapshot`) plus the
    deopt bookkeeping the harness replays alongside it."""
    snapshot = vm.profile.snapshot()
    snapshot["deopt_counts"] = {m.qualified_name: n
                                for m, n in vm.deopt_counts.items()}
    snapshot["deopts"] = vm.exec_stats.deopts
    snapshot["invalidations"] = vm.invalidations
    return snapshot


def _restore_profile(vm: VM, snapshot: dict) -> None:
    """Install a recorded profiling state into a fresh VM."""
    method = vm.program.method
    vm.profile.restore(vm.program, snapshot)
    vm.deopt_counts = {method(q): n for q, n in
                       snapshot["deopt_counts"].items()}
    vm.exec_stats.deopts = snapshot["deopts"]
    vm.invalidations = snapshot["invalidations"]


def run_workload(workload: Workload, config: CompilerConfig,
                 histogram: Optional[Dict[str, int]] = None,
                 program=None,
                 cache: Optional[CompilationCache] = None
                 ) -> Measurement:
    """Warm up, then measure ``workload.measure_iterations`` iterations.

    When *histogram* is given (and the config sets
    ``collect_node_histogram``), the VM's per-node-kind execution counts
    are accumulated into it.  *program* lets callers hoist the language
    frontend out of per-config runs; when omitted the workload source is
    compiled here.  *cache* enables compiled-graph reuse and warm-up
    elision (see module docstring)."""
    if program is None:
        program = compile_source(workload.source,
                                 natives=workload.natives or None)

    record_key = record = None
    if cache is not None:
        record_key = _harness_key(workload, program, config)
        record = cache.load_harness_record(record_key)

    total_warmup = workload.warmup_iterations
    vm = None
    checksum = 0
    warmup_run = 0
    elided = 0

    if record is not None and total_warmup >= 1:
        # Warm path: restore the recorded profile, replay only the final
        # warm-up iteration, and check the VM reached the recorded state.
        vm = api.compile(program, config=config, cache=cache).vm
        try:
            _restore_profile(vm, record["profile"])
        except Exception:
            vm = record = None  # stale record (e.g. renamed methods)
        if vm is not None:
            checksum = vm.call(workload.entry, workload.iteration_size)
            program.reset_statics()
            warmup_run = 1
            try:
                # Methods the cold run compiled while the entry was
                # still interpreted can be unreachable once their
                # callers compile them inline, and the replayed
                # iteration may run a loop compiled from the start,
                # never hitting the backedge that triggered its OSR
                # compilation (or failure) in the cold run.  Replay
                # every recorded entry the VM does not hold yet (cache
                # hits), so the compiled set — and the compiled_nodes
                # metric — matches the cold run exactly.
                for qualified, entry, *__ in record["signature"][0]:
                    vm.compile_now(qualified, entry)
            except Exception:
                vm = None
            if vm is not None and \
                    _vm_signature(vm, checksum) == record["signature"]:
                elided = total_warmup - 1
            else:
                vm = record = None  # diverged: fall back to full warm-up

    if vm is None:
        # Cold path: full warm-up, snapshotting the profile one
        # iteration before the end so a warm run can rebuild the
        # measurement-entry state by replaying that last iteration.
        vm = api.compile(program, config=config, cache=cache).vm
        warmup_run = 0
        last_tick = _vm_tick(vm)
        steady_iteration = 0
        snapshot = None
        for iteration in range(1, total_warmup + 1):
            if cache is not None and iteration == total_warmup:
                snapshot = _profile_snapshot(vm)
            checksum = vm.call(workload.entry, workload.iteration_size)
            program.reset_statics()
            warmup_run += 1
            tick = _vm_tick(vm)
            if tick != last_tick:
                last_tick = tick
                steady_iteration = iteration
        record = None
        if cache is not None and snapshot is not None and \
                steady_iteration < total_warmup:
            signature = _vm_signature(vm, checksum)
            if signature is not None:
                record = {"profile": snapshot, "signature": signature}

    warmup_tick = _vm_tick(vm)
    # Collector barrier (the simulated System.gc()): drain the nursery
    # so the measured window starts from an empty young generation.
    # Without this, warm-up elision would change *measured* GC timing —
    # a cold run enters measurement with whatever nursery fill N
    # warm-up iterations left behind, a warm run with one iteration's
    # worth — and the first measured collection would land on a
    # different allocation.  Stats stay cumulative/monotone, so the
    # VM's pause-cycle sync bookkeeping remains valid.
    vm.heap.gc.collect_remaining()
    # Fold pending interpreter cycles, then measure from a zeroed
    # counter: float summation from 0.0 is exact across replays, where
    # a snapshot delta would suffer accumulation-order rounding.
    vm.cycles_snapshot()
    vm.exec_stats.cycles = 0.0
    heap_before = vm.heap_snapshot()
    gc_before = vm.gc_snapshot()
    latencies = []
    cycles_before = _progress_cycles(vm)
    for _ in range(workload.measure_iterations):
        checksum = vm.call(workload.entry, workload.iteration_size)
        program.reset_statics()
        cycles_now = _progress_cycles(vm)
        latencies.append(cycles_now - cycles_before)
        cycles_before = cycles_now
    heap_delta = vm.heap_snapshot().delta(heap_before)
    gc_delta = vm.gc_snapshot().delta(gc_before)
    cycles = vm.cycles_snapshot()

    if cache is not None and elided == 0 and record is not None and \
            _vm_tick(vm) == warmup_tick:
        # Cold run went quiescent before the final warm-up iteration and
        # stayed quiescent through the measured window: certify the
        # snapshot for future runs.
        cache.store_harness_record(record_key, record)

    if histogram is not None:
        for kind, count in \
                vm.exec_stats.node_kind_executions.items():
            histogram[kind] = histogram.get(kind, 0) + count

    iterations = workload.measure_iterations
    code = _vm_code(vm)
    installed = [(qualified, entry, result)
                 for qualified, entry, result in code
                 if result is not None]
    methods = [result for __, entry, result in installed if entry is None]
    ea_results = [r.ea_result for r in methods if r.ea_result is not None]
    return Measurement(
        workload=workload.name,
        config=config.label(),
        checksum=checksum,
        kb_per_iteration=heap_delta.allocated_bytes / iterations / 1024.0,
        allocations_per_iteration=heap_delta.allocations / iterations,
        monitor_ops_per_iteration=(heap_delta.monitor_operations
                                   / iterations),
        cycles_per_iteration=cycles / iterations,
        compiled_nodes=sum(r.node_count for r in methods),
        deopts=vm.exec_stats.deopts,
        compile_seconds=vm.compiler.compile_seconds_total,
        compile_phase_seconds=dict(vm.compiler.phase_seconds),
        compile_count=vm.compiler.compile_count,
        cache_hits=vm.compiler.cache_hit_count,
        warmup_iterations_run=warmup_run,
        warmup_iterations_elided=elided,
        osr_compilations=len(installed) - len(methods),
        osr_entries=vm.osr_entries,
        backend_fallbacks=vm.backend_fallbacks,
        compile_failures=len(code) - len(installed),
        virtualized_allocations=sum(r.virtualized_allocations
                                    for r in ea_results),
        materializations=sum(r.materializations for r in ea_results),
        latency_p95_cycles=percentile(latencies, 95.0),
        latency_p99_cycles=percentile(latencies, 99.0),
        gc_minor_collections=gc_delta.minor_collections / iterations,
        gc_pause_cycles=gc_delta.pause_cycles / iterations,
        gc_promoted_kb=gc_delta.promoted_bytes / iterations / 1024.0,
        code_sizes={qualified if entry is None
                    else f"{qualified}@osr{entry}": _describe(result)
                    for qualified, entry, result in installed},
    )


#: The evaluation's configurations: each arm's :class:`CompilerConfig`
#: overrides, by arm name.  Every command adds its backend and
#: profiling on top.
ARMS: Dict[str, Dict[str, object]] = {
    # Table 1 (baseline first) and, with the equi arm, Section 6.2.
    "no_ea": {"escape_tier": "none"},
    "equi": {"escape_tier": "equi"},
    "pea": {"escape_tier": "pea"},
    # The escape-summary A/B.
    "summaries": {"escape_tier": "pea+summaries"},
    # The GC A/B.  Its PEA arm runs full connection-graph stack
    # allocation after PEA, so allocations PEA leaves behind but the
    # cheaper analysis can prove non-escaping still leave the heap —
    # that is what keeps the arms totally ordered.
    "conngraph": {"escape_tier": "conngraph"},
    "pea+summaries+cgstack": {"escape_tier": "pea+summaries+cgstack"},
    # The PEA ablations: the pea tier with one ingredient switched off.
    "single_pass": {"escape_tier": "pea", "pea_iterations": 1},
    # No virtual arrays (Section 5.2).
    "no_arrays": {"escape_tier": "pea", "pea_virtualize_arrays": False},
    # No folding of reference equality, null and type checks on virtual
    # objects.
    "no_check_folds": {"escape_tier": "pea", "pea_fold_checks": False},
    # No load/store forwarding after escape analysis.
    "no_read_elim": {"escape_tier": "pea", "read_elimination": False},
    # PEA "is particularly effective if it can interact with other
    # parts of the compiler, such as inlining".
    "no_inlining": {"escape_tier": "pea", "inline": False},
    # No profile-driven pruning of never-taken branches: rare escaping
    # branches rejoin and force materialization.
    "no_branch_speculation": {"escape_tier": "pea",
                              "speculate_branches": False},
}


def run_arms(workload: Workload, arms: Mapping[str, CompilerConfig],
             histogram: Optional[Dict[str, int]] = None,
             cache: Optional[CompilationCache] = None
             ) -> Dict[str, Measurement]:
    """Measure *workload* under each arm (name -> configuration), in
    order, with :func:`run_workload`.

    The source -> bytecode build is hoisted out of the per-arm runs:
    every VM shares one Program (the interpreter's statics are reset
    after every iteration, and profiles live in the VM, so the runs
    cannot observe each other)."""
    program = compile_source(workload.source,
                             natives=workload.natives or None)
    return {name: run_workload(workload, config, histogram,
                               program=program, cache=cache)
            for name, config in arms.items()}


def _compare_worker(item) -> Tuple[Dict[str, Measurement],
                                   Optional[dict]]:
    """Module-level worker so ProcessPoolExecutor can pickle it: the
    measurements, and the counters of the worker's cache."""
    workload, arms, cached, cache_dir = item
    cache = CompilationCache(cache_dir) if cached else None
    measured = run_arms(workload, arms, cache=cache)
    return measured, cache.stats.snapshot() if cached else None


def run_suite(workloads: Sequence[Workload],
              arms: Mapping[str, CompilerConfig],
              jobs: int = 1,
              histogram: Optional[Dict[str, int]] = None,
              cache: Optional[CompilationCache] = None
              ) -> List[Dict[str, Measurement]]:
    """:func:`run_arms` for every workload; with ``jobs > 1``, fan the
    (independent) workloads out over worker processes.  Results are
    reassembled in submission order, so the output is bit-identical to
    a serial run.  ``histogram`` is only honored serially (profiling
    forces ``jobs=1``).  With ``jobs > 1`` the in-process cache level
    cannot cross process boundaries: each workload runs over its own
    cache on *cache*'s directory (in memory when it has none), and
    those caches' counters are added into ``cache.stats``."""
    if jobs <= 1:
        return [run_arms(w, arms, histogram, cache) for w in workloads]
    from concurrent.futures import ProcessPoolExecutor
    cache_dir = cache.cache_dir if cache is not None else None
    items = [(w, dict(arms), cache is not None, cache_dir)
             for w in workloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_compare_worker, items))
    if cache is not None:
        for __, stats in results:
            cache.stats.add(stats)
    return [measured for measured, __ in results]


def mismatched(measurements: Mapping[str, Measurement],
               fields: Sequence[str]) -> List[str]:
    """The *fields* on which the arms' measurements differ."""
    first, *rest = measurements.values()
    return [name for name in fields
            if any(getattr(m, name) != getattr(first, name)
                   for m in rest)]


def delta_pct(before: float, after: float) -> float:
    """Relative change from *before* to *after*, in percent (0 when
    *before* is 0)."""
    if before == 0:
        return 0.0
    return (after - before) / before * 100.0


def verify_checksums(workload: Workload,
                     measurements: Mapping[str, Measurement]) -> None:
    """Raise unless every arm computed the same result."""
    if mismatched(measurements, ("checksum",)):
        raise AssertionError(
            f"{workload.name}: checksum mismatch "
            + " vs ".join(str(m.checksum)
                          for m in measurements.values()))


@dataclass
class Comparison:
    """without-PEA vs with-PEA for one workload (one Table 1 line)."""

    workload: Workload
    without: Measurement
    with_pea: Measurement

    @classmethod
    def of(cls, workload: Workload,
           arms: Mapping[str, Measurement]) -> "Comparison":
        """The row of a :func:`run_arms` result over arms that include
        ``no_ea`` and ``pea``; raises on a checksum mismatch among
        them."""
        verify_checksums(workload, arms)
        return cls(workload, arms["no_ea"], arms["pea"])

    @property
    def arms(self) -> Dict[str, Measurement]:
        return {"no_ea": self.without, "pea": self.with_pea}

    @property
    def kb_delta_pct(self) -> float:
        return delta_pct(self.without.kb_per_iteration,
                         self.with_pea.kb_per_iteration)

    @property
    def allocs_delta_pct(self) -> float:
        return delta_pct(self.without.allocations_per_iteration,
                         self.with_pea.allocations_per_iteration)

    @property
    def monitor_delta_pct(self) -> float:
        return delta_pct(self.without.monitor_ops_per_iteration,
                         self.with_pea.monitor_ops_per_iteration)

    @property
    def speedup_pct(self) -> float:
        return delta_pct(self.without.iterations_per_minute,
                         self.with_pea.iterations_per_minute)


def compare_workload(workload: Workload,
                     baseline: Optional[CompilerConfig] = None,
                     optimized: Optional[CompilerConfig] = None,
                     histogram: Optional[Dict[str, int]] = None,
                     cache: Optional[CompilationCache] = None
                     ) -> Comparison:
    """Run one workload under the paper's two configurations, Table 1's
    arms of :data:`ARMS` unless given."""
    arms = {"no_ea": baseline or CompilerConfig(**ARMS["no_ea"]),
            "pea": optimized or CompilerConfig(**ARMS["pea"])}
    return Comparison.of(workload,
                         run_arms(workload, arms, histogram, cache))
