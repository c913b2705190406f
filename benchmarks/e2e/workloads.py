"""The four workloads and the run that measures one of them.

A run has three parts:

1. **Set-up** (``setup_s``): importing the simulator in a fresh
   interpreter and building the inputs (each done several times; the
   medians count), and the workload's own preparation.  Every corpus
   program's expected checksum comes from the plain bytecode
   interpreter here; fuzz replays the fuzzer's committed reproducers.
2. **Timed window**: an optional prologue (steady's warm-up), then
   *passes* — the workload's unit of work, identical every time — for
   ``--seconds`` after the prologue: a pass starts only if it is
   expected to end inside that time, and at least one pass runs.  A full
   collection of Python's cycle collector precedes every input, outside
   the timed work.
3. **Checks**, outside the window: every program's checksum against the
   interpreter's, every pass's deterministic outputs against the first
   pass's, and the fuzzer's own oracle.

``--seed 0`` runs the inputs in registry order; any other seed shuffles
the order of the corpus programs within each pass.  The seed never
changes how much work a pass does: regression checks compare medians
across seeds, and the prototype showed that inputs of seed-dependent size
(iteration sizes drawn per seed, or a fuzz campaign per seed) move
wall-clock by more than any useful regression bound.  For the same
reason the fuzz campaign is pinned to seed 1234, the seed ``repro
fuzz`` and CI use.
"""

from __future__ import annotations

import copy
import gc
import glob
import hashlib
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from repro import api
from repro.benchsuite.harness import compare_workload
from repro.benchsuite.workloads import Workload, by_name
from repro.bytecode import Interpreter
from repro.jit import CompilationCache, CompilerConfig
from repro.lang import compile_source
from repro.lang import compiler as lang_compiler
from repro.verify.fuzz import fuzz, replay_corpus_entry

from .clock import REFERENCE_LOOP_S, CalibratedClock
from .trace import Instrument

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: The warm-up cap of ``repro table1 --quick``.
QUICK_WARMUP = 25
#: Fresh-interpreter imports and cold builds of the inputs during
#: set-up; ``setup_s`` takes the median of each.
SETUP_REPEATS = 5

#: Corpus programs whose quick Table-1 pair (both arms, cold) takes
#: under a second on the reference box: 17 of the 29, covering DaCapo,
#: ScalaDaCapo and SPECjbb, monitors (tomcat, actors, specjbb2005),
#: deopts (scalap) and OSR.  The other twelve would make one cold pass
#: take 38 s, more than a run can spend; the four heaviest are
#: ``steady``'s.
COLD_PROGRAMS = (
    "h2", "tomcat", "xalan", "avrora", "batik", "eclipse", "luindex",
    "lusearch", "pmd", "tradesoap", "actors", "scalac", "scalap",
    "scalatest", "specs", "tmt", "specjbb2005",
)
#: The corpus programs that spend the most time in compiled code.
STEADY_PROGRAMS = ("fop", "apparat", "jython", "sunflow")
#: Measured calls per program in one steady pass.
STEADY_CALLS_PER_PASS = 5
FUZZ_PROGRAMS = 100
FUZZ_SEED = 1234
#: The fuzzer's committed reproducers, replayed during fuzz's set-up.
FUZZ_CORPUS = os.path.join(ROOT, "tests", "corpus")

#: Measurement fields of one Table-1 row, recorded for both arms.
ROW_FIELDS = ("cycles_per_iteration", "kb_per_iteration",
              "allocations_per_iteration", "monitor_ops_per_iteration",
              "gc_pause_cycles", "gc_minor_collections", "deopts",
              "compiled_nodes")

#: sim metric -> Measurement field, summed over a workload's programs
#: (PEA arm).
SIM_METRICS = {
    "sim_cycles_per_iter": ("cycles_per_iteration", "cycles"),
    "sim_kb_per_iter": ("kb_per_iteration", "KB"),
    "sim_allocs_per_iter": ("allocations_per_iteration", "count"),
    "sim_monitor_ops_per_iter": ("monitor_ops_per_iteration", "count"),
    "sim_gc_pause_cycles_per_iter": ("gc_pause_cycles", "cycles"),
}

#: Every end-to-end metric, in print order, with its unit.  A workload
#: that does not define one (sim_* on fuzz, coverage_keys elsewhere)
#: reports it as ``None``.
METRIC_UNITS = {
    "setup_s": "s", "pass_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "compile_s": "s", "peak_rss_mb": "MB", "error_rate": "fraction",
    **{name: unit for name, (__, unit) in SIM_METRICS.items()},
    "coverage_keys": "count",
}

#: The ``repro`` packages, i.e. the layers of the trace.
LAYERS = ("lang", "bytecode", "frontend", "opt", "pea", "analysis",
          "scheduler", "ir", "verify", "runtime", "jit", "benchsuite")


# -- inputs -------------------------------------------------------------------


def corpus_inputs(names, seed: int,
                  measure_iterations: Optional[int] = None
                  ) -> List[Workload]:
    """Private copies of registry workloads under the quick protocol."""
    inputs = []
    for name in names:
        workload = copy.copy(by_name(name))
        workload.warmup_iterations = min(workload.warmup_iterations,
                                         QUICK_WARMUP)
        if measure_iterations is not None:
            workload.measure_iterations = measure_iterations
        inputs.append(workload)
    if seed:
        random.Random(seed).shuffle(inputs)
    return inputs


def input_digest(workload: Workload) -> dict:
    text = f"{workload.source}\0{workload.entry}\0{workload.iteration_size}"
    return {"name": workload.name, "entry": workload.entry,
            "iteration_size": workload.iteration_size,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def build_programs(inputs: List[Workload]) -> Dict[str, object]:
    """The language frontend over every input; also fills the source
    memo that the harness's own ``compile_source`` calls then hit."""
    return {w.name: compile_source(w.source, natives=w.natives or None)
            for w in inputs}


def reference_checksum(workload: Workload) -> int:
    """One iteration on the plain bytecode interpreter: no VM, no JIT."""
    program = compile_source(workload.source,
                             natives=workload.natives or None)
    return Interpreter(program).call(workload.entry,
                                     workload.iteration_size)


def table1_row(comparison) -> dict:
    row = {"checksum": comparison.without.checksum}
    for arm, measurement in (("no_ea", comparison.without),
                             ("pea", comparison.with_pea)):
        for name in ROW_FIELDS:
            row[f"{name}_{arm}"] = getattr(measurement, name)
    return row


def compare_pass(inputs: List[Workload], cache: CompilationCache,
                 instrument: Optional[Instrument] = None) -> dict:
    """The table1 protocol over *inputs*: both arms, one fresh VM each,
    sharing *cache*; a full collection before each input."""
    rows, failures = {}, []
    elided = warmup = 0
    for workload in inputs:
        if instrument is not None:
            instrument.group = workload.name
            instrument.collect()
        else:
            gc.collect()
        try:
            comparison = compare_workload(workload, cache=cache)
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            failures.append(f"{workload.name}: {type(error).__name__}: "
                            f"{error}")
            continue
        rows[workload.name] = table1_row(comparison)
        for measurement in (comparison.without, comparison.with_pea):
            elided += measurement.warmup_iterations_elided
            warmup += (measurement.warmup_iterations_elided
                       + measurement.warmup_iterations_run)
    return {"rows": rows, "failures": failures, "ops": len(inputs),
            "warmup_elided": elided, "warmup_total": warmup}


def check_rows(passes: List[dict], references: Dict[str, int],
               expected_rows: Optional[dict] = None) -> List[str]:
    """Checksums against the interpreter, and every pass's rows against
    the first pass's (or *expected_rows*)."""
    expected_rows = expected_rows or passes[0]["rows"]
    failures = []
    for index, done in enumerate(passes):
        failures.extend(f"pass {index}: {failure}"
                        for failure in done["failures"])
        for name, row in done["rows"].items():
            if row["checksum"] != references[name]:
                failures.append(
                    f"pass {index}: {name} checksum {row['checksum']}, "
                    f"interpreter {references[name]}")
            elif row != expected_rows.get(name):
                failures.append(f"pass {index}: {name} row differs from "
                                "the reference pass")
    return failures


def sum_sim(rows: Dict[str, dict]) -> Dict[str, float]:
    """Summed in program-name order: the seed's run order must not move
    the last bits of a float sum."""
    return {metric: sum(rows[name][f"{field}_pea"] for name in sorted(rows))
            for metric, (field, __) in SIM_METRICS.items()}


# -- workloads ---------------------------------------------------------------


class BenchmarkWorkload:
    """One workload: set-up steps, the pass the window repeats, and the
    checks.  Why each workload exists is in ``BENCHMARK.json``."""

    name = ""
    inputs: List[Workload] = []

    def build(self) -> None:
        """Set-up repeated :data:`SETUP_REPEATS` times."""

    def prepare(self) -> None:
        """Set-up done once."""

    def compute_references(self) -> None:
        """The corpus programs' expected checksums, from one call each
        of the plain interpreter."""
        self.references = {w.name: reference_checksum(w)
                           for w in self.inputs}

    def prologue(self, instrument: Instrument) -> None:
        """Timed work before the first pass."""

    def run_pass(self, instrument: Instrument) -> dict:
        raise NotImplementedError

    def check(self, passes: List[dict]) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up created."""

    def operations(self, instrument: Instrument, first_call: int):
        """(input, start, end) of every timed operation: a top-level
        ``VM.call`` after the prologue, per (program, configuration)."""
        return instrument.vm_calls[first_call:]


class Coldstart(BenchmarkWorkload):
    name = "coldstart"

    def __init__(self, seed: int, workdir: str):
        self.inputs = corpus_inputs(COLD_PROGRAMS, seed)

    def build(self) -> None:
        build_programs(self.inputs)
        # 0.3 s of interpreter work: timed once, it spread set-up by
        # 12% between runs.
        self.compute_references()

    def run_pass(self, instrument: Instrument) -> dict:
        return compare_pass(self.inputs, CompilationCache(), instrument)

    def check(self, passes: List[dict]) -> dict:
        return {"failures": check_rows(passes, self.references),
                "attempted": sum(p["ops"] for p in passes),
                "rows": passes[0]["rows"],
                "sim": sum_sim(passes[0]["rows"])}


class Warmcache(Coldstart):
    name = "warmcache"

    def __init__(self, seed: int, workdir: str):
        self.inputs = corpus_inputs(COLD_PROGRAMS, seed,
                                    measure_iterations=1)
        self.workdir = workdir
        self.cache_dir = None

    def prepare(self) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="warmcache-",
                                          dir=self.workdir)
        populate = compare_pass(self.inputs,
                                CompilationCache(self.cache_dir))
        self.populated_rows = populate["rows"]
        self.populate_failures = populate["failures"]
        compare_pass(self.inputs, CompilationCache(self.cache_dir))

    def run_pass(self, instrument: Instrument) -> dict:
        cache = CompilationCache(self.cache_dir)
        done = compare_pass(self.inputs, cache, instrument)
        done["cache"] = {name: value for name, value
                         in cache.stats.snapshot().items()
                         if not name.endswith("_seconds")}
        return done

    def check(self, passes: List[dict]) -> dict:
        failures = [f"populate: {failure}"
                    for failure in self.populate_failures]
        failures += check_rows(passes, self.references, self.populated_rows)
        counters = [p["cache"] for p in passes]
        if any(c != counters[0] for c in counters):
            failures.append(f"cache counters differ between passes: "
                            f"{counters}")
        return {"failures": failures,
                "attempted": sum(p["ops"] for p in passes),
                "rows": passes[0]["rows"],
                "sim": sum_sim(passes[0]["rows"]),
                "cache_counters": counters}

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


class Steady(BenchmarkWorkload):
    name = "steady"

    def __init__(self, seed: int, workdir: str):
        self.inputs = corpus_inputs(STEADY_PROGRAMS, seed)

    def build(self) -> None:
        self.programs = build_programs(self.inputs)

    def prepare(self) -> None:
        # Once: the four heaviest programs take over a second.
        self.compute_references()

    def prologue(self, instrument: Instrument) -> None:
        """The harness's warm-up, one PEA VM per program."""
        self.vms = {}
        for workload in self.inputs:
            instrument.group = workload.name
            instrument.collect()
            program = self.programs[workload.name]
            vm = api.compile(program,
                             config=CompilerConfig.partial_escape()).vm
            for _ in range(workload.warmup_iterations):
                vm.call(workload.entry, workload.iteration_size)
                program.reset_statics()
            vm.finish_pending_compiles()
            self.vms[workload.name] = vm

    def run_pass(self, instrument: Instrument) -> dict:
        rows, results, failures = {}, {}, []
        for workload in self.inputs:
            instrument.group = workload.name
            instrument.collect()
            program = self.programs[workload.name]
            vm = self.vms[workload.name]
            # Same collector barrier as the harness's measured window,
            # so every pass starts from an empty nursery.
            vm.heap.gc.collect_remaining()
            cycles = vm.cycles_snapshot()
            heap, collector = vm.heap_snapshot(), vm.gc_snapshot()
            values = []
            try:
                for _ in range(STEADY_CALLS_PER_PASS):
                    values.append(vm.call(workload.entry,
                                          workload.iteration_size))
                    program.reset_statics()
            except Exception as error:  # noqa: BLE001 - counted
                failures.append(f"{workload.name}: "
                                f"{type(error).__name__}: {error}")
            results[workload.name] = values
            calls = STEADY_CALLS_PER_PASS
            heap_delta = vm.heap_snapshot().delta(heap)
            gc_delta = vm.gc_snapshot().delta(collector)
            rows[workload.name] = {
                "cycles_per_iteration_pea":
                    (vm.cycles_snapshot() - cycles) / calls,
                "kb_per_iteration_pea":
                    heap_delta.allocated_bytes / calls / 1024.0,
                "allocations_per_iteration_pea":
                    heap_delta.allocations / calls,
                "monitor_ops_per_iteration_pea":
                    heap_delta.monitor_operations / calls,
                "gc_pause_cycles_pea": gc_delta.pause_cycles / calls,
            }
        return {"rows": rows, "results": results, "failures": failures,
                "ops": len(self.inputs) * STEADY_CALLS_PER_PASS}

    def check(self, passes: List[dict]) -> dict:
        references = self.references
        failures = []
        first = passes[0]["rows"]
        for index, done in enumerate(passes):
            failures.extend(f"pass {index}: {failure}"
                            for failure in done["failures"])
            for name, values in done["results"].items():
                wrong = [v for v in values if v != references[name]]
                if wrong:
                    failures.append(f"pass {index}: {name} returned "
                                    f"{wrong[0]}, interpreter "
                                    f"{references[name]}")
            for name, row in done["rows"].items():
                # Cycles are a float accumulator: summation order may
                # move the last bits between passes, nothing more.
                for field, value in row.items():
                    expected = first[name][field]
                    if abs(value - expected) > 1e-9 * abs(expected):
                        failures.append(f"pass {index}: {name} {field} "
                                        f"{value} != {expected}")
        return {"failures": failures,
                "attempted": sum(p["ops"] for p in passes),
                "rows": first, "sim": sum_sim(first)}


class Fuzz(BenchmarkWorkload):
    name = "fuzz"

    def __init__(self, seed: int, workdir: str):
        self.corpus = sorted(glob.glob(os.path.join(FUZZ_CORPUS, "*.jasm")))

    def build(self) -> None:
        """Replay the fuzzer's committed reproducers under all seven
        engines against their recorded expectations, an oracle
        independent of the campaign's own."""
        self.corpus_failures = [
            f"{os.path.basename(path)}: {failure}" for path in self.corpus
            for failure in [replay_corpus_entry(path,
                                                cache=CompilationCache())]
            if failure is not None]
        if not self.corpus:
            self.corpus_failures = [f"no reproducers in {FUZZ_CORPUS}"]

    def run_pass(self, instrument: Instrument) -> dict:
        instrument.group = "fuzz"
        instrument.collect()
        first = len(instrument.fuzz_sources)
        report = fuzz(FUZZ_PROGRAMS, FUZZ_SEED, shrink=False,
                      cache=CompilationCache())
        sources = "".join(instrument.fuzz_sources[first:])
        return {"coverage": sorted(report.coverage),
                "failures": [f"{f.category}: {f.detail}"
                             for f in report.failures],
                "ops": report.programs_run,
                "sources": hashlib.sha256(sources.encode()).hexdigest()}

    def check(self, passes: List[dict]) -> dict:
        failures = [f"corpus: {failure}" for failure in self.corpus_failures]
        first = passes[0]
        for index, done in enumerate(passes):
            failures.extend(f"pass {index}: {failure}"
                            for failure in done["failures"])
            if (done["coverage"], done["sources"]) != \
                    (first["coverage"], first["sources"]):
                failures.append(f"pass {index}: programs or coverage "
                                "differ from the first pass")
        inputs = [{"name": f"fuzz({FUZZ_PROGRAMS}, {FUZZ_SEED})",
                   "programs": first["ops"], "sha256": first["sources"]}]
        for path in self.corpus:
            digest = hashlib.sha256()
            for part in (path, path[:-len(".jasm")] + ".json"):
                with open(part, "rb") as handle:
                    digest.update(handle.read())
            inputs.append({"name": os.path.basename(path),
                           "sha256": digest.hexdigest()})
        return {"failures": failures,
                "attempted": sum(p["ops"] for p in passes)
                + max(len(self.corpus), 1),
                "coverage": first["coverage"],
                "inputs": inputs}

    def operations(self, instrument: Instrument, first_call: int):
        return [("fuzz", start, end)
                for start, end in instrument.fuzz_checks]


WORKLOADS = {w.name: w for w in (Coldstart, Steady, Fuzz, Warmcache)}


# -- one run --------------------------------------------------------------------


def median_op_ms(groups: Dict[object, List[float]]) -> float:
    """Per-input median, averaged geometrically over inputs: a workload
    mixes programs whose calls differ by orders of magnitude, and the
    median of them all would sit in the gap between two programs."""
    return 1000.0 * statistics.geometric_mean(
        [max(statistics.median(latencies), 1e-9)
         for latencies in groups.values()])


def p90_op_ms(groups: Dict[object, List[float]]) -> float:
    """90th percentile of every operation.  Per input, a high percentile
    of coldstart's 28 calls sits on the edge between compiled calls and
    the few that interpret or compile, and jumps across it; pooled, it
    has at least ten operations beyond it on every workload."""
    latencies = [x for group in groups.values() for x in group]
    if len(latencies) == 1:
        return 1000.0 * latencies[0]
    return 1000.0 * statistics.quantiles(latencies, n=10,
                                         method="inclusive")[8]


def import_seconds() -> List[float]:
    """Calibrated CPU time of importing the simulator and the benchmark,
    :data:`SETUP_REPEATS` times in one fresh interpreter, on the child's
    own clock.  The first import, untimed, loads what the standard
    library contributes; each timed one drops every ``repro`` module and
    runs them all again.  One first import per fresh interpreter spread
    by up to 10% between repeats, more than a few repeats could settle."""
    code = "\n".join([
        "import gc, sys",
        f"sys.path.insert(0, {SRC!r})",
        "from benchmarks.e2e.clock import CalibratedClock",
        "import benchmarks.e2e.workloads",
        "clock = CalibratedClock()",
        "clock.start()",
        "marks = []",
        f"for _ in range({SETUP_REPEATS}):",
        "    for name in [name for name in sys.modules",
        "                 if name.split('.')[0] == 'repro'",
        "                 or name == 'benchmarks.e2e.workloads']:",
        "        del sys.modules[name]",
        "    gc.collect()",
        "    began = clock.mark()",
        "    import benchmarks.e2e.workloads",
        "    marks.append((began, clock.mark()))",
        "clock.stop()",
        "print(*(clock.seconds(*interval) for interval in marks))"])
    completed = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                               check=True, capture_output=True, text=True)
    return [float(value) for value in completed.stdout.split()]


def run(name: str, seed: int, seconds: float, traced: bool,
        workdir: str, trace_path: Optional[str] = None) -> dict:
    """Set up, measure and check one workload; returns the run record.

    Times are calibrated CPU seconds (:mod:`.clock`); the window lasts
    *seconds* of wall-clock.  A traced run writes its spans to
    *trace_path*."""
    clock = CalibratedClock()
    workload = WORKLOADS[name](seed, workdir)
    instrument = Instrument(traced, clock)
    try:
        clock.start()
        try:
            import_s = import_seconds()
            build_marks = []
            for _ in range(SETUP_REPEATS):
                # Each build starts from a cold frontend memo.
                getattr(lang_compiler, "_memo", {}).clear()
                began = clock.mark()
                workload.build()
                build_marks.append((began, clock.mark()))
            began = clock.mark()
            workload.prepare()
            prepare_marks = (began, clock.mark())
            # Everything set-up left alive stays alive: keeping it out of
            # the cycle collector's full collections makes each of them
            # scan only what the window allocated.
            gc.collect()
            gc.freeze()

            instrument.install()
            try:
                began = clock.mark()
                workload.prologue(instrument)
                prologue_marks = (began, clock.mark())
                first_call = len(instrument.vm_calls)
                passes_start = time.perf_counter()
                passes = []
                while True:
                    began, wall = clock.mark(), time.perf_counter()
                    done = workload.run_pass(instrument)
                    done["marks"] = (began, clock.mark())
                    passes.append(done)
                    # Stop before a pass that would end past the window.
                    now = time.perf_counter()
                    if now - passes_start + (now - wall) > seconds:
                        break
            finally:
                instrument.uninstall()
        finally:
            clock.stop()
        checked = workload.check(passes)
    finally:
        workload.close()

    def work_seconds(start, end):
        """Time between two marks without the full collections before
        inputs."""
        total = clock.seconds(start, end)
        for began, ended in instrument.barriers:
            if start <= began < end:
                total -= clock.seconds(began, ended)
        return total

    def compile_seconds(start, end):
        """Time inside ``Compiler.compile`` calls that began between two
        marks."""
        return sum(clock.seconds(begun, ended)
                   for begun, ended in instrument.compiles
                   if start <= begun < end)

    build_s = [clock.seconds(*marks) for marks in build_marks]
    prepare_s = clock.seconds(*prepare_marks)
    setup_s = statistics.median(import_s) + statistics.median(build_s) \
        + prepare_s
    prologue_compile_s = compile_seconds(*prologue_marks)
    for done in passes:
        done["seconds"] = work_seconds(*done["marks"])
        done["compile_s"] = compile_seconds(*done["marks"])
    groups: Dict[object, List[float]] = {}
    for group, start, end in workload.operations(instrument, first_call):
        groups.setdefault(group, []).append(clock.seconds(start, end))

    ops = sum(len(latencies) for latencies in groups.values())
    failures = checked["failures"]
    attempted = checked["attempted"]
    failed = min(len(failures), attempted)
    values = {
        "setup_s": setup_s,
        "pass_s": statistics.median(p["seconds"] for p in passes),
        "op_ms_p50": median_op_ms(groups),
        "op_ms_p90": p90_op_ms(groups),
        "compile_s": prologue_compile_s + statistics.median(
            p["compile_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": failed / attempted,
        **checked.get("sim", {}),
    }
    if "coverage" in checked:
        values["coverage_keys"] = len(checked["coverage"])

    loops = clock.loop_seconds()
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": {metric: {"value": values.get(metric), "unit": unit}
                    for metric, unit in METRIC_UNITS.items()},
        "samples": {"passes": len(passes), "ops": ops,
                    "inputs": len(groups)},
        "setup": {"import_s": import_s, "build_s": build_s,
                  "prepare_s": prepare_s},
        "calibration": {"reference_loop_s": REFERENCE_LOOP_S,
                        "samples": len(loops),
                        "median_loop_s": statistics.median(loops)},
        "prologue": {"seconds": work_seconds(*prologue_marks),
                     "compile_s": prologue_compile_s},
        "passes": [{"seconds": p["seconds"], "compile_s": p["compile_s"]}
                   for p in passes],
        "inputs": [input_digest(w) for w in workload.inputs],
        "rows": {},
    }
    record.update({key: checked[key] for key in
                   ("inputs", "rows", "coverage", "cache_counters")
                   if key in checked})
    record["per_layer"] = layer_metrics(instrument, passes)
    if traced:
        record["layers"] = instrument.layer_table()
        record["missing_boundaries"] = instrument.missing
        if trace_path is not None:
            instrument.write_chrome_trace(trace_path, {
                "workload": name, "seed": seed,
                "passes": [p["seconds"] for p in passes]})
    return record


def layer_metrics(instrument: Instrument, passes: List[dict]) -> dict:
    """Per-layer metrics (name -> (value, unit)); times need a traced
    run, counters come from the core wrappers too."""
    counters = instrument.counters
    metrics: Dict[str, tuple] = {}
    if instrument.traced:
        table = instrument.spans
        for layer in LAYERS:
            keys = [k for k in table if k.split(":", 1)[0] == layer]
            metrics[f"{layer}.self_s"] = (
                sum(table[k][2] for k in keys), "s")
            metrics[f"{layer}.calls"] = (
                int(sum(table[k][0] for k in keys)), "count")
        compile_totals = table.get("jit:Compiler.compile", [0, 0.0, 0.0])
        metrics["jit.compile.total_s"] = (compile_totals[1], "s")
        metrics["jit.compile.self_s"] = (compile_totals[2], "s")
        execute = [table[k] for k in ("runtime:BoundPlan.execute",
                                      "runtime:BoundCode.execute",
                                      "runtime:GraphInterpreter.execute")
                   if k in table]
        metrics["runtime.execute.self_s"] = (
            sum(t[2] for t in execute), "s")
        metrics["trace.unattributed_s"] = (instrument.unattributed_s(), "s")
        for name in ("calibration", "gc_barrier"):
            metrics[f"trace.{name}_s"] = (
                table.get(f"trace:{name}", [0, 0.0, 0.0])[2], "s")
        overhead = instrument.overhead_s()
        metrics["trace.overhead_pct"] = (
            100.0 * overhead / max(instrument.window_s - overhead, 1e-9),
            "%")
        metrics["trace.window_s"] = (instrument.window_s, "s")
    runs = counters["opt.phase_runs"]
    metrics["opt.changed_ratio"] = (
        counters["opt.phase_runs_changed"] / runs if runs else 0.0,
        "ratio")
    lookups = counters["cache.lookups"]
    metrics["cache.hit_ratio"] = (
        counters["cache.hits"] / lookups if lookups else 0.0, "ratio")
    warmup = sum(p.get("warmup_total", 0) for p in passes)
    metrics["harness.warmup_elided_ratio"] = (
        sum(p.get("warmup_elided", 0) for p in passes) / warmup
        if warmup else 0.0, "ratio")
    calls = len(instrument.vm_calls)
    metrics["gc.minor_collections_per_iter"] = (
        counters["gc.minor_collections"] / calls if calls else 0.0,
        "count")
    for name in ("frontend.nodes_out", "pea.virtualized",
                 "pea.materialized", "runtime.interp_fallbacks",
                 "vm.deopts", "vm.osr_entries", "jit.compile.calls",
                 "jit.compile.errors"):
        metrics[name] = (int(counters[name]), "count")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}
