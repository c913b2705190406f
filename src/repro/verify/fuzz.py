"""Coverage-guided differential fuzzer.

One fuzz iteration:

1. Generate a random MJ program (:mod:`repro.verify.generator`), either
   from a fresh seed or by mutating the recorded *choice sequence* of a
   previously interesting program.
2. Compile every method under PEA with the full
   :class:`~repro.verify.verifier.GraphVerifier` running after every
   phase; collect *coverage keys* (IR node kinds in the final graph,
   PEA statistic buckets, plan-lowering fallback).
3. Run the same warm-up + probe call sequence under every engine of
   :data:`ENGINES` — the reference bytecode interpreter and VM
   configurations varying the execution backend, the escape tier and
   deoptless dispatch — and compare per-call return values, heap
   allocation counts, monitor balance, deopt counts and the final
   static object graph (the rematerialized escape state).  Every
   engine is held to the reference invariants — identical results and
   statics, balanced monitors, allocations bounded by the
   interpreter's — and each :data:`ENGINES` entry declares which other
   engine's counts it must also reproduce (its oracle).
4. Programs that exercise new coverage are queued for mutation; a
   mismatch or verifier failure is delta-debugged down to a minimal
   reproducer (:mod:`repro.verify.shrink`) and persisted to the
   corpus as ``.jasm`` + expected-metrics ``.json``.

Probe arguments include the generator's ``MAGIC_VALUES``, which warm-up
never passes: branches comparing parameters against them are compiled
as speculative guards, so probes force deoptimization with
rematerialization.
"""

from __future__ import annotations

import json
import operator
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..bytecode import Interpreter
from ..bytecode.asmtext import to_asm
from ..jit import VM, CompilationCache, CompilerConfig
from ..lang import compile_source
from .generator import MAGIC_VALUES, GeneratedProgram, ProgramGenerator

#: Arguments used while warming up (must avoid every magic value).
WARM_ARGS = (3, 4)
WARM_CALLS = 6
#: Probe calls run after warm-up, statics accumulating across them.
PROBE_CALLS = (
    (3, 4),
    (MAGIC_VALUES[0], 4),
    (3, MAGIC_VALUES[1]),
    (MAGIC_VALUES[2], MAGIC_VALUES[3]),
    (-7, 11),
)
#: How deep the final static object graph is compared.
SUMMARY_DEPTH = 4

ENTRY = "Main.entry"

@dataclass(frozen=True)
class Engine:
    """One differential engine: how to run it, and its oracle — which
    engine's counts it must reproduce, and on which counts.  Every
    engine is also held to the interpreter invariants
    (:func:`compare_outcomes`)."""

    #: Keyword arguments of :func:`run_engine_vm`; ``None`` for the
    #: reference bytecode interpreter.
    options: Optional[dict]
    #: The engine whose counts this one must reproduce (``None``: the
    #: interpreter invariants only).
    reproduces: Optional[str] = None
    #: ``(failure category, EngineOutcome counts, relation)`` in check
    #: order: each count must be ``relation(own, reproduced)``.
    checks: Tuple[Tuple[str, Tuple[str, ...],
                        Callable[[int, int], bool]], ...] = ()
    #: Compare only when neither engine deopted and this one never
    #: dispatched.
    undisturbed_only: bool = False


#: Backends must be bit-identical to the threaded-code backend.
_SAME_AS_PLAN = (
    ("alloc-mismatch", ("allocations",), operator.eq),
    ("backend-mismatch", ("monitor_enters", "deopts", "osr_entries"),
     operator.eq),
)

#: The differential engines in run order.  With a shared cache the
#: order decides which engine compiles a graph and which ones hit its
#: entry, so it is part of the campaign: reordering changes every fuzz
#: run.
ENGINES: Dict[str, Engine] = {
    "interp": Engine(None),
    # The legacy GraphInterpreter backend.
    "legacy": Engine({"backend": "legacy"}, "plan", _SAME_AS_PLAN),
    # The threaded-code backend: the reference the others compare to.
    "plan": Engine({"backend": "plan"}),
    # Generated Python code.
    "codegen": Engine({"backend": "codegen"}, "plan", _SAME_AS_PLAN),
    # Interprocedural escape summaries are a pure optimization: every
    # count matches the summary-less plan engine, except that heap
    # allocations may only go *down*.
    "summaries": Engine(
        {"backend": "plan", "escape_tier": "pea+summaries"}, "plan",
        (("summary-mismatch",
          ("monitor_enters", "deopts", "osr_entries"), operator.eq),
         ("summary-alloc-mismatch", ("allocations",), operator.le))),
    # The connection-graph fast tier: no PEA; flow-insensitive escape
    # analysis drives stack allocation and lock elision instead.  It
    # compiles genuinely different code, so deopt schedules, elided
    # monitor pairs and allocation counts all legitimately diverge from
    # the PEA engines.
    "conngraph": Engine({"backend": "plan", "escape_tier": "conngraph"}),
    # Deoptless continuation dispatch.  A continuation is compiled
    # code, so once a deopt happened it can hit further guards the
    # interpreted bridge would simply execute: deopt totals,
    # invalidation schedules and the recompiles' elided allocations and
    # monitor pairs diverge by design.  Without any deopt or dispatch
    # deoptless is pure observation and must match plan exactly.
    "deoptless": Engine(
        {"backend": "plan", "deoptless": True}, "plan",
        (("deoptless-off-path-mismatch",
          ("allocations", "monitor_enters", "osr_entries"),
          operator.eq),),
        undisturbed_only=True),
}


# -- choice sequences --------------------------------------------------------


class RecordingSource:
    """A ``rand_int`` that records every drawn value, so the program can
    be regenerated (and mutated) from the flat integer list."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.choices: List[int] = []

    def rand_int(self, lo: int, hi: int) -> int:
        value = self.rng.randint(lo, hi)
        self.choices.append(value)
        return value


class ReplaySource:
    """Replays a recorded choice sequence.  Out-of-range values (after
    mutation) are renormalized into the requested interval; an exhausted
    sequence falls back to fresh randomness.  Draws are re-recorded so
    the offspring can itself be mutated."""

    def __init__(self, choices: List[int], rng: random.Random):
        self.pending = list(choices)
        self.rng = rng
        self.choices: List[int] = []

    def rand_int(self, lo: int, hi: int) -> int:
        if self.pending:
            raw = self.pending.pop(0)
            span = hi - lo + 1
            value = lo + (raw - lo) % span
        else:
            value = self.rng.randint(lo, hi)
        self.choices.append(value)
        return value


def mutate_choices(choices: List[int], rng: random.Random) -> List[int]:
    """Produce a structurally related choice sequence: point mutations,
    a splice deletion, or a tail truncation."""
    mutated = list(choices)
    if not mutated:
        return mutated
    op = rng.randrange(4)
    if op == 0:  # point mutations
        for _ in range(rng.randint(1, max(1, len(mutated) // 8))):
            mutated[rng.randrange(len(mutated))] = rng.randint(-16, 40)
    elif op == 1 and len(mutated) > 4:  # splice out a window
        start = rng.randrange(len(mutated) - 2)
        end = min(len(mutated), start + rng.randint(1, 8))
        del mutated[start:end]
    elif op == 2:  # truncate: the tail regenerates freshly
        mutated = mutated[:rng.randint(1, len(mutated))]
    else:  # duplicate a window (grows structure)
        start = rng.randrange(len(mutated))
        end = min(len(mutated), start + rng.randint(1, 6))
        mutated[start:start] = mutated[start:end]
    return mutated


# -- differential oracle ------------------------------------------------------


@dataclass
class EngineOutcome:
    """Observable behaviour of one engine over the probe sequence."""

    results: List[object]
    allocations: int
    monitor_enters: int
    monitor_exits: int
    deopts: int
    invalidations: int
    g0_summary: object
    gi: object
    osr_entries: int = 0
    dispatches: int = 0
    #: Installs that could not bind the engine backend's own lowering.
    backend_fallbacks: int = 0


@dataclass
class Failure:
    """One confirmed fuzz failure."""

    category: str
    detail: str
    program: GeneratedProgram
    source: str
    shrunk: Optional[GeneratedProgram] = None

    def reproducer(self) -> GeneratedProgram:
        return self.shrunk if self.shrunk is not None else self.program


def summarize_value(value, depth: int = SUMMARY_DEPTH,
                    _seen: Optional[Set[int]] = None):
    """A structural, identity-free summary of a runtime value, used to
    compare (rematerialized) object graphs across engines."""
    from ..bytecode.heap import Arr, Obj
    if _seen is None:
        _seen = set()
    if isinstance(value, Obj):
        if id(value) in _seen or depth <= 0:
            return "<...>"
        _seen.add(id(value))
        return {"class": value.class_name,
                "fields": {name: summarize_value(v, depth - 1, _seen)
                           for name, v in sorted(value.fields.items())}}
    if isinstance(value, Arr):
        if id(value) in _seen or depth <= 0:
            return "<...>"
        _seen.add(id(value))
        return {"array": value.elem_type,
                "elements": [summarize_value(v, depth - 1, _seen)
                             for v in value.elements]}
    return value


def run_engine_interpreter(make_program: Callable[[], object],
                           probes=PROBE_CALLS) -> EngineOutcome:
    program = make_program()
    interp = Interpreter(program)
    before = interp.heap.stats.copy()
    results = [interp.call(ENTRY, *args) for args in probes]
    delta = interp.heap.stats.delta(before)
    return EngineOutcome(
        results, delta.allocations, delta.monitor_enters,
        delta.monitor_exits, deopts=0, invalidations=0,
        g0_summary=summarize_value(program.get_static("Main", "g0")),
        gi=program.get_static("Main", "gi"))


def run_engine_vm(make_program: Callable[[], object], backend: str,
                  probes=PROBE_CALLS,
                  cache: Optional[CompilationCache] = None,
                  escape_tier: str = "pea",
                  deoptless: bool = False) -> EngineOutcome:
    program = make_program()
    # osr_threshold sits below the hot-loop generator shape's trip
    # count so "hot loop in a cold method" programs tier up at the
    # backedge during the very first call.
    # speculation_min_samples sits at the warm-up call count: straight-
    # line branches then carry exactly enough profile to speculate at
    # the method-entry compile, not just the loop-body branches that
    # accumulate trip-count samples.  Probe deopts therefore land both
    # *before* loops (continuation-eligible, exercising deoptless
    # dispatch) and inside them (exercising its plain-deopt fallback).
    config = CompilerConfig.partial_escape(
        compile_threshold=3, osr_threshold=25,
        speculation_min_samples=3,
        execution_backend=backend,
        escape_tier=escape_tier,
        deoptless=deoptless)
    vm = VM(program, config, cache=cache)
    for _ in range(WARM_CALLS):
        vm.call(ENTRY, *WARM_ARGS)
        program.reset_statics()
    before = vm.heap_snapshot()
    results = [vm.call(ENTRY, *args) for args in probes]
    delta = vm.heap_snapshot().delta(before)
    return EngineOutcome(
        results, delta.allocations, delta.monitor_enters,
        delta.monitor_exits, deopts=vm.exec_stats.deopts,
        invalidations=vm.invalidations,
        g0_summary=summarize_value(program.get_static("Main", "g0")),
        gi=program.get_static("Main", "gi"),
        osr_entries=vm.osr_entries,
        dispatches=vm.deoptless.dispatches,
        backend_fallbacks=vm.backend_fallbacks)


def run_engine(name: str, make_program: Callable[[], object],
               probes=PROBE_CALLS,
               cache: Optional[CompilationCache] = None) -> EngineOutcome:
    """Run the probe sequence under engine *name* of :data:`ENGINES`."""
    options = ENGINES[name].options
    if options is None:
        return run_engine_interpreter(make_program, probes)
    return run_engine_vm(make_program, probes=probes, cache=cache,
                         **options)


def compare_outcomes(outcomes: Dict[str, EngineOutcome]
                     ) -> Optional[Tuple[str, str]]:
    """Return ``(category, detail)`` for the first divergence between
    engines, or ``None`` when every differential invariant holds."""
    reference = outcomes["interp"]
    for name, outcome in outcomes.items():
        if outcome.results != reference.results:
            return ("result-mismatch",
                    f"{name} returned {outcome.results}, interpreter "
                    f"returned {reference.results}")
        if outcome.monitor_enters != outcome.monitor_exits:
            return ("monitor-mismatch",
                    f"{name} monitors unbalanced: "
                    f"{outcome.monitor_enters} enters / "
                    f"{outcome.monitor_exits} exits")
        if (outcome.g0_summary != reference.g0_summary
                or outcome.gi != reference.gi):
            return ("static-mismatch",
                    f"{name} final statics g0={outcome.g0_summary} "
                    f"gi={outcome.gi}, interpreter "
                    f"g0={reference.g0_summary} gi={reference.gi}")
        if outcome.allocations > reference.allocations:
            return ("alloc-mismatch",
                    f"{name} allocated {outcome.allocations} > "
                    f"interpreter {reference.allocations} — PEA must "
                    "never add dynamic allocations")
    for name, engine in ENGINES.items():
        outcome = outcomes.get(name)
        if outcome is None or engine.reproduces is None:
            continue
        oracle = outcomes[engine.reproduces]
        if engine.undisturbed_only and (
                outcome.dispatches or outcome.deopts or oracle.deopts):
            continue
        for category, counts, relation in engine.checks:
            if not all(relation(getattr(outcome, count),
                                getattr(oracle, count))
                       for count in counts):
                return (category,
                        f"{name} {_counts(outcome, counts)}; "
                        f"{engine.reproduces} {_counts(oracle, counts)}")
    return None


def _counts(outcome: EngineOutcome, counts: Tuple[str, ...]) -> str:
    return " ".join(f"{count}={getattr(outcome, count)}"
                    for count in counts)


# -- one fuzz iteration ---------------------------------------------------------


@dataclass
class CheckResult:
    failure: Optional[Tuple[str, str]]
    coverage: Set[str] = field(default_factory=set)
    #: Summed :attr:`EngineOutcome.backend_fallbacks` of the VM engines.
    backend_fallbacks: int = 0


def check_source(source: str,
                 cache: Optional[CompilationCache] = None) -> CheckResult:
    """Compile (with the verifier always on) and differentially execute
    one program; returns the failure (if any) and its coverage keys.

    A shared *cache* lets the two VM engines reuse each other's
    compilations: both warm up identically, so their profiles agree at
    every compile point and the recorded speculation facts validate.
    Each engine still builds its own Program — cached graphs rebind to
    the requesting program's methods at load."""
    from ..jit import Compiler
    from .verifier import GraphVerificationError

    coverage: Set[str] = set()
    try:
        program = compile_source(source)
        compiler = Compiler(program,
                            CompilerConfig.partial_escape(
                                verify_ir=True),
                            cache=cache)
        for name in ("entry", "h1", "h2"):
            result = compiler.compile(program.method(f"Main.{name}"))
            for node in result.graph.nodes():
                coverage.add(type(node).__name__)
            ea = result.ea_result
            if ea.virtualized_allocations:
                coverage.add("pea:virtualized")
            if ea.materializations:
                coverage.add("pea:materialized")
            if ea.removed_monitor_pairs:
                coverage.add("pea:monitor-elision")
            if result.lowering is None:
                coverage.add("plan:fallback")
    except GraphVerificationError as error:
        return CheckResult(("verifier", str(error)), coverage)
    except Exception as error:  # compiler crash: always a finding
        return CheckResult(
            ("compile-crash", f"{type(error).__name__}: {error}"),
            coverage)

    make_program = lambda: compile_source(source)  # noqa: E731
    outcomes: Dict[str, EngineOutcome] = {}
    for name in ENGINES:
        try:
            outcomes[name] = run_engine(name, make_program, cache=cache)
        except GraphVerificationError as error:
            return CheckResult(("verifier", str(error)), coverage)
        except Exception as error:
            return CheckResult(
                ("runtime-crash",
                 f"{name}: {type(error).__name__}: {error}"), coverage)
    if any(o.deopts for o in outcomes.values()):
        coverage.add("run:deopt")
    if any(o.osr_entries for o in outcomes.values()):
        coverage.add("run:osr")
    if any(o.invalidations for o in outcomes.values()):
        coverage.add("run:invalidation")
    if any(o.dispatches for o in outcomes.values()):
        coverage.add("run:dispatch")
    return CheckResult(compare_outcomes(outcomes), coverage,
                       sum(o.backend_fallbacks for o in outcomes.values()))


def check_program(program: GeneratedProgram,
                  cache: Optional[CompilationCache] = None
                  ) -> CheckResult:
    return check_source(program.source(), cache=cache)


# -- corpus ---------------------------------------------------------------------


def save_corpus_entry(corpus_dir: str, name: str,
                      program: GeneratedProgram,
                      category: str, detail: str = "") -> str:
    """Persist a reproducer: ``<name>.jasm`` (assembler round-trip of
    the compiled bytecode) plus ``<name>.json`` (probe calls + the
    reference interpreter's expected behaviour)."""
    os.makedirs(corpus_dir, exist_ok=True)
    source = program.source()
    compiled = compile_source(source)
    expected = run_engine_interpreter(lambda: compile_source(source))
    jasm_path = os.path.join(corpus_dir, f"{name}.jasm")
    with open(jasm_path, "w") as handle:
        handle.write(f"; fuzz reproducer: {category}\n")
        handle.write(to_asm(compiled))
    meta = {
        "category": category,
        "detail": detail,
        "entry": ENTRY,
        "warm_args": list(WARM_ARGS),
        "warm_calls": WARM_CALLS,
        "probe_calls": [list(args) for args in PROBE_CALLS],
        "expected": {
            "results": expected.results,
            "allocations": expected.allocations,
            "monitor_enters": expected.monitor_enters,
            "monitor_exits": expected.monitor_exits,
            "g0": expected.g0_summary,
            "gi": expected.gi,
        },
        "source": source,
    }
    with open(os.path.join(corpus_dir, f"{name}.json"), "w") as handle:
        json.dump(meta, handle, indent=2)
        handle.write("\n")
    return jasm_path


def replay_corpus_entry(jasm_path: str,
                        cache: Optional[CompilationCache] = None
                        ) -> Optional[Tuple[str, str]]:
    """Re-run one persisted reproducer under every engine of
    :data:`ENGINES` and check it against its recorded expectations.
    Returns ``None`` when everything still agrees, else
    ``(category, detail)``."""
    from ..bytecode.asmtext import assemble

    with open(jasm_path) as handle:
        text = handle.read()
    meta_path = jasm_path[:-len(".jasm")] + ".json"
    with open(meta_path) as handle:
        meta = json.load(handle)
    probes = tuple(tuple(args) for args in meta["probe_calls"])
    make_program = lambda: assemble(text)  # noqa: E731

    outcomes = {name: run_engine(name, make_program, probes, cache=cache)
                for name in ENGINES}
    expected = meta["expected"]
    reference = outcomes["interp"]
    if reference.results != expected["results"]:
        return ("corpus-drift",
                f"interpreter now returns {reference.results}, "
                f"recorded {expected['results']}")
    if reference.allocations != expected["allocations"]:
        return ("corpus-drift",
                f"interpreter now allocates {reference.allocations}, "
                f"recorded {expected['allocations']}")
    if (reference.g0_summary != expected["g0"]
            or reference.gi != expected["gi"]):
        return ("corpus-drift",
                f"interpreter statics now g0={reference.g0_summary} "
                f"gi={reference.gi}, recorded g0={expected['g0']} "
                f"gi={expected['gi']}")
    return compare_outcomes(outcomes)


# -- the fuzz loop --------------------------------------------------------------


@dataclass
class FuzzReport:
    programs_run: int = 0
    coverage: Set[str] = field(default_factory=set)
    coverage_adds: int = 0
    failures: List[Failure] = field(default_factory=list)
    #: Installs, over every program and VM engine, that could not bind
    #: the engine backend's own lowering (see ``VM.backend_fallbacks``).
    backend_fallbacks: int = 0


class Fuzzer:
    """The coverage-guided loop.  ``check`` is injectable so tests can
    fuzz against a deliberately broken oracle."""

    def __init__(self, seed: int, corpus_dir: Optional[str] = None,
                 shrink: bool = True,
                 check: Optional[Callable[[GeneratedProgram],
                                          CheckResult]] = None,
                 log: Callable[[str], None] = lambda message: None,
                 cache: Optional[CompilationCache] = None):
        self.rng = random.Random(seed)
        self.seed = seed
        self.corpus_dir = corpus_dir
        self.shrink = shrink
        self.cache = cache
        if check is None:
            check = lambda program: check_program(  # noqa: E731
                program, cache=self.cache)
        self.check = check
        self.log = log
        #: Choice sequences that exercised new coverage.
        self.queue: List[List[int]] = []
        self.report = FuzzReport()

    def _generate(self) -> Tuple[GeneratedProgram, List[int]]:
        if self.queue and self.rng.random() < 0.5:
            parent = self.queue[self.rng.randrange(len(self.queue))]
            source = ReplaySource(mutate_choices(parent, self.rng),
                                  self.rng)
        else:
            source = RecordingSource(self.rng)
        program = ProgramGenerator(source.rand_int).generate_program()
        return program, source.choices

    def run(self, programs: int) -> FuzzReport:
        for index in range(programs):
            program, choices = self._generate()
            result = self.check(program)
            self.report.programs_run += 1
            self.report.backend_fallbacks += result.backend_fallbacks
            fresh = result.coverage - self.report.coverage
            if fresh:
                self.report.coverage |= fresh
                self.report.coverage_adds += 1
                self.queue.append(choices)
            if result.failure is not None:
                self._handle_failure(program, result.failure, index)
            if (index + 1) % 25 == 0:
                self.log(f"[{index + 1}/{programs}] "
                         f"coverage={len(self.report.coverage)} "
                         f"queue={len(self.queue)} "
                         f"failures={len(self.report.failures)}")
        return self.report

    def _handle_failure(self, program: GeneratedProgram,
                        failure: Tuple[str, str], index: int) -> None:
        category, detail = failure
        self.log(f"FAILURE [{category}] at program {index}: {detail}")
        record = Failure(category, detail, program, program.source())
        if self.shrink:
            from .shrink import shrink_program

            def same_failure(candidate: GeneratedProgram) -> bool:
                try:
                    outcome = self.check(candidate)
                except Exception:
                    return False
                return (outcome.failure is not None
                        and outcome.failure[0] == category)

            record.shrunk = shrink_program(program, same_failure)
            self.log(f"shrunk {program.statement_count()} -> "
                     f"{record.shrunk.statement_count()} statements")
        self.report.failures.append(record)
        if self.corpus_dir is not None:
            name = f"fuzz-{self.seed}-{index}-{category}"
            path = save_corpus_entry(self.corpus_dir, name,
                                     record.reproducer(), category,
                                     detail)
            self.log(f"reproducer written to {path}")


def fuzz(programs: int, seed: int, corpus_dir: Optional[str] = None,
         shrink: bool = True,
         log: Callable[[str], None] = lambda message: None,
         cache: Optional[CompilationCache] = None) -> FuzzReport:
    """Run the coverage-guided differential fuzz loop."""
    return Fuzzer(seed, corpus_dir=corpus_dir, shrink=shrink,
                  log=log, cache=cache).run(programs)
