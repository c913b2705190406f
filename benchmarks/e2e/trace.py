"""Outside-in instrumentation of the simulator's layers.

Nothing under ``src/`` knows about this module.  For the timed window
only, :class:`Instrument` replaces public functions and methods of the
``repro`` packages with timing wrappers, and puts the originals back
afterwards.  A layer is a ``repro`` package (``lang``, ``bytecode``,
``frontend``, ``opt``, ...); a boundary is one wrapped function.

Two modes:

- untraced (the end-to-end run): only ``VM.call``, ``Compiler.compile``
  and ``fuzz.check_program`` are wrapped — a few thousand calls per
  run — to time top-level operations and compilation on the
  calibrated clock (:mod:`.clock`);
- traced: every boundary in :data:`BOUNDARIES` becomes a span.  A span
  knows its parent, so each boundary gets ``calls``, inclusive
  ``total_s`` and ``self_s`` (inclusive time minus the time of the
  spans it caused).  Time inside the window that no span covers is
  ``unattributed_s``, so the self times plus ``unattributed_s`` add up
  to the window by construction.  Spans use wall-clock
  (``perf_counter``): a CPU-time read is a system call, too slow for
  the millions of execution spans.

Spans stay in memory and are written at the end as Chrome trace-event
JSON (``chrome://tracing``, Perfetto).  The execution boundaries run up
to millions of times per window, so they are aggregated per input
instead of being written as individual events.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import importlib
import json
import sys
import time
import weakref
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Traced boundaries: (module, class or None, attribute, boundary name).
#: ``None`` for the class means a module-level function; it is rebound
#: in every loaded ``repro`` module that imported it by name.  The layer
#: is the ``repro`` package the module belongs to.  ``VM.call``,
#: ``Compiler.compile`` and ``check_program`` are wrapped in both modes
#: and are listed in :meth:`Instrument._install_core`.
BOUNDARIES: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.lang.compiler", None, "compile_source", "compile_source"),
    ("repro.bytecode.interpreter", "Interpreter", "invoke",
     "Interpreter.invoke"),
    ("repro.frontend.graph_builder", None, "build_graph", "build_graph"),
    ("repro.analysis.conngraph", "ConnectionGraph", "build",
     "ConnectionGraph.build"),
    ("repro.analysis.summaries", None, "summaries_for", "summaries_for"),
    ("repro.scheduler.cfg", "ControlFlowGraph", "__init__",
     "ControlFlowGraph"),
    ("repro.ir.graph", "Graph", "verify", "Graph.verify"),
    ("repro.verify.verifier", None, "verify_graph", "verify_graph"),
    ("repro.verify.generator", "ProgramGenerator", "generate_program",
     "generate_program"),
    ("repro.runtime.plan", "ExecutionPlan", "__init__",
     "ExecutionPlan.lower"),
    ("repro.runtime.plan", "ExecutionPlan", "from_payload",
     "ExecutionPlan.relink"),
    ("repro.runtime.plan", "ExecutionPlan", "bind", "ExecutionPlan.bind"),
    ("repro.runtime.plan", "BoundPlan", "execute", "BoundPlan.execute"),
    ("repro.runtime.codegen", "CodegenPlan", "__init__",
     "CodegenPlan.lower"),
    ("repro.runtime.codegen", "CodegenPlan", "from_payload",
     "CodegenPlan.relink"),
    ("repro.runtime.codegen", "CodegenPlan", "bind", "CodegenPlan.bind"),
    ("repro.runtime.graph_interpreter", "GraphInterpreter", "execute",
     "GraphInterpreter.execute"),
    ("repro.runtime.deopt", "Deoptimizer", "deoptimize",
     "Deoptimizer.deoptimize"),
    ("repro.jit.cache", "CompilationCache", "lookup",
     "CompilationCache.lookup"),
    ("repro.jit.cache", "CompilationCache", "store",
     "CompilationCache.store"),
    ("repro.jit.cache", "CompilationCache", "load_harness_record",
     "CompilationCache.load_harness_record"),
    ("repro.jit.cache", "CompilationCache", "store_harness_record",
     "CompilationCache.store_harness_record"),
    ("repro.benchsuite.harness", None, "run_workload", "run_workload"),
)

#: Modules whose Phase subclasses are wrapped (by phase name).  Some are
#: imported lazily by the compiler, so they are imported up front.
PHASE_MODULES = (
    "repro.opt.inlining", "repro.opt.canonicalize", "repro.opt.gvn",
    "repro.opt.conditional_elimination", "repro.opt.dce",
    "repro.opt.read_elimination", "repro.opt.stack_allocation",
    "repro.pea.partial_escape", "repro.pea.equi_escape",
    "repro.analysis.conngraph",
)

#: Boundaries that run too often to keep one event per call; they are
#: aggregated per input.  ``BoundCode.execute`` is wrapped per instance
#: after ``CodegenPlan.bind``: it is a ``__slots__`` instance attribute,
#: so wrapping it on the class would break every codegen engine.
AGGREGATED = frozenset({
    "bytecode:Interpreter.invoke", "runtime:BoundPlan.execute",
    "runtime:BoundCode.execute", "runtime:GraphInterpreter.execute",
})

#: Cap on individually recorded events; later ones are only counted.
MAX_EVENTS = 500_000


def layer_of(module: str) -> str:
    """``repro.opt.gvn`` -> ``opt``."""
    return module.split(".")[1]


class Instrument:
    """Wraps the simulator's boundaries for one timed window.

    The workload sets :attr:`group` to the input it is running, so
    operations and aggregated spans are attributed to it."""

    def __init__(self, traced: bool, clock):
        self.traced = traced
        #: The :class:`~.clock.CalibratedClock` operations are timed on.
        self.clock = clock
        self.group: Any = None
        #: Clock marks (start, end) of top-level ``VM.call``s, with the
        #: input they ran: (group, start, end).
        self.vm_calls: List[Tuple[Any, float, float]] = []
        #: Clock marks of ``Compiler.compile`` calls.
        self.compiles: List[Tuple[float, float]] = []
        #: Clock marks of ``check_program`` calls (one fuzz program each).
        self.fuzz_checks: List[Tuple[float, float]] = []
        #: SHA-256 of every checked fuzz program's source, in order.
        self.fuzz_sources: List[str] = []
        #: Clock marks of the full collections :meth:`collect` makes
        #: before inputs.
        self.barriers: List[Tuple[float, float]] = []
        self._collect = gc.collect
        #: Layer counters (deopts, cache hits, phase changes, ...).
        self.counters: Counter = Counter()
        #: boundary -> [calls, total_s, self_s]
        self.spans: Dict[str, List[float]] = {}
        #: (boundary, group) -> [calls, total_s, self_s] for AGGREGATED.
        self.aggregates: Dict[Tuple[str, Any], List[float]] = {}
        #: (boundary, start, duration) of the other spans.
        self.events: List[Tuple[str, float, float]] = []
        self.events_dropped = 0
        #: Boundaries this version of the simulator no longer has.
        self.missing: List[str] = []
        #: Open spans: [start, time covered by child spans]; the bottom
        #: frame is the window itself.
        self._stack: List[List[float]] = [[0.0, 0.0]]
        self._patches: List[Tuple[Any, str, Any]] = []
        #: VM -> (deopts, osr_entries, minor collections) last seen.
        self._vm_marks: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        self.window_start = 0.0
        self.window_end = 0.0
        self.wrapper_overhead_s = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self._install_core()
        if self.traced:
            self.wrapper_overhead_s = self._span_cost()
            self._install_traced()
            # Calibration samples are a span of their own, so their
            # time is not charged to whatever boundary they interrupt.
            self.clock.run_loop = self._span(self.clock.run_loop,
                                             "trace:calibration")
            self._collect = self._span(gc.collect, "trace:gc_barrier")
        self.window_start = self._stack[0][0] = time.perf_counter()

    def uninstall(self) -> None:
        self.window_end = time.perf_counter()
        self.clock.__dict__.pop("run_loop", None)
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def collect(self) -> None:
        """A full collection before an input, so every input starts with
        the same garbage (none) and the peak memory does not depend on
        the order of the inputs.  Passes subtract its time."""
        began = self.clock.mark()
        self._collect()
        self.barriers.append((began, self.clock.mark()))

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _patch_method(self, cls, name: str, key: str,
                      after: Optional[Callable] = None,
                      core: bool = False) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            self._patch(cls, name, classmethod(
                self._wrap(raw.__func__, key, after, core)))
        else:
            self._patch(cls, name, self._wrap(raw, key, after, core))

    def _patch_function(self, module_name: str, name: str, key: str,
                        after: Optional[Callable] = None,
                        core: bool = False) -> None:
        """Rebind a module-level function everywhere it was imported."""
        original = getattr(importlib.import_module(module_name), name)
        wrapper = self._wrap(original, key, after, core)
        for module_key, module in list(sys.modules.items()):
            if module is None or not module_key.startswith("repro"):
                continue
            if module.__dict__.get(name) is original:
                self._patch(module, name, wrapper)

    def _install_core(self) -> None:
        from repro.jit.compiler import Compiler
        from repro.jit.vm import VM

        def after_call(args, result, interval, failed):
            vm = args[0]
            self.vm_calls.append(((self.group, vm.config.label()),
                                  *interval))
            counters = self.counters
            stats = vm.exec_stats
            previous = self._vm_marks.get(vm, (0, 0, 0))
            marks = (stats.deopts, vm.osr_entries,
                     vm.heap.gc.stats.minor_collections)
            self._vm_marks[vm] = marks
            counters["vm.deopts"] += marks[0] - previous[0]
            counters["vm.osr_entries"] += marks[1] - previous[1]
            counters["gc.minor_collections"] += marks[2] - previous[2]

        def after_compile(args, result, interval, failed):
            self.compiles.append(interval)
            counters = self.counters
            counters["jit.compile.calls"] += 1
            if failed:
                counters["jit.compile.errors"] += 1
                return
            backend = args[0].config.execution_backend
            if backend != "legacy" and getattr(result, "plan", None) is None \
                    and getattr(result, "codegen", None) is None:
                counters["runtime.interp_fallbacks"] += 1
            ea = result.ea_result
            counters["pea.virtualized"] += ea.virtualized_allocations
            counters["pea.materialized"] += ea.materializations

        def after_check(args, result, interval, failed):
            self.fuzz_checks.append(interval)
            self.fuzz_sources.append(hashlib.sha256(
                args[0].source().encode()).hexdigest())

        self._patch_method(VM, "call", "jit:VM.call", after_call,
                           core=True)
        self._patch_method(Compiler, "compile", "jit:Compiler.compile",
                           after_compile, core=True)
        self._patch_function("repro.verify.fuzz", "check_program",
                             "verify:check_program", after_check,
                             core=True)

    def _install_traced(self) -> None:
        from repro.opt.phase import Phase

        def after_build(args, result, seconds, failed):
            if not failed:
                self.counters["frontend.nodes_out"] += result.node_count()

        def after_lookup(args, result, seconds, failed):
            self.counters["cache.lookups"] += 1
            if result is not None:
                self.counters["cache.hits"] += 1

        def after_bind(args, result, seconds, failed):
            if not failed:
                result.execute = self._span(
                    result.execute, "runtime:BoundCode.execute")

        after = {"build_graph": after_build,
                 "CompilationCache.lookup": after_lookup,
                 "CodegenPlan.bind": after_bind}
        for module_name, class_name, attribute, name in BOUNDARIES:
            key = f"{layer_of(module_name)}:{name}"
            try:
                module = importlib.import_module(module_name)
                owner = module if class_name is None \
                    else getattr(module, class_name)
                getattr(owner, attribute)
            except (ImportError, AttributeError):
                # The simulator moved on (a backend or phase was
                # deleted): trace the boundaries that still exist.
                self.missing.append(key)
                continue
            if class_name is None:
                self._patch_function(module_name, attribute, key,
                                     after.get(name))
            else:
                self._patch_method(owner, attribute, key, after.get(name))

        for module_name in PHASE_MODULES:
            try:
                importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
        for cls in _subclasses(Phase):
            if "run" not in cls.__dict__:
                continue
            layer = layer_of(cls.__module__)
            counter = f"{layer}.phase_runs"

            def after_phase(args, result, seconds, failed,
                            _counter=counter):
                self.counters[_counter] += 1
                if not failed and result:
                    self.counters[_counter + "_changed"] += 1

            self._patch_method(cls, "run", f"{layer}:{cls.name}",
                               after_phase)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, function: Callable, key: str,
              after: Optional[Callable] = None,
              core: bool = False) -> Callable:
        """A span around *function* (traced runs); core boundaries are
        also marked on the calibrated clock, in both modes, and their
        *after* hook receives the (start, end) marks."""
        if core:
            function = self._timed(function, after)
            after = None
            if not self.traced:
                return function
        return self._span(function, key, after)

    def _timed(self, function: Callable, after: Callable) -> Callable:
        mark = self.clock.mark

        @functools.wraps(function)
        def timed(*args, **kwargs):
            started = mark()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                after(args, None, (started, mark()), True)
                raise
            after(args, result, (started, mark()), False)
            return result
        return timed

    def _span(self, function: Callable, key: str,
              after: Optional[Callable] = None) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        totals = self.spans.setdefault(key, [0, 0.0, 0.0])
        aggregated = key in AGGREGATED
        events = self.events
        aggregates = self.aggregates

        @functools.wraps(function)
        def span(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            failed = True
            result = None
            try:
                result = function(*args, **kwargs)
                failed = False
            finally:
                duration = clock() - frame[0]
                stack.pop()
                stack[-1][1] += duration
                self_time = duration - frame[1]
                totals[0] += 1
                totals[1] += duration
                totals[2] += self_time
                if aggregated:
                    bucket = aggregates.get((key, self.group))
                    if bucket is None:
                        bucket = aggregates[(key, self.group)] = [0, 0.0,
                                                                  0.0]
                    bucket[0] += 1
                    bucket[1] += duration
                    bucket[2] += self_time
                elif len(events) < MAX_EVENTS:
                    events.append((key, frame[0], duration))
                else:
                    self.events_dropped += 1
                if after is not None:
                    after(args, result, duration, failed)
            return result
        return span

    @staticmethod
    def _span_cost(calls: int = 20000) -> float:
        """Seconds one span wrapper adds to a call, measured on a no-op
        (the estimate behind ``trace.overhead_pct``)."""
        def noop():
            return None
        wrapped = Instrument(traced=True, clock=None)._span(
            noop, "trace:noop")
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - started
            started = time.perf_counter()
            for _ in range(calls):
                wrapped()
            best = min(best, (time.perf_counter() - started - bare) / calls)
        return max(best, 0.0)

    # -- results ------------------------------------------------------------

    @property
    def window_s(self) -> float:
        return self.window_end - self.window_start

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per boundary: calls, total_s and self_s over the window."""
        return {key: {"calls": int(calls), "total_s": total,
                      "self_s": self_time}
                for key, (calls, total, self_time)
                in sorted(self.spans.items())}

    def unattributed_s(self) -> float:
        covered = sum(self_time for __, __, self_time
                      in self.spans.values())
        return self.window_s - covered

    def overhead_s(self) -> float:
        calls = sum(calls for calls, __, __ in self.spans.values())
        return calls * self.wrapper_overhead_s

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        origin = self.window_start
        pid = 1
        trace_events = [{"name": "window", "cat": "trace", "ph": "X",
                         "ts": 0.0, "dur": self.window_s * 1e6,
                         "pid": pid, "tid": 1}]
        for key, start, duration in self.events:
            layer, name = key.split(":", 1)
            trace_events.append({
                "name": name, "cat": layer, "ph": "X",
                "ts": (start - origin) * 1e6, "dur": duration * 1e6,
                "pid": pid, "tid": 1})
        aggregated: Dict[str, Dict[str, dict]] = {}
        for (key, group), (calls, total, self_time) in \
                sorted(self.aggregates.items(), key=lambda kv: str(kv[0])):
            aggregated.setdefault(key, {})[str(group)] = {
                "calls": int(calls), "total_s": total, "self_s": self_time}
        payload = {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {**metadata,
                          "layers": self.layer_table(),
                          "aggregated_per_input": aggregated,
                          "events_dropped": self.events_dropped},
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
