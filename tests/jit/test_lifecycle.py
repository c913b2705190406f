"""The code-variant lifecycle, across entry kinds and producers.

Method entries, OSR entries and deoptless continuations share one
install path: every install fires ``on_cache_hit`` exactly when its
code came from the cache, followed by exactly one event for its kind;
and stale speculative code is retired before it is entered again.
Each property is checked for every entry kind, with code produced
in-process and by a blocking compile service."""

import pytest

from repro.benchsuite.harness import run_workload
from repro.benchsuite.workloads import Workload
from repro.bytecode import Interpreter
from repro.frontend.graph_builder import GraphBuildError
from repro.jit import (VM, CompilationCache, Compiler, CompilerConfig,
                       VMListener)
from repro.jit import vm as vm_module
from repro.jit.client import ServiceClient
from repro.jit.server import CompileService

from vm_harness import compile_source, osr_variants

#: Speculated branch in a small method: warm-up never takes it.
METHOD_SOURCE = """
    class Main {
        static int pick(int x) {
            int acc = x;
            if (x > 100) { acc = acc - 1; } else { acc = acc + 1; }
            return acc;
        }
    }
"""

#: Hot loop in a cold method whose "impossible" iteration fails a guard
#: inside the OSR'd loop code.
OSR_SOURCE = """
    class Pair {
        int a; int b;
        Pair(int a, int b) { this.a = a; this.b = b; }
    }
    class Main {
        static Pair sink;
        static int run(int n) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                Pair p = new Pair(i, i * 3);
                if (i == 900) { sink = p; }
                acc = acc + p.a + p.b;
            }
            return acc;
        }
    }
"""

#: Two speculated branches: a continuation entering at the first one
#: still speculates on the second, so a deopt at the second falsifies a
#: fact the first one's continuation recorded.
CONTINUATION_SOURCE = """
    class Main {
        static int step(int phase, int k, int n) {
            int acc = 0;
            if (phase == 1) { acc = 7; } else { acc = 3; }
            for (int i = 0; i < n; i = i + 1) {
                acc = (acc * 31 + i) & 1048575;
            }
            if (k == 1) { acc = acc + 100; }
            return acc;
        }
    }
"""

#: A loop in a method that compiles late: its first call requests an
#: OSR entry at the loop header.
LOOP_SOURCE = """
    class Main {
        static int run(int n) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) { acc = acc + i * 3; }
            return acc;
        }
    }
"""

#: kind -> (source, entry point, config options, calls).  The calls
#: tier up, deopt on a falsified fact, then run again.
SCENARIOS = {
    "method": (METHOD_SOURCE, "Main.pick",
               dict(compile_threshold=3, speculation_min_samples=3),
               [(5,)] * 6 + [(150,), (5,), (150,)]),
    "osr": (OSR_SOURCE, "Main.run",
            dict(compile_threshold=10 ** 9, osr_threshold=60),
            [(2_000,)]),
    "continuation": (CONTINUATION_SOURCE, "Main.step",
                     dict(deoptless=True, compile_threshold=5,
                          speculation_min_samples=3,
                          osr_threshold=100_000),
                     [(0, 0, 10)] * 8
                     + [(1, 0, 10), (0, 1, 10), (1, 0, 10)]),
}
KINDS = list(SCENARIOS)
#: kind -> deopts of one method before its code is invalidated, where
#: the scenario needs other than the VM's default.
INVALIDATE_AFTER = {"method": 1, "continuation": 100}
PRODUCERS = ["in-process", "service"]

#: Listener event name -> the entry kind whose install it reports.
INSTALL_EVENTS = {"on_compile": "method", "on_osr_compile": "osr",
                  "on_continuation_compile": "continuation"}


class Recorder(VMListener):
    """Every event in firing order, stamped with the VM's OSR-entry and
    retirement counters at that moment."""

    def __init__(self, vm):
        self.vm = vm
        self.events = []

    def _record(self, name, *args):
        self.events.append((name, args, self.vm.osr_entries,
                            self.vm.deoptless.retirements))

    def on_compile(self, method, result):
        self._record("on_compile", method, result)

    def on_osr_compile(self, method, bci, result):
        self._record("on_osr_compile", method, bci, result)

    def on_continuation_compile(self, method, bci, context, result):
        self._record("on_continuation_compile", method, bci, context,
                     result)

    def on_cache_hit(self, method, entry):
        self._record("on_cache_hit", method, entry)

    def on_deopt(self, method, state):
        self._record("on_deopt", method, state.bci)

    def on_invalidate(self, method, reason):
        self._record("on_invalidate", method, reason)

    def on_dispatch(self, method, bci, context, hit):
        self._record("on_dispatch", method, bci, hit)

    def names(self):
        return [name for name, *__ in self.events]


@pytest.fixture(params=PRODUCERS)
def producer(request):
    """``None`` for in-process compilation, else a live service."""
    if request.param == "in-process":
        yield None
        return
    service = CompileService(workers=2)
    service.start(("127.0.0.1", 0))
    try:
        yield service
    finally:
        service.shutdown()


def make_vm(kind, service, monkeypatch, cache=None):
    source, __, options, __ = SCENARIOS[kind]
    if kind in INVALIDATE_AFTER:
        monkeypatch.setattr(vm_module, "DEOPT_INVALIDATE_THRESHOLD",
                            INVALIDATE_AFTER[kind])
    program = compile_source(source)
    config = CompilerConfig.partial_escape(
        compile_service_wait=service is not None, **options)
    client = ServiceClient(service.address) if service is not None \
        else None
    vm = VM(program, config, cache=cache, service=client)
    return vm, program, vm.add_listener(Recorder(vm))


def drive(kind, vm):
    """Run the kind's calls; every result must match the interpreter."""
    source, entry, __, calls = SCENARIOS[kind]
    for args in calls:
        assert vm.call(entry, *args) == \
            Interpreter(compile_source(source)).call(entry, *args)


def assert_installs_well_formed(recorder, kind, compiles):
    """``on_cache_hit`` precedes exactly the installs served from the
    cache, each install fires one event of its kind, and there is one
    install per compilation."""
    installs = []
    events = recorder.events
    for index, (name, args, __, __) in enumerate(events):
        if name == "on_cache_hit":
            follower, follower_args, __, __ = events[index + 1]
            assert follower in INSTALL_EVENTS, \
                f"on_cache_hit followed by {follower}"
            assert follower_args[-1].cache_entry is args[1]
        if name in INSTALL_EVENTS:
            installs.append(INSTALL_EVENTS[name])
            result = args[-1]
            hit_before = index > 0 and events[index - 1][0] == \
                "on_cache_hit" and events[index - 1][1][1] is \
                result.cache_entry
            assert hit_before == result.cache_hit
    assert kind in installs and len(installs) == compiles


@pytest.mark.parametrize("kind", KINDS)
def test_install_events(kind, producer, tmp_path, monkeypatch):
    """Two VMs over one cache directory: the first compiles (through
    the service, every install is a cache hit on the reply), the
    second is served from the cache."""
    hits = []
    for round_ in range(2):
        cache = CompilationCache(cache_dir=str(tmp_path))
        vm, program, recorder = make_vm(kind, producer, monkeypatch,
                                        cache)
        drive(kind, vm)
        assert_installs_well_formed(recorder, kind,
                                    vm.compiler.compile_count)
        hits.append(recorder.names().count("on_cache_hit"))
        if producer is None and round_ == 0:
            assert hits[0] == 0, "a cold in-process VM hit the cache"
    assert hits[1] >= 1


@pytest.mark.parametrize("kind", KINDS)
def test_stale_code_retired_before_next_entry(kind, producer,
                                              monkeypatch):
    vm, program, recorder = make_vm(kind, producer, monkeypatch)
    drive(kind, vm)
    events = recorder.events
    names = recorder.names()
    if kind == "method":
        # A deopt past the invalidation threshold retires the method
        # entry; the next call recompiles before anything deopts again.
        after = names[names.index("on_invalidate") + 1:]
        assert "on_compile" in after and "on_deopt" not in after
        assert vm.exec_stats.deopts == 1 and vm.invalidations == 1
        rebuilt = [e for e in events if e[0] == "on_compile"][-1]
        assert vm.compiled[program.method("Main.pick")] is rebuilt[1][1]
    elif kind == "osr":
        # The deopt inside OSR'd code falsifies the loop's branch fact:
        # the next backedge retires the variant and rebuilds it before
        # entering OSR code again — one deopt, no deopt cycle.
        (deopt,) = [e for e in events if e[0] == "on_deopt"]
        compiles = [e for e in events if e[0] == "on_osr_compile"]
        assert len(compiles) == 2
        assert compiles[1][2] == deopt[2], \
            "stale OSR code was entered before its rebuild"
        assert vm.invalidations == 0
        assert list(osr_variants(vm).values()) == [compiles[1][1][2]]
    else:
        # The deopt at the second branch falsifies a fact of the
        # continuation at the first; the next dispatch there retires it
        # and compiles a fresh continuation before transferring.
        method = program.method("Main.step")
        dispatches = [e for e in events if e[0] == "on_dispatch"]
        assert [hit for (__, (__, __, hit), __, __) in dispatches] == \
            [True, True, True]
        first_bci = dispatches[0][1][1]
        compiles = [e for e in events
                    if e[0] == "on_continuation_compile"
                    and e[1][1] == first_bci]
        assert len(compiles) == 2
        stale, fresh = compiles[0][1][3], compiles[1][1][3]
        assert compiles[1][3] == 1, "rebuilt before the stale one retired"
        assert dispatches[2][3] == 1
        assert names.index("on_dispatch", events.index(compiles[1])) == \
            events.index(dispatches[2])
        installed = [variant.result
                     for variant in vm._variants[method].values()]
        assert fresh in installed and stale not in installed
        assert vm.deoptless.retirements == 1


@pytest.mark.parametrize("backend", ["codegen", "plan", "legacy"])
def test_backend_fallback_is_counted(backend, monkeypatch):
    """An install that cannot bind its backend's own lowering still
    runs (on the GraphInterpreter) and is counted; the legacy backend's
    own lowering is the GraphInterpreter."""
    from repro.runtime.codegen import CodegenError, CodegenPlan

    def refuse(self, *args, **kwargs):
        raise CodegenError("injected bind failure")

    monkeypatch.setattr(CodegenPlan, "bind", refuse)
    program = compile_source(METHOD_SOURCE)
    vm = VM(program, CompilerConfig.partial_escape(
        compile_threshold=3, execution_backend=backend))
    for _ in range(5):
        assert vm.call("Main.pick", 5) == 6
    assert program.method("Main.pick") in vm.compiled
    assert vm.backend_fallbacks == (1 if backend == "codegen" else 0)


def refuse_osr(monkeypatch):
    """Every compiler — the VM's and an in-process service's — fails
    OSR entries with a ``GraphBuildError``; returns the list of
    refused ``(method, bci)`` requests."""
    refused = []
    compile_ = Compiler.compile

    def compile(self, method, osr_bci=None):
        if isinstance(osr_bci, int):
            refused.append((method.qualified_name, osr_bci))
            raise GraphBuildError("injected: loop header not enterable")
        return compile_(self, method, osr_bci)

    monkeypatch.setattr(Compiler, "compile", compile)
    return refused


def test_osr_build_failure_is_recorded_once(producer, monkeypatch):
    """In-process or through the service, a loop header the graph
    builder refuses lands in the one failure table, keeps
    interpreting, and is never requested again."""
    refused = refuse_osr(monkeypatch)
    program = compile_source(LOOP_SOURCE)
    config = CompilerConfig.partial_escape(
        compile_threshold=10 ** 9,
        compile_service_wait=producer is not None)
    client = ServiceClient(producer.address) if producer is not None \
        else None
    vm = VM(program, config, service=client)
    for _ in range(3):
        assert vm.call("Main.run", 200) == sum(i * 3 for i in range(200))
    method = program.method("Main.run")
    [(__, bci)] = refused
    assert list(vm._failed) == [method]
    assert list(vm._failed[method]) == [bci]
    assert vm._failed[method][bci].startswith("GraphBuildError")
    assert not vm._variants.get(method)
    assert vm.osr_entries == 0


def test_harness_replays_a_failed_osr_entry(producer, monkeypatch,
                                            tmp_path):
    """The warm-up record lists the refused loop header, and the warm
    run, whose replayed iteration runs the method compiled, re-fails
    it in its replay before certifying."""
    refused = refuse_osr(monkeypatch)
    workload = Workload("loop", "dacapo", LOOP_SOURCE, entry="Main.run",
                        iteration_size=200, warmup_iterations=6,
                        measure_iterations=2)
    config = CompilerConfig.partial_escape(
        compile_threshold=3,
        compile_service=producer.address if producer else None,
        compile_service_wait=producer is not None)
    cold = run_workload(workload, config,
                        cache=CompilationCache(str(tmp_path)))
    assert len(refused) == 1 and cold.warmup_iterations_elided == 0
    warm = run_workload(workload, config,
                        cache=CompilationCache(str(tmp_path)))
    assert warm == cold and warm.warmup_iterations_elided == 5
    assert len(refused) == 2 and refused[1] == refused[0]
