"""Deoptless: dispatched OSR with specialized continuations.

A falsified speculation normally bridges through the interpreter and
eventually invalidates — the deopt latency cliff.  With
``config.deoptless`` the deopt becomes a dispatch point: the VM derives
a context from the observed failing state, compiles a continuation
entering at the deopt bci specialized against it, and later deopts at
the same site transfer straight into a matching variant.  Covers:
continuation-entry rematerialization (including cyclic virtual pairs),
dispatch hit vs miss on all three execution backends, the per-site
variant cap with LRU retirement, the cross-process cache round-trip of
context-keyed variants, and background tier-up through the compile
service."""

import pytest

from repro.bytecode import Interpreter
from repro.jit import VM, CompilationCache, CompilerConfig, VMListener
from repro.jit import vm as vm_module
from repro.jit.deoptless import is_continuation_entry

from vm_harness import compile_source

#: Branch-flip shape: the phase check sits *before* the loop, so its
#: deopt site is straight-line code a continuation can enter.
FLIP_SOURCE = """
    class Main {
        static int step(int phase, int n) {
            int acc = 0;
            if (phase == 1) { acc = 7; } else { acc = 3; }
            for (int i = 0; i < n; i = i + 1) {
                acc = (acc * 31 + i) & 1048575;
            }
            return acc;
        }
    }
"""

#: The guard lives *inside* the hot loop: its continuation would need a
#: backedge into an unmaterialized loop header, so the graph builder
#: declines and the site keeps plain deopt-to-interpreter semantics.
MIDLOOP_SOURCE = """
    class Main {
        static int run(int flip, int n) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                if (flip == 1) { acc = acc + i * 3; }
                else { acc = acc + i; }
            }
            return acc;
        }
    }
"""

#: Two mutually-linked scalar-replaced objects alive across the guard:
#: the dispatch must rematerialize the cycle before the continuation
#: entry consumes it (and the continuation publishes it to a static).
CYCLE_SOURCE = """
    class Node { int v; Node link; }
    class Main {
        static Node sink;
        static int run(int flip, int a, int b) {
            Node x = new Node();
            Node y = new Node();
            x.v = a;
            y.v = b;
            x.link = y;
            y.link = x;
            int acc = 0;
            if (flip == 1) { sink = x; acc = 100; }
            return acc + x.v * 10 + y.link.v;
        }
        static int check() {
            if (sink == null) { return -1; }
            int cyclic = 0;
            if (sink.link.link == sink) { cyclic = 1; }
            return sink.v * 1000 + sink.link.v * 10 + cyclic;
        }
    }
"""

#: Receiver rotation: each unseen class is a new dispatch context, so
#: the per-site variant table fills up and must retire by LRU.
MEGA_SOURCE = """
    class Shape { int weight() { return 1; } }
    class C1 extends Shape { int weight() { return 3; } }
    class C2 extends Shape { int weight() { return 5; } }
    class C3 extends Shape { int weight() { return 7; } }
    class C4 extends Shape { int weight() { return 11; } }
    class Main {
        static int run(Shape s, int n) {
            int acc = s.weight();
            for (int i = 0; i < n; i = i + 1) {
                acc = (acc * 31 + i) & 1048575;
            }
            return acc;
        }
    }
"""

BACKENDS = ["legacy", "plan", "codegen"]


@pytest.fixture(autouse=True)
def no_invalidation(monkeypatch):
    """Invalidation stays out of the way: the dispatch behavior under
    test is the pre-invalidation transition window."""
    monkeypatch.setattr(vm_module, "DEOPT_INVALIDATE_THRESHOLD", 100)


def fresh_vm(source, backend="plan", cache=None, service=None, **kwargs):
    """A deoptless VM tuned so speculation forms during a short
    warm-up."""
    program = compile_source(source)
    kwargs.setdefault("compile_threshold", 5)
    kwargs.setdefault("speculation_min_samples", 3)
    kwargs.setdefault("osr_threshold", 100_000)
    config = CompilerConfig.partial_escape(
        deoptless=True, execution_backend=backend, **kwargs)
    return VM(program, config, cache=cache, service=service), program


class Recorder(VMListener):
    def __init__(self):
        self.continuations = []
        self.dispatches = []
        self.cache_hits = []

    def on_continuation_compile(self, method, bci, context, result):
        self.continuations.append((method.qualified_name, bci, context))

    def on_dispatch(self, method, bci, context, hit):
        self.dispatches.append((method.qualified_name, bci, context,
                                hit))

    def on_cache_hit(self, method, entry):
        self.cache_hits.append(entry)


def interp_result(source, entry, *args):
    return Interpreter(compile_source(source)).call(entry, *args)


@pytest.mark.parametrize("backend", BACKENDS)
def test_dispatch_hit_after_branch_flip(backend):
    """First flipped call: the deopt derives a branch context, compiles
    a continuation on the miss, and transfers into it — one dispatch,
    one continuation compile, no interpreter bridge."""
    vm, _ = fresh_vm(FLIP_SOURCE, backend=backend)
    listener = Recorder()
    vm.add_listener(listener)
    expected_warm = interp_result(FLIP_SOURCE, "Main.step", 0, 40)
    expected_flip = interp_result(FLIP_SOURCE, "Main.step", 1, 40)
    for _ in range(8):
        assert vm.call("Main.step", 0, 40) == expected_warm
    assert vm.exec_stats.deopts == 0, "warm-up must not deopt"

    assert vm.call("Main.step", 1, 40) == expected_flip
    assert vm.exec_stats.deopts == 1
    assert vm.deoptless.dispatches == 1
    assert vm.deoptless.continuation_compiles == 1
    assert vm.deoptless.dispatch_misses == 0
    [(name, bci, context)] = listener.continuations
    assert name == "Main.step"
    # The flipped call falsified the speculation, so the observed
    # direction is the *opposite* of the trained one — which concrete
    # boolean that is depends on the branch encoding.
    assert context[0] == "branch" and context[1] == bci
    assert listener.dispatches == [("Main.step", bci, context, True)]

    # Later flips keep dispatching into (re)validated variants.
    for _ in range(3):
        assert vm.call("Main.step", 1, 40) == expected_flip
    assert vm.deoptless.dispatches == 4
    assert all(hit for (*_, hit) in listener.dispatches)


@pytest.mark.parametrize("backend", BACKENDS)
def test_midloop_deopt_site_misses_and_bridges(backend):
    """A deopt site inside a hot loop cannot host a continuation entry
    (its backedge would target an unmaterialized header): the dispatch
    misses, the site is recorded uncompilable, and execution falls back
    to the plain interpreter bridge with the right result."""
    vm, program = fresh_vm(MIDLOOP_SOURCE, backend=backend)
    listener = Recorder()
    vm.add_listener(listener)
    expected_warm = interp_result(MIDLOOP_SOURCE, "Main.run", 0, 50)
    expected_flip = interp_result(MIDLOOP_SOURCE, "Main.run", 1, 50)
    for _ in range(8):
        assert vm.call("Main.run", 0, 50) == expected_warm
    assert vm.call("Main.run", 1, 50) == expected_flip
    assert vm.exec_stats.deopts >= 1
    assert vm.deoptless.dispatches == 0
    assert vm.deoptless.dispatch_misses >= 1
    assert not listener.continuations
    assert listener.dispatches and \
        not any(hit for (*_, hit) in listener.dispatches)
    method = program.method("Main.run")
    assert any(is_continuation_entry(entry)
               for entry in vm._failed.get(method, ()))


@pytest.mark.parametrize("backend", BACKENDS)
def test_cyclic_virtual_pair_rematerializes_at_entry(backend):
    """The guard's frame state holds two scalar-replaced objects linked
    in a cycle; the dispatched continuation receives the rematerialized
    pair, publishes one to a static, and the cycle survives intact."""
    vm, _ = fresh_vm(CYCLE_SOURCE, backend=backend)
    expected_warm = interp_result(CYCLE_SOURCE, "Main.run", 0, 5, 9)
    for _ in range(8):
        assert vm.call("Main.run", 0, 5, 9) == expected_warm
    assert vm.exec_stats.deopts == 0
    # Compiled warm calls never materialize Node: a post-warm-up call
    # allocates nothing (both nodes stay scalar-replaced).
    before = vm.heap_snapshot()
    assert vm.call("Main.run", 0, 5, 9) == expected_warm
    assert vm.heap_snapshot().delta(before).allocations == 0

    assert vm.call("Main.run", 1, 5, 9) == \
        interp_result(CYCLE_SOURCE, "Main.run", 1, 5, 9)
    assert vm.deoptless.dispatches == 1
    # sink.v == 5, sink.link.v == 9, and sink.link.link is sink again.
    assert vm.call("Main.check") == 5 * 1000 + 9 * 10 + 1


def test_variant_cap_retires_lru(monkeypatch):
    """Rotating receivers mint one variant per unseen class; with the
    cap at two, the least recently dispatched variant is retired and
    the site never holds more than the cap."""
    monkeypatch.setattr(vm_module, "DEOPTLESS_MAX_VARIANTS", 2)
    vm, program = fresh_vm(MEGA_SOURCE)
    listener = Recorder()
    vm.add_listener(listener)

    iprog = compile_source(MEGA_SOURCE)
    interp = Interpreter(iprog)
    expected = {name: interp.call("Main.run",
                                  interp.heap.new_instance(name), 40)
                for name in ("C1", "C2", "C3", "C4")}

    shapes = {name: vm.heap.new_instance(name)
              for name in ("C1", "C2", "C3", "C4")}
    for _ in range(8):  # monomorphic warm-up: speculate receiver C1
        assert vm.call("Main.run", shapes["C1"], 40) == expected["C1"]
    for _ in range(3):  # three distinct falsifying contexts, twice over
        for name in ("C2", "C3", "C4"):
            assert vm.call("Main.run", shapes[name], 40) == \
                expected[name]

    contexts = {ctx for (__, __, ctx) in listener.continuations}
    assert {cls for (kind, __, cls) in contexts
            if kind == "receiver"} >= {"C2", "C3", "C4"}
    assert vm.deoptless.retirements >= 1
    method = program.method("Main.run")
    sites = {bci for (__, bci, __) in listener.continuations}
    for bci in sites:
        assert vm._variants.site_count(method, bci) <= 2
    assert vm.deoptless.dispatches >= 3


def test_continuation_round_trips_through_shared_cache(tmp_path):
    """A second VM over the same cache directory (a fresh in-memory
    cache, so every entry comes off disk) serves the context-keyed
    continuation from the cache instead of recompiling it."""
    cache_dir = str(tmp_path)
    for round_ in range(2):
        vm, _ = fresh_vm(FLIP_SOURCE,
                         cache=CompilationCache(cache_dir=cache_dir))
        listener = Recorder()
        vm.add_listener(listener)
        for _ in range(8):
            vm.call("Main.step", 0, 40)
        assert vm.call("Main.step", 1, 40) == \
            interp_result(FLIP_SOURCE, "Main.step", 1, 40)
        assert vm.deoptless.dispatches == 1
        assert vm.deoptless.continuation_compiles == 1
        continuation_hits = [
            e for e in listener.cache_hits
            if is_continuation_entry(e.meta.get("entry_bci"))]
        if round_ == 0:
            assert not continuation_hits
            assert vm.cache.stats.continuation_stores == 1
        else:
            assert len(continuation_hits) == 1


def test_background_service_misses_then_dispatches():
    """Through the compile service without blocking, the first flip's
    dispatch misses (the request is in flight; the interpreter bridges
    it) and a later flip dispatches into the installed reply."""
    from repro.jit.client import ServiceClient
    from repro.jit.server import CompileService
    service = CompileService(workers=2)
    service.start(("127.0.0.1", 0))
    try:
        vm, _ = fresh_vm(FLIP_SOURCE,
                         service=ServiceClient(service.address),
                         compile_service_wait=False)
        expected_warm = interp_result(FLIP_SOURCE, "Main.step", 0, 40)
        expected_flip = interp_result(FLIP_SOURCE, "Main.step", 1, 40)
        for _ in range(8):
            assert vm.call("Main.step", 0, 40) == expected_warm
        vm.finish_pending_compiles()
        assert vm.call("Main.step", 1, 40) == expected_flip
        assert vm.deoptless.dispatch_misses >= 1
        vm.finish_pending_compiles()
        for _ in range(3):
            assert vm.call("Main.step", 1, 40) == expected_flip
        assert vm.deoptless.dispatches >= 1
        assert vm.service_fallbacks == 0
        stats = service.stats.snapshot()
        assert stats["continuation_requests"] >= 1
    finally:
        service.shutdown()


def test_blocking_service_dispatches_first_flip():
    """With ``compile_service_wait`` the reply is awaited at the miss,
    so even the first flip transfers into the service-compiled
    continuation — call-for-call identical to in-process compilation."""
    from repro.jit.client import ServiceClient
    from repro.jit.server import CompileService
    service = CompileService(workers=2)
    service.start(("127.0.0.1", 0))
    try:
        vm, _ = fresh_vm(FLIP_SOURCE,
                         service=ServiceClient(service.address),
                         compile_service_wait=True)
        for _ in range(8):
            vm.call("Main.step", 0, 40)
        assert vm.call("Main.step", 1, 40) == \
            interp_result(FLIP_SOURCE, "Main.step", 1, 40)
        assert vm.deoptless.dispatches == 1
        assert vm.deoptless.dispatch_misses == 0
        assert service.stats.snapshot()["continuation_requests"] >= 1
    finally:
        service.shutdown()
