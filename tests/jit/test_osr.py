"""On-stack replacement: hot loops tier up mid-method.

Covers the second tiering axis (backedge counters next to invocation
counters): transfer on both execution backends, the threshold boundary,
PEA + deoptimization from inside OSR code, the entry-bci cache-key
dimension, and the shapes that must *not* OSR."""

import pytest

from repro.jit import (CompilationCache, CompilerConfig, VM, VMListener)
from repro.jit.cache import CompilationCache as Cache

from vm_harness import compile_source, osr_variants, run_interpreted

HOT_LOOP_SOURCE = """
    class Main {
        static int run(int n) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                acc = acc + i * 3 - (i & 7);
            }
            return acc;
        }
    }
"""

#: Hot loop allocating a per-iteration temporary that escapes on one
#: "impossible" iteration — impossible as far as the mid-loop OSR
#: profile is concerned, so the compiler speculates the branch away and
#: PEA scalar-replaces the Pair.  Iteration 900 then fails the guard
#: *inside the OSR'd loop* and the Pair must be rematerialized.
ESCAPE_LOOP_SOURCE = """
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
        static int check() {
            if (sink == null) { return -1; }
            return sink.a * 100000 + sink.b;
        }
    }
"""

SYNCHRONIZED_SOURCE = """
    class Main {
        static int counter;
        static synchronized int run(int n) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                counter = counter + 1;
                acc = acc + counter;
            }
            return acc;
        }
    }
"""

BACKENDS = ["legacy", "plan"]


def fresh_vm(source, backend="plan", osr_threshold=60, cache=None,
             **kwargs):
    program = compile_source(source)
    config = CompilerConfig.partial_escape(
        osr_threshold=osr_threshold, execution_backend=backend, **kwargs)
    return VM(program, config, cache=cache), program


class Recorder(VMListener):
    def __init__(self):
        self.osr_compiles = []
        self.deopts = []

    def on_osr_compile(self, method, bci, result):
        self.osr_compiles.append((method.qualified_name, bci))

    def on_deopt(self, method, state):
        self.deopts.append((method.qualified_name, state.bci))


@pytest.mark.parametrize("backend", BACKENDS)
def test_hot_loop_in_cold_method_tiers_up_mid_call(backend):
    """One single invocation — far below the invocation threshold — of
    a method whose loop exceeds the backedge threshold must transfer to
    compiled code mid-call, without a normal-entry compilation."""
    n = 5_000
    vm, _ = fresh_vm(HOT_LOOP_SOURCE, backend=backend)
    listener = Recorder()
    vm.add_listener(listener)
    expected = run_interpreted(HOT_LOOP_SOURCE, "Main.run", (n,)).result
    assert vm.call("Main.run", n) == expected
    assert vm.osr_entries == 1
    assert len(osr_variants(vm)) == 1
    assert not vm.compiled, "invocation count 1 must not compile entry"
    assert listener.osr_compiles == [
        ("Main.run", bci) for (__, bci) in osr_variants(vm)]


def test_osr_threshold_boundary():
    """The loop OSRs on the backedge that reaches the threshold: a trip
    count of exactly ``osr_threshold`` transfers, one less does not."""
    threshold = 60
    for n, entries in ((threshold - 1, 0), (threshold, 1)):
        vm, _ = fresh_vm(HOT_LOOP_SOURCE, osr_threshold=threshold)
        vm.call("Main.run", n)
        assert vm.osr_entries == entries, f"trip count {n}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_deopt_inside_osr_loop_rematerializes(backend):
    """The OSR profile has never seen the escape branch, so the guard
    that replaces it fails mid-loop in OSR'd code: the scalar-replaced
    Pair is rematerialized with the right field values and execution
    resumes in the interpreter without disturbing the result."""
    n = 2_000
    vm, _ = fresh_vm(ESCAPE_LOOP_SOURCE, backend=backend)
    listener = Recorder()
    vm.add_listener(listener)
    interp = run_interpreted(ESCAPE_LOOP_SOURCE, "Main.run", (n,))
    assert vm.call("Main.run", n) == interp.result
    assert vm.osr_entries >= 1
    # The rematerialized Pair reached the static field intact.
    assert vm.call("Main.check") == 900 * 100000 + 2700
    if listener.deopts:
        assert vm.exec_stats.deopts == len(listener.deopts)


def test_osr_and_entry_variants_do_not_collide(tmp_path):
    """An OSR graph enters at a loop header with the loop's live locals
    as parameters — reusing it for a normal call (or vice versa) would
    be catastrophic.  The cache keys them apart via ``entry_bci``."""
    cache = CompilationCache(cache_dir=str(tmp_path))
    vm, program = fresh_vm(HOT_LOOP_SOURCE, cache=cache)
    method = program.method("Main.run")

    # Key inequality is structural, not incidental.
    normal_key = Cache.compilation_key(program, method, vm.config, True,
                                       entry_bci=None)
    assert len({normal_key} | {
        Cache.compilation_key(program, method, vm.config, True,
                              entry_bci=bci)
        for bci in (0, 3, 17)}) == 4

    # Populate the cache with the OSR variant only ...
    vm.call("Main.run", 2_000)
    [(_, osr_bci)] = list(osr_variants(vm))
    osr_key = vm.compiler.key(method, osr_bci)
    assert cache.lookup(osr_key, program, vm.profile) is not None
    # ... and the normal-entry lookup must still miss.
    entry_key = vm.compiler.key(method)
    assert cache.lookup(entry_key, program, vm.profile) is None


def test_warm_vm_reuses_cached_osr_variant(tmp_path):
    """A second VM over the same cache directory gets the OSR graph
    from the cache instead of recompiling it."""
    cache_dir = str(tmp_path)
    results = []
    for round_ in range(2):
        vm, _ = fresh_vm(HOT_LOOP_SOURCE,
                         cache=CompilationCache(cache_dir=cache_dir))
        results.append(vm.call("Main.run", 5_000))
        assert vm.osr_entries == 1
        hits = vm.cache.stats.hits
        assert (hits > 0) == (round_ == 1)
    assert results[0] == results[1]


def test_synchronized_method_never_osr():
    """OSR entry would re-acquire the monitor the interpreter already
    holds; synchronized methods stay on the first tier until the
    invocation counter promotes them whole."""
    vm, _ = fresh_vm(SYNCHRONIZED_SOURCE, compile_threshold=10_000)
    expected = run_interpreted(SYNCHRONIZED_SOURCE, "Main.run",
                               (500,)).result
    assert vm.call("Main.run", 500) == expected
    assert vm.osr_entries == 0
    assert not osr_variants(vm)


@pytest.mark.parametrize("backend", BACKENDS)
def test_stale_osr_variant_does_not_deopt_cycle(backend):
    """Regression: after a deopt inside OSR'd loop code, the stale OSR
    variant must not be re-entered verbatim on the very next backedge.
    It used to be: re-enter, guard fails on the next iteration, deopt,
    repeat — a remat+deopt cycle per iteration until the invalidate
    threshold tripped.  Now the variant is re-validated against the
    live profile (which just recorded the falsifying branch), retired,
    and rebuilt unspeculated on the same backedge — so the whole run
    costs exactly one deopt and no invalidation."""
    vm, _ = fresh_vm(ESCAPE_LOOP_SOURCE, backend=backend)
    listener = Recorder()
    vm.add_listener(listener)
    interp = run_interpreted(ESCAPE_LOOP_SOURCE, "Main.run", (2_000,))
    assert vm.call("Main.run", 2_000) == interp.result
    assert vm.exec_stats.deopts == 1
    assert vm.invalidations == 0
    # Original speculated variant + the post-deopt unspeculated rebuild.
    assert len(listener.osr_compiles) == 2
    # The retired variant is gone; the rebuilt one is installed.
    assert len(osr_variants(vm)) == 1


def test_invalidation_drops_osr_variants():
    """Deopt-triggered invalidation of a method discards its OSR
    variants along with the normal-entry code."""
    vm, program = fresh_vm(ESCAPE_LOOP_SOURCE)
    vm.call("Main.run", 2_000)
    method = program.method("Main.run")
    assert any(m is method for (m, __) in osr_variants(vm))
    vm._invalidate(method, "test")
    assert not any(m is method for (m, __) in osr_variants(vm))
