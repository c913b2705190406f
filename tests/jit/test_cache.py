"""The content-addressed compilation cache: sharing, key sensitivity,
speculation-fact validation, deopt eviction, disk persistence, and
warm-up elision in the benchmark harness."""

import copy
import glob
import os

import pytest

from repro.benchsuite import by_name
from repro.benchsuite.harness import run_workload
from repro.jit import VM, CompilationCache, CompilerConfig
from repro.jit import vm as vm_module
from repro.verify.fuzz import replay_corpus_entry

from vm_harness import compile_source

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.jasm")))

LOOP_SOURCE = """
    class Point { int x; int y; }
    class Main {
        static int iterate(int n) {
            int total = 0;
            for (int i = 0; i < n; i = i + 1) {
                Point p = new Point();
                p.x = i;
                p.y = i + 1;
                total = total + p.x + p.y;
            }
            return total;
        }
    }
"""

BRANCHY_SOURCE = """
    class Main {
        static int pick(int x) {
            if (x < 100) { return x + 1; }
            return x - 1;
        }
        static int run(int lo, int n) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                acc = acc + pick(lo + i);
            }
            return acc;
        }
    }
"""

ESCAPE_SOURCE = """
    class Box { int v; }
    class Main {
        static Box sink;
        static int work(int i) {
            Box box = new Box();
            box.v = i * 3;
            if (i == 31337) {
                sink = box;
                return box.v + 1;
            }
            return box.v;
        }
        static int run(int from, int n) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                acc = acc + work(from + i);
            }
            return acc;
        }
    }
"""


def run_vm(source, cache=None, calls=30, backend="legacy"):
    program = compile_source(source)
    config = CompilerConfig.partial_escape(compile_threshold=3,
                                           execution_backend=backend)
    vm = VM(program, config, cache=cache)
    for _ in range(calls):
        vm.call("Main.iterate", 40)
        program.reset_statics()
    before = vm.cycles_snapshot()
    result = vm.call("Main.iterate", 40)
    return vm, result, vm.cycles_snapshot() - before


# -- sharing across VMs --------------------------------------------------------


@pytest.mark.parametrize("backend", ["legacy", "plan", "codegen"])
def test_shared_cache_preserves_metrics(backend):
    cache = CompilationCache()
    _, cold_result, cold_cycles = run_vm(LOOP_SOURCE, backend=backend)
    vm1, r1, c1 = run_vm(LOOP_SOURCE, cache=cache, backend=backend)
    vm2, r2, c2 = run_vm(LOOP_SOURCE, cache=cache, backend=backend)
    assert r1 == r2 == cold_result
    assert c1 == c2 == cold_cycles
    assert cache.stats.stores >= 1
    # The second VM compiled nothing from scratch.
    assert vm2.compiler.compile_count == vm2.compiler.cache_hit_count
    assert cache.stats.hits >= vm2.compiler.cache_hit_count > 0


def test_legacy_and_plan_share_one_cache():
    """The pipeline fingerprint excludes the execution backend, so both
    VM engines hit the same entries (the plan backend just rebuilds its
    threaded plan from the cached linearization)."""
    cache = CompilationCache()
    _, r1, c_legacy = run_vm(LOOP_SOURCE, cache=cache, backend="legacy")
    misses_before = cache.stats.misses
    vm2, r2, c_plan = run_vm(LOOP_SOURCE, cache=cache, backend="plan")
    assert r1 == r2
    assert cache.stats.misses == misses_before
    assert vm2.compiler.cache_hit_count == vm2.compiler.compile_count > 0


# -- key sensitivity -----------------------------------------------------------


def test_key_changes_with_pipeline_config():
    program = compile_source(LOOP_SOURCE)
    method = program.method("Main.iterate")
    key = CompilationCache.compilation_key(
        program, method, CompilerConfig.partial_escape(), True)
    for changed in (CompilerConfig.partial_escape(inline=False),
                    CompilerConfig.partial_escape(pea_iterations=1),
                    CompilerConfig.partial_escape(
                        speculation_min_samples=10 ** 6),
                    CompilerConfig.no_ea()):
        assert CompilationCache.compilation_key(
            program, method, changed, True) != key
    # Backend and tier thresholds are execution details, not pipeline
    # inputs: they share the key.
    for same in (CompilerConfig.partial_escape(execution_backend="plan"),
                 CompilerConfig.partial_escape(compile_threshold=999)):
        assert CompilationCache.compilation_key(
            program, method, same, True) == key
    # Profiled and profile-free compilations never share entries.
    assert CompilationCache.compilation_key(
        program, method, CompilerConfig.partial_escape(), False) != key


def test_key_changes_with_bytecode():
    program = compile_source(LOOP_SOURCE)
    other = compile_source(LOOP_SOURCE.replace("i + 1", "i + 2"))
    config = CompilerConfig.partial_escape()
    assert (CompilationCache.compilation_key(
                program, program.method("Main.iterate"), config, True)
            != CompilationCache.compilation_key(
                other, other.method("Main.iterate"), config, True))


def test_changed_branch_profile_invalidates_entry():
    """A VM whose profile decides a speculated branch differently must
    not import the other VM's speculative graph."""
    cache = CompilationCache()
    # Methods must out-invoke speculation_min_samples before compiling,
    # else the branch decision is still None and both profiles agree.
    config = CompilerConfig.partial_escape(compile_threshold=20,
                                           speculation_min_samples=16)

    program_a = compile_source(BRANCHY_SOURCE)
    vm_a = VM(program_a, config, cache=cache)
    for _ in range(30):
        vm_a.call("Main.run", 0, 50)  # x < 100 always true
    assert cache.stats.stores >= 1
    assert vm_a.call("Main.pick", 7) == 8

    failures_before = cache.stats.validation_failures
    program_b = compile_source(BRANCHY_SOURCE)
    vm_b = VM(program_b, config, cache=cache)
    for _ in range(30):
        vm_b.call("Main.run", 60, 80)  # branch goes both ways
    assert vm_b.call("Main.pick", 7) == 8
    assert vm_b.call("Main.pick", 150) == 149
    assert cache.stats.validation_failures > failures_before

    # A third VM replaying profile A's behaviour still hits A's entries.
    program_c = compile_source(BRANCHY_SOURCE)
    vm_c = VM(program_c, config, cache=cache)
    for _ in range(30):
        vm_c.call("Main.run", 0, 50)
    assert vm_c.compiler.cache_hit_count > 0


# -- deopt invalidation --------------------------------------------------------


def test_deopt_invalidation_evicts_and_recompiles(monkeypatch):
    monkeypatch.setattr(vm_module, "DEOPT_INVALIDATE_THRESHOLD", 2)
    cache = CompilationCache()
    program = compile_source(ESCAPE_SOURCE)
    vm = VM(program, CompilerConfig.partial_escape(), cache=cache)
    for _ in range(30):
        vm.call("Main.run", 0, 40)
        program.reset_statics()
    stores_cold = cache.stats.stores
    assert stores_cold >= 1 and cache.stats.evictions == 0

    # Drive the cold path until the speculative code is invalidated.
    for _ in range(10):
        vm.call("Main.run", 31330, 10)
        program.reset_statics()
    assert vm.invalidations >= 1
    assert cache.stats.evictions >= 1
    # The invalidated method recompiled against the updated profile and
    # the new (non-speculative) graph was stored as a fresh variant.
    assert cache.stats.stores > stores_cold
    assert vm.call("Main.run", 31330, 10) == \
        sum(i * 3 + (1 if i == 31337 else 0) for i in range(31330, 31340))


# -- disk persistence ----------------------------------------------------------


def test_disk_round_trip(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cache_a = CompilationCache(cache_dir)
    _, r1, c1 = run_vm(LOOP_SOURCE, cache=cache_a)
    assert cache_a.stats.disk_writes >= 1

    # A fresh cache instance (a new process, in effect) starts warm.
    cache_b = CompilationCache(cache_dir)
    vm_b, r2, c2 = run_vm(LOOP_SOURCE, cache=cache_b)
    assert (r1, c1) == (r2, c2)
    assert cache_b.stats.disk_hits >= 1
    assert vm_b.compiler.cache_hit_count == vm_b.compiler.compile_count


def test_corrupt_disk_entry_is_ignored(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = CompilationCache(cache_dir)
    _, r1, c1 = run_vm(LOOP_SOURCE, cache=cold)
    assert cold.stats.dropped == 0  # a missing file is a plain miss
    paths = glob.glob(os.path.join(cache_dir, "graphs", "*", "*.pkl"))
    assert paths
    for path in paths:
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
    cache = CompilationCache(cache_dir)
    vm, r2, c2 = run_vm(LOOP_SOURCE, cache=cache)
    assert (r1, c1) == (r2, c2)
    assert vm.compiler.cache_hit_count == 0
    # Every corrupted file was read once, and counted.
    assert cache.stats.dropped == len(paths)


# -- codegen payloads ----------------------------------------------------------


def test_codegen_shares_cache_with_plan():
    """The pipeline fingerprint excludes the execution backend: in
    either store order, the second VM hits every entry the first one
    stored and lowers the other backend's entry for its own."""
    for first, second in (("codegen", "plan"), ("plan", "codegen")):
        cache = CompilationCache()
        _, r1, __ = run_vm(LOOP_SOURCE, cache=cache, backend=first)
        misses_before = cache.stats.misses
        vm2, r2, __ = run_vm(LOOP_SOURCE, cache=cache, backend=second)
        assert r1 == r2
        assert cache.stats.misses == misses_before
        assert vm2.compiler.cache_hit_count == \
            vm2.compiler.compile_count > 0
        assert vm2.backend_fallbacks == 0
        for result in vm2.compiled.values():
            assert getattr(result, second) is not None


def test_codegen_disk_round_trip_reexecs_source(tmp_path):
    """Warm loads skip the emission pass: the persisted source is
    digest-checked, re-``exec``-ed, and behaves identically."""
    cache_dir = str(tmp_path / "cache")
    vm_a, r1, c1 = run_vm(LOOP_SOURCE,
                          cache=CompilationCache(cache_dir),
                          backend="codegen")
    digests_cold = {m.qualified_name: result.codegen.digest
                    for m, result in vm_a.compiled.items()
                    if result.codegen is not None}
    assert digests_cold

    cache_b = CompilationCache(cache_dir)
    vm_b, r2, c2 = run_vm(LOOP_SOURCE, cache=cache_b, backend="codegen")
    assert (r1, c1) == (r2, c2)
    assert cache_b.stats.disk_hits >= 1
    assert vm_b.compiler.cache_hit_count == vm_b.compiler.compile_count
    digests_warm = {m.qualified_name: result.codegen.digest
                    for m, result in vm_b.compiled.items()
                    if result.codegen is not None}
    assert digests_warm == digests_cold
    assert vm_b.backend_fallbacks == 0, \
        "warm load did not re-exec the source"


def _compiled_codegen(backend="codegen"):
    program = compile_source(LOOP_SOURCE)
    config = CompilerConfig.partial_escape(compile_threshold=3,
                                           execution_backend=backend)
    vm = VM(program, config, cache=None)
    for _ in range(10):
        vm.call("Main.iterate", 40)
        program.reset_statics()
    return program, config, vm.compiled[program.method("Main.iterate")]


def test_codegen_payload_digest_guard():
    """Tampered source or unresolvable node ids must raise, never
    silently execute the wrong code."""
    from repro.runtime.codegen import CodegenError, CodegenPlan
    program, config, result = _compiled_codegen()
    payload = result.codegen.payload()
    rebuilt = CodegenPlan.from_payload(result.graph, program,
                                       config.cost_model, payload)
    assert rebuilt.digest == result.codegen.digest
    assert rebuilt.source == result.codegen.source

    tampered = dict(payload)
    tampered["source"] = payload["source"] + "\n# tampered"
    with pytest.raises(CodegenError):
        CodegenPlan.from_payload(result.graph, program,
                                 config.cost_model, tampered)

    stale = dict(payload)
    stale["deopt_states"] = [10 ** 9]  # node id not in the graph
    with pytest.raises(CodegenError):
        CodegenPlan.from_payload(result.graph, program,
                                 config.cost_model, stale)


def test_corrupt_codegen_payload_regenerates():
    """The compiler treats a bad payload as a clean miss and emits
    fresh source from the cached graph."""
    program, config, result = _compiled_codegen()
    tampered = dict(result.codegen.payload())
    tampered["digest"] = "0" * 64
    vm = VM(program, config)
    regenerated, __ = vm.compiler._lower(
        result.graph, program.method("Main.iterate"), None,
        ("codegen", tampered))
    assert regenerated is not None
    assert regenerated.digest == result.codegen.digest


# -- corpus replay under a shared cache ----------------------------------------


@pytest.mark.parametrize("jasm_path", CORPUS_FILES,
                         ids=[os.path.basename(p)[:-len(".jasm")]
                              for p in CORPUS_FILES])
def test_corpus_replays_clean_with_shared_cache(jasm_path):
    """Every persisted reproducer behaves identically on all three
    engines whether or not legacy and plan share a compilation cache."""
    assert replay_corpus_entry(jasm_path) is None
    cache = CompilationCache()
    assert replay_corpus_entry(jasm_path, cache=cache) is None
    assert cache.stats.hits > 0


# -- benchmark harness ---------------------------------------------------------


def quick_workload():
    workload = copy.copy(by_name("fop"))
    workload.warmup_iterations = 12
    workload.measure_iterations = 2
    return workload


@pytest.mark.parametrize("backend", ["legacy", "plan", "codegen"])
def test_workload_measurement_identical_cache_on_off(backend):
    workload = quick_workload()
    config = CompilerConfig.partial_escape(execution_backend=backend)
    baseline = run_workload(workload, config)
    cached = run_workload(workload, config, cache=CompilationCache())
    # Measurement equality ignores wall-clock/observability fields, so
    # this compares exactly the Table-1 metrics.
    assert cached == baseline


def test_harness_warm_run_elides_warmup(tmp_path):
    workload = quick_workload()
    config = CompilerConfig.partial_escape()
    cache_dir = str(tmp_path / "cache")
    cold = run_workload(workload, config,
                        cache=CompilationCache(cache_dir))
    assert cold.warmup_iterations_elided == 0
    warm = run_workload(workload, config,
                        cache=CompilationCache(cache_dir))
    assert warm == cold
    assert warm.warmup_iterations_elided > 0
    assert warm.warmup_iterations_run < cold.warmup_iterations_run


class SealedEntry:
    """A stored cache entry that refuses to hand out its payload
    bytes."""

    def __init__(self, entry):
        self.key, self.facts, self.meta = entry.key, entry.facts, entry.meta

    @property
    def blob(self):
        raise AssertionError("payload bytes read")


def test_certification_reads_no_payload_bytes(tmp_path, monkeypatch):
    """A warm-up record identifies installed code by cache key and
    speculation facts: a cold run whose stored entries raise when their
    bytes are read still records, and the warm run elides."""
    store = CompilationCache.store

    def sealed_store(self, *args, **kwargs):
        entry = store(self, *args, **kwargs)
        return entry and SealedEntry(entry)

    workload = quick_workload()
    config = CompilerConfig.partial_escape()
    cache_dir = str(tmp_path / "cache")
    with monkeypatch.context() as patch:
        patch.setattr(CompilationCache, "store", sealed_store)
        cold = run_workload(workload, config,
                            cache=CompilationCache(cache_dir))
    warm = run_workload(workload, config,
                        cache=CompilationCache(cache_dir))
    assert warm == cold
    assert warm.warmup_iterations_elided > 0
