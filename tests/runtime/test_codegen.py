"""Differential tests for the generated-Python codegen backend: every
observable — results, heap statistics, deopt counts, per-node execution
counts — must match the threaded-code plan backend bit for bit.
Simulated cycles are compared to within float rounding only: codegen
pre-folds each block's cost into one constant, so the summation *order*
differs from the plan backend's per-node accumulation even though the
summands are identical."""

import pytest

from repro.jit import VM, CompilerConfig
from repro.lang import compile_source

from vm_harness import run_config

DIAMOND = """
    class Main {
        static int getValue(int n, Object unused) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                int v;
                if (i * 3 > n) {
                    v = i * i - n;
                } else {
                    v = i + n * 2;
                }
                acc = acc + v;
            }
            return acc;
        }
    }
"""

NESTED_LOOPS = """
    class Main {
        static int getValue(int n, Object unused) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                int inner = 0;
                for (int j = 0; j < i; j = j + 1) {
                    inner = inner + j * i;
                    if (inner > 1000) {
                        inner = inner - n;
                    }
                }
                acc = acc + inner;
            }
            return acc;
        }
    }
"""

SYNCHRONIZED_METHODS = """
    class Counter {
        int value;
        synchronized int bump(int by) {
            this.value = this.value + by;
            return this.value;
        }
        synchronized int read() { return this.value; }
    }
    class Main {
        static Counter shared;
        static int getValue(int n, Object unused) {
            Counter local = new Counter();
            shared = new Counter();
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                acc = acc + local.bump(i);
                shared.bump(1);
            }
            return acc + shared.read() + local.read();
        }
    }
"""

CYCLIC_DEOPT = """
    class Node {
        int payload; Node link;
        Node(int payload) { this.payload = payload; }
    }
    class Main {
        static Object sink;
        static int work(int i) {
            Node a = new Node(i);
            Node b = new Node(i * 3);
            a.link = b;
            b.link = a;
            if (i > 900000) {
                sink = a;
                return a.payload + b.payload + 100;
            }
            return a.payload + b.link.payload;
        }
        static int run(int n, int bias) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                acc = acc + work(i + bias);
            }
            return acc;
        }
    }
"""

LISTINGS = {
    "diamond": DIAMOND,
    "nested-loops": NESTED_LOOPS,
    "synchronized-methods": SYNCHRONIZED_METHODS,
}


def assert_codegen_matches_plan(source, entry, args, natives=None,
                                warmup=30, **config_kwargs):
    runs = {
        backend: run_config(
            source, entry, args,
            CompilerConfig.partial_escape(execution_backend=backend,
                                          **config_kwargs),
            natives, warmup)
        for backend in ("codegen", "plan")}
    codegen, plan = runs["codegen"], runs["plan"]
    assert codegen.result == plan.result
    assert codegen.heap == plan.heap
    assert codegen.cycles == pytest.approx(plan.cycles, rel=1e-9)
    assert (codegen.vm.exec_stats.deopts
            == plan.vm.exec_stats.deopts)
    assert (codegen.vm.exec_stats.node_executions
            == plan.vm.exec_stats.node_executions)
    return runs


@pytest.mark.parametrize("listing", sorted(LISTINGS))
def test_listing_differential(listing):
    assert_codegen_matches_plan(LISTINGS[listing], "Main.getValue",
                                (25, "obj"))


def test_codegen_backend_is_used():
    """Guard against silently falling back to plan/interpreter."""
    program = compile_source(DIAMOND)
    vm = VM(program, CompilerConfig.partial_escape(
        execution_backend="codegen"))
    for _ in range(30):
        vm.call("Main.getValue", 10, None)
    assert vm.backend_fallbacks == 0, "no generated function was bound"
    compiled = vm.compiled[program.method("Main.getValue")]
    assert compiled.codegen is not None
    assert compiled.codegen.code_size > 0


def test_osr_entry_differential():
    """A single long-running call tiers up at a loop backedge; the
    OSR-entry variant must also run generated code and match the plan
    backend observably."""
    results = {}
    for backend in ("codegen", "plan"):
        program = compile_source(NESTED_LOOPS)
        vm = VM(program, CompilerConfig.partial_escape(
            execution_backend=backend, compile_threshold=1000,
            osr_threshold=20))
        result = vm.call("Main.getValue", 60, None)
        assert vm.osr_compiled, f"{backend}: OSR never triggered"
        results[backend] = (result, vm.exec_stats.node_executions,
                            vm.osr_entries)
        if backend == "codegen":
            assert vm.backend_fallbacks == 0, \
                "OSR variant not on codegen"
    assert results["codegen"] == results["plan"]


def test_cyclic_virtual_deopt_rematerialization():
    """A speculation failure forces rematerialization of two virtual
    objects that reference each other; the baked remat map must rebuild
    the cycle identically under both backends."""
    fields = {}
    for backend in ("codegen", "plan"):
        program = compile_source(CYCLIC_DEOPT)
        vm = VM(program, CompilerConfig.partial_escape(
            execution_backend=backend))
        for _ in range(40):
            vm.call("Main.run", 50, 0)
        result = vm.call("Main.run", 5, 1000000)  # speculation fails
        assert vm.exec_stats.deopts >= 1
        sink = program.get_static("Main", "sink")
        link = sink.fields["link"]
        assert link.fields["link"] is sink, "cycle not rebuilt"
        fields[backend] = (result, vm.exec_stats.deopts,
                           sink.fields["payload"],
                           link.fields["payload"])
    assert fields["codegen"] == fields["plan"]


def test_histogram_identical_across_backends():
    """--profile's per-node-kind histogram is backend-independent."""
    histograms = {}
    for backend in ("codegen", "plan"):
        program = compile_source(SYNCHRONIZED_METHODS)
        vm = VM(program, CompilerConfig.partial_escape(
            execution_backend=backend, collect_node_histogram=True))
        for _ in range(30):
            vm.call("Main.getValue", 12, None)
        histograms[backend] = dict(vm.exec_stats.node_kind_executions)
    assert histograms["codegen"] == histograms["plan"]
    assert histograms["codegen"], "histogram was not collected"


def test_generated_function_is_attributable():
    """cProfile attributes time by code-object name: the generated
    function must carry the method's label, not a generic name."""
    program = compile_source(DIAMOND)
    vm = VM(program, CompilerConfig.partial_escape(
        execution_backend="codegen"))
    for _ in range(30):
        vm.call("Main.getValue", 10, None)
    (compiled,) = vm.compiled.values()
    bound = compiled.codegen.bind(vm.heap, vm.exec_stats,
                                  vm._invoke_callback, vm.deoptimizer,
                                  False)
    assert "Main.getValue" in bound.function.__qualname__


def test_structurizer_rejection_runs_on_the_graph_interpreter(
        monkeypatch):
    """A graph the structurizer rejects runs on the GraphInterpreter —
    exactly as under the legacy backend, never on the plan backend —
    and counts one backend fallback per install.  The cache entry
    records the rejection, so a second VM sharing the cache hits it
    without running the emitter again."""
    from repro.jit import CompilationCache
    from repro.runtime.codegen import CodegenError, CodegenPlan

    def measure(backend, cache=None):
        program = compile_source(DIAMOND)
        vm = VM(program, CompilerConfig.partial_escape(
            execution_backend=backend), cache=cache)
        for _ in range(30):
            vm.call("Main.getValue", 25, None)
        heap_before = vm.heap_snapshot()
        cycles_before = vm.cycles_snapshot()
        result = vm.call("Main.getValue", 25, None)
        return vm, (result, vm.heap_snapshot().delta(heap_before),
                    vm.cycles_snapshot() - cycles_before,
                    vm.exec_stats.deopts)

    __, interpreted = measure("legacy")
    emits = []

    def reject(self, *args, **kwargs):
        emits.append(args)
        raise CodegenError("injected structurizer rejection")

    monkeypatch.setattr(CodegenPlan, "__init__", reject)
    cache = CompilationCache()
    for vm_index in range(2):
        emits.clear()
        vm, observed = measure("codegen", cache)
        assert observed == interpreted
        installs = vm.compiler.compile_count
        assert installs > 0 and vm.backend_fallbacks == installs
        for result in vm.compiled.values():
            assert result.plan is None and result.codegen is None
        if vm_index == 0:
            assert len(emits) == installs
        else:
            assert vm.compiler.cache_hit_count == installs
            assert emits == [], "the unsupported entry was re-emitted"
