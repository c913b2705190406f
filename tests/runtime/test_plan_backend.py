"""Differential tests: the threaded-code ExecutionPlan backend must be
observably indistinguishable from the legacy GraphInterpreter — same
results, same simulated cycles, same heap statistics, same deopt counts
— on every program shape (the cost model is deterministic, so the
numbers must match bit for bit)."""

import dataclasses

import pytest

from repro.benchsuite.harness import run_workload
from repro.benchsuite.workloads import by_name
from repro.jit import VM, CompilerConfig
from repro.lang import compile_source

from vm_harness import run_config

# -- eight listing-style programs covering every executable node kind ----

LISTING_CACHE_HIT = """
    class Key {
        int idx; Object ref;
        Key(int idx, Object ref) { this.idx = idx; this.ref = ref; }
        synchronized boolean equalsKey(Key other) {
            return this.idx == other.idx && this.ref == other.ref;
        }
    }
    class Main {
        static Key cacheKey;
        static Object cacheValue;
        static Object getValue(int idx, Object ref) {
            Key key = new Key(idx, ref);
            if (cacheKey != null && key.equalsKey(cacheKey)) {
                return cacheValue;
            }
            return createValue(idx);
        }
        static native Object createValue(int idx);
    }
"""

LISTING_CACHE_MISS = """
    class Key {
        int idx; Object ref;
        Key(int idx, Object ref) { this.idx = idx; this.ref = ref; }
        synchronized boolean equalsKey(Key other) {
            return this.idx == other.idx && this.ref == other.ref;
        }
    }
    class Main {
        static Key cacheKey;
        static Object cacheValue;
        static Object getValue(int idx, Object ref) {
            Key key = new Key(idx, ref);
            if (cacheKey != null && key.equalsKey(cacheKey)) {
                return cacheValue;
            }
            cacheKey = key;
            cacheValue = createValue(idx);
            return cacheValue;
        }
        static native Object createValue(int idx);
    }
"""

LISTING_LOOP_PHIS = """
    class Main {
        static int getValue(int n, Object unused) {
            int acc = 0;
            int square = 0;
            for (int i = 0; i < n; i = i + 1) {
                square = i * i;
                acc = acc + square - i / 3;
            }
            return acc;
        }
    }
"""

LISTING_ARRAYS = """
    class Main {
        static int getValue(int n, Object unused) {
            int[] data = new int[n + 1];
            for (int i = 0; i < data.length; i = i + 1) {
                data[i] = i * 7;
            }
            int acc = 0;
            for (int i = n; i >= 0; i = i - 1) {
                acc = acc + data[i];
            }
            return acc + data.length;
        }
    }
"""

LISTING_SHARED_EXPR = """
    class Main {
        static int getValue(int n, Object unused) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                int sq = i * i;
                acc = acc + (sq > 50 ? sq + sq : sq - i);
            }
            return acc;
        }
    }
"""

LISTING_VIRTUAL = """
    class Shape { int area() { return 0; } }
    class SquareShape {
        int side;
        int area() { return side * side; }
    }
    class Main {
        static int getValue(int n, Object unused) {
            SquareShape s = new SquareShape();
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                s.side = i;
                acc = acc + s.area();
            }
            return acc;
        }
    }
"""

LISTING_MONITORS = """
    class Box { int v; }
    class Main {
        static int getValue(int n, Object unused) {
            Box box = new Box();
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                synchronized (box) {
                    box.v = box.v + i;
                }
            }
            synchronized (box) { acc = box.v; }
            return acc;
        }
    }
"""

LISTING_TYPE_TESTS = """
    class Base { int v; }
    class Derived { int v; int extra; }
    class Main {
        static int getValue(int n, Object unused) {
            Base b = new Base();
            Derived d = new Derived();
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                Object o = (i / 2) * 2 == i ? (Object) b : (Object) d;
                if (o instanceof Derived) { acc = acc + 2; }
                if (o == b) { acc = acc + 1; }
                if (o != null) { acc = acc - 1; }
            }
            return acc;
        }
    }
"""

NATIVES = {"Main.createValue": lambda interp, args: args[0] * 1000}

LISTINGS = {
    "cache-hit": LISTING_CACHE_HIT,
    "cache-miss": LISTING_CACHE_MISS,
    "loop-phis": LISTING_LOOP_PHIS,
    "arrays": LISTING_ARRAYS,
    "shared-expr": LISTING_SHARED_EXPR,
    "virtual": LISTING_VIRTUAL,
    "monitors": LISTING_MONITORS,
    "type-tests": LISTING_TYPE_TESTS,
}

CONFIG_FACTORIES = {
    "no_ea": CompilerConfig.no_ea,
    "equi": CompilerConfig.equi_escape,
    "pea": CompilerConfig.partial_escape,
}


def assert_backends_identical(source, entry, args, factory,
                              natives=None, warmup=30):
    runs = {
        backend: run_config(source, entry, args,
                            factory(execution_backend=backend),
                            natives, warmup)
        for backend in ("plan", "legacy")}
    plan, legacy = runs["plan"], runs["legacy"]
    assert plan.result == legacy.result
    assert plan.cycles == legacy.cycles
    assert plan.heap == legacy.heap
    assert (plan.vm.exec_stats.deopts
            == legacy.vm.exec_stats.deopts)
    assert (plan.vm.exec_stats.node_executions
            == legacy.vm.exec_stats.node_executions)
    return runs


@pytest.mark.parametrize("config_name", sorted(CONFIG_FACTORIES))
@pytest.mark.parametrize("listing", sorted(LISTINGS))
def test_listing_differential(listing, config_name):
    source = LISTINGS[listing]
    natives = NATIVES if "native" in source else None
    assert_backends_identical(
        source, "Main.getValue", (25, "obj"),
        CONFIG_FACTORIES[config_name], natives=natives)


def test_plan_backend_is_used():
    """Guard against silently falling back to the legacy engine."""
    program = compile_source(LISTING_LOOP_PHIS)
    vm = VM(program, CompilerConfig.partial_escape())
    for _ in range(30):
        vm.call("Main.getValue", 10, None)
    assert vm.compiled and vm.backend_fallbacks == 0, \
        "no ExecutionPlan was bound"


DEOPT_SOURCE = """
    class Pair {
        int a; int b;
        Pair(int a, int b) { this.a = a; this.b = b; }
    }
    class Main {
        static Object sink;
        static int work(int i) {
            Pair p = new Pair(i, i * 3);
            if (i > 900000) {
                sink = p;
                return p.a + p.b + 100;
            }
            return p.a + p.b;
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


@pytest.mark.parametrize("backend", ["plan", "legacy", "codegen"])
def test_forced_deopt_differential(backend):
    """Drive a speculation failure through each backend: all three must
    deoptimize and rematerialize the virtual Pair identically.  Plan
    and legacy accumulate the exact same cycles; codegen pre-folds each
    block's cost, so its cycles differ only in float summation order."""
    results = {}
    for chosen in ("plan", "legacy", "codegen"):
        program = compile_source(DEOPT_SOURCE)
        vm = VM(program, CompilerConfig.partial_escape(
            execution_backend=chosen))
        for _ in range(40):
            vm.call("Main.run", 50, 0)
        cycles_before = vm.cycles_snapshot()
        result = vm.call("Main.run", 5, 1000000)  # speculation fails
        results[chosen] = (result, vm.cycles_snapshot() - cycles_before,
                           vm.exec_stats.deopts,
                           program.get_static("Main", "sink").fields)
        assert vm.exec_stats.deopts >= 1
        assert vm.backend_fallbacks == 0
    assert results["plan"] == results["legacy"]
    plan, codegen = results["plan"], results["codegen"]
    assert (codegen[0], codegen[2], codegen[3]) == \
        (plan[0], plan[2], plan[3])
    assert codegen[1] == pytest.approx(plan[1], rel=1e-9)
    # The parametrization keeps every backend in the failure report;
    # the cross-checks above are symmetric.
    assert results[backend][2] >= 1


@pytest.mark.slow
@pytest.mark.parametrize("workload_name",
                         ["xalan", "scalap", "specjbb2005"])
@pytest.mark.parametrize("config_name", sorted(CONFIG_FACTORIES))
def test_workload_differential(workload_name, config_name):
    """Representative workloads: full Measurement equality."""
    workload = dataclasses.replace(by_name(workload_name),
                                   warmup_iterations=22)
    factory = CONFIG_FACTORIES[config_name]
    m_plan = run_workload(workload,
                          factory(execution_backend="plan"))
    m_legacy = run_workload(workload,
                            factory(execution_backend="legacy"))
    assert m_plan == m_legacy


@pytest.mark.slow
def test_parallel_harness_matches_serial():
    """--jobs reassembles results bit-identical to serial order."""
    from repro.benchsuite.harness import run_suite
    workloads = [dataclasses.replace(by_name("specjbb2005"),
                                     warmup_iterations=22)]
    arms = {"no_ea": CompilerConfig.no_ea(),
            "pea": CompilerConfig.partial_escape()}
    serial = run_suite(workloads, arms)
    parallel = run_suite(workloads, arms, jobs=2)
    assert serial == parallel
    assert [list(m) for m in parallel] == [["no_ea", "pea"]]


def test_histogram_identical_across_backends():
    """The per-node-kind execution histogram (--profile) is the same
    whichever backend executes the graph."""
    histograms = {}
    for backend in ("plan", "legacy"):
        program = compile_source(LISTING_ARRAYS)
        vm = VM(program, CompilerConfig.partial_escape(
            execution_backend=backend, collect_node_histogram=True))
        for _ in range(30):
            vm.call("Main.getValue", 12, None)
        histograms[backend] = dict(
            vm.exec_stats.node_kind_executions)
    assert histograms["plan"] == histograms["legacy"]
    assert histograms["plan"], "histogram was not collected"
