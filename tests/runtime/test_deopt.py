"""Deoptimization: frame decoding, rematerialization, lock restoration."""

import pytest

from repro.lang import compile_source
from repro.jit import VM, CompilerConfig


def warmed_vm(source, entry, warmup_args, calls=40, config=None,
              natives=None):
    program = compile_source(source, natives=natives)
    vm = VM(program, config or CompilerConfig.partial_escape())
    for args in warmup_args * (calls // max(1, len(warmup_args))):
        vm.call(entry, *args)
    return program, vm


def test_guard_deopt_continues_in_interpreter():
    source = """
        class C { static int m(int a, int b) { return a / b; } }
    """
    program, vm = warmed_vm(source, "C.m", [(100, 3)])
    assert program.method("C.m") in vm.compiled
    from repro.bytecode import ArithmeticTrap
    with pytest.raises(ArithmeticTrap):
        vm.call("C.m", 1, 0)
    assert vm.exec_stats.deopts == 1


def test_speculation_deopt_with_rematerialization():
    source = """
        class Pair {
            int a; int b;
            Pair(int a, int b) { this.a = a; this.b = b; }
        }
        class C {
            static Object sink;
            static int work(int i) {
                Pair p = new Pair(i, i * 3);
                if (i == 7777) {
                    sink = p;
                    return p.a + p.b + 100;
                }
                return p.a + p.b;
            }
            static int run(int n) {
                int acc = 0;
                for (int i = 0; i < n; i = i + 1) {
                    acc = acc + work(i);
                }
                return acc;
            }
        }
    """
    program, vm = warmed_vm(source, "C.run", [(100,)])
    before = vm.heap_snapshot()
    result = vm.call("C.run", 10000)
    delta = vm.heap_snapshot().delta(before)
    expected = sum(i + i * 3 + (100 if i == 7777 else 0)
                   for i in range(10000))
    assert result == expected
    assert vm.exec_stats.deopts == 1
    # Only the rematerialized Pair was ever allocated.
    assert delta.allocations == 1
    sink = program.get_static("C", "sink")
    assert sink.fields == {"a": 7777, "b": 3 * 7777}


def test_rematerialized_cyclic_structure():
    source = """
        class Node { Node next; int v; }
        class C {
            static Node sink;
            static int work(int i) {
                Node a = new Node();
                Node b = new Node();
                a.next = b;
                b.next = a;
                a.v = i;
                b.v = i * 2;
                if (i == 9999) { sink = a; }
                return a.v + b.v;
            }
            static int run(int n) {
                int acc = 0;
                for (int i = 0; i < n; i = i + 1) {
                    acc = acc + work(i);
                }
                return acc;
            }
        }
    """
    program, vm = warmed_vm(source, "C.run", [(100,)])
    result = vm.call("C.run", 10001)
    assert result == sum(3 * i for i in range(10001))
    sink = program.get_static("C", "sink")
    assert sink.fields["v"] == 9999
    assert sink.fields["next"].fields["v"] == 9999 * 2
    assert sink.fields["next"].fields["next"] is sink  # the cycle


def test_deopt_inside_inlined_frames():
    """The frame-state chain rebuilds every inlined frame."""
    source = """
        class C {
            static int level3(int x, int y) { return x / y; }
            static int level2(int x, int y) { return level3(x, y) + 1; }
            static int level1(int x, int y) { return level2(x, y) * 2; }
        }
    """
    program, vm = warmed_vm(source, "C.level1", [(100, 7)])
    compiled = vm.compiled[program.method("C.level1")]
    from repro.ir.nodes import InvokeNode
    assert not list(compiled.graph.nodes_of(InvokeNode))  # fully inlined
    from repro.bytecode import ArithmeticTrap
    with pytest.raises(ArithmeticTrap):
        vm.call("C.level1", 5, 0)
    assert vm.exec_stats.deopts >= 1
    # Normal calls still fine afterwards.
    assert vm.call("C.level1", 100, 7) == ((100 // 7) + 1) * 2


def test_elided_lock_restored_on_deopt():
    """Deopt while an elided lock is 'held': the rematerialized object
    must be locked so the re-executed monitorexit balances."""
    source = """
        class Box { int v; }
        class C {
            static Object sink;
            static int work(int i) {
                Box b = new Box();
                int r = 0;
                synchronized (b) {
                    b.v = i;
                    if (i == 4242) { sink = b; }
                    r = b.v + 1;
                }
                return r;
            }
            static int run(int n) {
                int acc = 0;
                for (int i = 0; i < n; i = i + 1) {
                    acc = acc + work(i);
                }
                return acc;
            }
        }
    """
    program, vm = warmed_vm(source, "C.run", [(100,)])
    result = vm.call("C.run", 5000)
    assert result == sum(i + 1 for i in range(5000))
    stats = vm.heap.stats
    assert stats.monitor_enters == stats.monitor_exits
    sink = program.get_static("C", "sink")
    assert sink is not None and sink.lock_depth == 0


def test_deopt_in_synchronized_inlined_method_releases_lock():
    source = """
        class Box {
            int v;
            synchronized int div(int d) { return v / d; }
        }
        class C {
            static Box box;
            static int work(int d) {
                if (box == null) { box = new Box(); box.v = 100; }
                return box.div(d);
            }
        }
    """
    program, vm = warmed_vm(source, "C.work", [(5,)])
    from repro.bytecode import ArithmeticTrap
    with pytest.raises(ArithmeticTrap):
        vm.call("C.work", 0)
    box = program.get_static("C", "box")
    assert box.lock_depth == 0  # the method-level lock was released
    assert vm.call("C.work", 4) == 25


def test_invalidation_and_recompilation():
    source = """
        class C {
            static int work(int i) {
                if (i > 1000000) { return 111; }
                return i;
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
    program, vm = warmed_vm(source, "C.run", [(50, 0)])
    # Now hammer the "impossible" branch: deopts accumulate, the code is
    # invalidated, and the recompiled version stops speculating.
    for _ in range(10):
        vm.call("C.run", 10, 2000000)
    assert vm.invalidations >= 1
    assert vm.call("C.run", 3, 2000000) == 333
    # After recompilation the deopt storm stops.
    deopts_before = vm.exec_stats.deopts
    vm.call("C.run", 10, 2000000)
    assert vm.exec_stats.deopts == deopts_before


def test_deoptimizer_evaluates_a_shared_floating_node_once():
    """Two locals share one floating node the compiled frame never
    computed: the Deoptimizer recomputes it once for both, charging the
    deopt and then that node's cost to the backend's stats."""
    from repro.bytecode import Heap, Interpreter
    from repro.ir import Graph, nodes as N
    from repro.runtime import CostModel, Deoptimizer, ExecutionStats
    from repro.runtime.deopt import MISSING

    program = compile_source(
        "class C { static int m(int a, int b) { return a + b; } }")
    heap = Heap(program)
    deoptimizer = Deoptimizer(program, heap, Interpreter(program, heap))
    graph = Graph()
    param = graph.add(N.ParameterNode(0))
    shared = graph.add(N.BinaryArithmeticNode(
        "mul", x=param, y=graph.constant(3)))
    state = graph.add(N.FrameStateNode(
        program.method("C.m"), 0, locals_values=[shared, shared]))
    cost_model = CostModel()
    stats = ExecutionStats()

    def lookup(node):
        return 7 if node is param else MISSING

    assert deoptimizer.deoptimize(state, lookup, stats, cost_model) == 42
    assert stats.deopts == 1
    assert cost_model.node_cost(shared) > 0
    assert stats.cycles == cost_model.deopt + cost_model.node_cost(shared)
