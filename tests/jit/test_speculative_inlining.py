"""Profile-guided speculative inlining (type speculation)."""

import pytest

from repro.ir import nodes as N
from repro.jit import VM, CompilerConfig
from repro.lang import compile_source

SOURCE = """
class Shape {
    int area() { return 0; }
}
class Square extends Shape {
    int side;
    Square(int side) { this.side = side; }
    int area() { return side * side; }
}
class Circle extends Shape {
    int radius;
    Circle(int radius) { this.radius = radius; }
    int area() { return 3 * radius * radius; }
}
class Main {
    static Shape current;
    static Shape make(int kind, int v) {
        if (kind == 0) { return new Square(v); }
        return new Circle(v);
    }
    static int total(Shape s, int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
            acc = acc + s.area();
        }
        return acc;
    }
    static int run(int kind, int n) {
        // The receiver's provenance is opaque (a static field), so the
        // exact type cannot be proven -- only speculated from the
        // profile.
        current = make(kind, 3);
        return total(current, n);
    }
}
"""


def warmed(kind=0, calls=40):
    program = compile_source(SOURCE)
    vm = VM(program, CompilerConfig.partial_escape())
    for _ in range(calls):
        vm.call("Main.run", kind, 20)
    return program, vm


def test_monomorphic_profile_inlines_with_guard():
    program, vm = warmed(kind=0)
    compiled = vm.compiled[program.method("Main.run")]
    # The polymorphic s.area() was speculatively inlined (through the
    # inlined total()): no invoke, type_speculation guard(s) present.
    assert not list(compiled.graph.nodes_of(N.InvokeNode))
    guards = [g for g in compiled.graph.nodes_of(N.FixedGuardNode)
              if g.reason == "type_speculation"]
    assert guards


def test_wrong_type_deopts_and_stays_correct():
    program, vm = warmed(kind=0)
    # Now feed Circles through the Square-specialized code.
    result = vm.call("Main.run", 1, 10)
    assert result == 10 * 3 * 3 * 3
    assert vm.exec_stats.deopts >= 1
    # Repeats invalidate and recompile against the now-poly profile.
    for _ in range(6):
        assert vm.call("Main.run", 1, 10) == 270
    assert vm.invalidations >= 1
    deopts = vm.exec_stats.deopts
    assert vm.call("Main.run", 1, 10) == 270
    assert vm.call("Main.run", 0, 10) == 90
    assert vm.exec_stats.deopts == deopts  # speculation retired


def test_polymorphic_profile_not_speculated():
    program = compile_source(SOURCE)
    vm = VM(program, CompilerConfig.partial_escape())
    for i in range(40):
        vm.call("Main.run", i % 2, 20)  # both types seen
    compiled = vm.compiled[program.method("Main.run")]
    assert list(compiled.graph.nodes_of(N.InvokeNode))
    guards = [g for g in compiled.graph.nodes_of(N.FixedGuardNode)
              if g.reason == "type_speculation"]
    assert not guards


def test_speculative_inlining_enables_pea():
    """With the call inlined, a receiver allocated at the call site can
    be scalar-replaced across the (formerly opaque) polymorphic call."""
    source = SOURCE + """
class Driver {
    static int hot(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
            Square s = new Square(i & 7);
            acc = acc + use(s);
        }
        return acc;
    }
    static int use(Shape s) { return s.area() + 1; }
}
"""
    program = compile_source(source)
    vm = VM(program, CompilerConfig.partial_escape())
    for _ in range(40):
        vm.call("Driver.hot", 30)
    before = vm.heap_snapshot()
    result = vm.call("Driver.hot", 1000)
    delta = vm.heap_snapshot().delta(before)
    assert result == sum((i & 7) ** 2 + 1 for i in range(1000))
    # area() is speculatively inlined through use(); the Square never
    # escapes and vanishes.
    assert delta.allocations == 0
