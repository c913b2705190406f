"""The tiered VM: compile triggers, dispatch, configuration effects."""

import pytest

from repro.jit import VM, CompilerConfig
from repro.lang import compile_source

FIB = """
    class C {
        static int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
    }
"""


def test_compile_threshold_triggers_compilation():
    program = compile_source(FIB)
    config = CompilerConfig.partial_escape(compile_threshold=5)
    vm = VM(program, config)
    method = program.method("C.fib")
    vm.call("C.fib", 1)  # few invocations
    assert method not in vm.compiled
    vm.call("C.fib", 10)  # recursion blows past the threshold
    assert method in vm.compiled
    assert vm.call("C.fib", 12) == 144


def test_interpreted_methods_still_correct():
    program = compile_source(FIB)
    vm = VM(program, CompilerConfig.no_ea(compile_threshold=10 ** 9))
    assert vm.call("C.fib", 10) == 55
    assert not vm.compiled
    assert vm.exec_stats.interpreter_steps > 0


def test_compiled_callee_reached_from_interpreted_caller():
    source = """
        class C {
            static int hot(int x) { return x * 2; }
            static int cold(int x) { return hot(x) + 1; }
        }
    """
    program = compile_source(source)
    vm = VM(program, CompilerConfig.partial_escape(compile_threshold=5))
    for i in range(20):
        vm.call("C.hot", i)
    assert program.method("C.hot") in vm.compiled
    # cold is below threshold -> interpreted, but dispatches into the
    # compiled hot.
    compiled_before = vm.exec_stats.compiled_invocations
    assert vm.call("C.cold", 5) == 11
    assert vm.exec_stats.compiled_invocations > compiled_before


def test_compile_now_forces_compilation():
    program = compile_source(FIB)
    vm = VM(program, CompilerConfig.partial_escape())
    result = vm.compile_now("C.fib")
    assert result.node_count > 0
    assert program.method("C.fib") in vm.compiled


def test_cycles_accumulate_per_engine():
    program = compile_source(FIB)
    vm = VM(program, CompilerConfig.partial_escape(compile_threshold=3))
    vm.call("C.fib", 12)
    cycles_mid = vm.cycles_snapshot()
    assert cycles_mid > 0
    vm.call("C.fib", 12)
    assert vm.cycles_snapshot() > cycles_mid


def test_config_labels():
    assert CompilerConfig.no_ea().label() == "without EA"
    assert CompilerConfig.equi_escape().label() == "equi-escape EA"
    assert CompilerConfig.conngraph().label() == "conn-graph EA"
    assert CompilerConfig.partial_escape().label() == "with PEA"
    assert CompilerConfig.no_ea().escape_tier == "none"
    assert CompilerConfig(escape_tier="none").label() == "without EA"


def test_native_dispatch_through_vm():
    source = """
        class C {
            static native int host(int x);
            static int m(int x) { return host(x) + 1; }
        }
    """
    program = compile_source(
        source, natives={"C.host": lambda interp, args: args[0] * 10})
    vm = VM(program, CompilerConfig.partial_escape(compile_threshold=3))
    for _ in range(10):
        assert vm.call("C.m", 4) == 41


def test_virtual_dispatch_from_compiled_code():
    source = """
        class A { int f() { return 1; } }
        class B extends A { int f() { return 2; } }
        class C {
            static int m(A a) { return a.f(); }
            static int run(int k) {
                A a = null;
                if (k > 0) { a = new B(); } else { a = new A(); }
                return m(a);
            }
        }
    """
    program = compile_source(source)
    vm = VM(program, CompilerConfig.partial_escape(compile_threshold=3))
    for _ in range(10):
        assert vm.call("C.run", 1) == 2
        assert vm.call("C.run", -1) == 1
    assert program.method("C.run") in vm.compiled


def test_three_configs_agree_and_pea_wins(run_shape=None):
    source = """
        class Temp { int a; int b; }
        class C {
            static int run(int n) {
                int s = 0;
                for (int i = 0; i < n; i = i + 1) {
                    Temp t = new Temp();
                    t.a = i;
                    t.b = i * 2;
                    s = s + t.a + t.b;
                }
                return s;
            }
        }
    """
    results = {}
    for name, factory in (("no_ea", CompilerConfig.no_ea),
                          ("equi", CompilerConfig.equi_escape),
                          ("pea", CompilerConfig.partial_escape)):
        program = compile_source(source)
        vm = VM(program, factory())
        for _ in range(30):
            vm.call("C.run", 20)
        before = vm.heap_snapshot()
        value = vm.call("C.run", 1000)
        delta = vm.heap_snapshot().delta(before)
        results[name] = (value, delta.allocations)
    assert results["no_ea"][0] == results["pea"][0] == \
        results["equi"][0]
    # Equi-escape also wins here (never escapes at all)...
    assert results["equi"][1] == 0
    assert results["pea"][1] == 0
    assert results["no_ea"][1] == 1000


def test_compile_bailout_falls_back_to_interpreter(monkeypatch):
    from repro.jit.compiler import Compiler
    program = compile_source(FIB)
    vm = VM(program, CompilerConfig.partial_escape(
        compile_threshold=3, compile_bailout=True))

    def broken_compile(method, osr_bci=None):
        raise RuntimeError("injected compiler bug")

    monkeypatch.setattr(vm.compiler, "compile", broken_compile)
    # Execution keeps working, interpreted.
    assert vm.call("C.fib", 12) == 144
    assert not vm.compiled
    assert vm._uncompilable  # the failure was recorded


def test_compile_error_raises_by_default(monkeypatch):
    program = compile_source(FIB)
    vm = VM(program, CompilerConfig.partial_escape(compile_threshold=3))

    def broken_compile(method, osr_bci=None):
        raise RuntimeError("injected compiler bug")

    monkeypatch.setattr(vm.compiler, "compile", broken_compile)
    with pytest.raises(RuntimeError, match="injected"):
        vm.call("C.fib", 12)
