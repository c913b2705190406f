"""Stack allocation phase tests."""

import pytest

from repro.jit import VM, CompilerConfig
from repro.lang import compile_source

#: A phi-merged allocation: PEA must materialize (a phi needs runtime
#: values), but the object still never escapes the method.
PHI_MERGED = """
    class Box { int v; }
    class C {
        static int m(int a) {
            Box b = null;
            if (a > 0) { b = new Box(); b.v = 1; }
            else { b = new Box(); b.v = 2; }
            return b.v + a;
        }
        static int run(int n) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) { acc = acc + m(i - n / 2); }
            return acc;
        }
    }
"""


def run_vm(escape_tier):
    program = compile_source(PHI_MERGED)
    config = CompilerConfig.partial_escape(escape_tier=escape_tier)
    vm = VM(program, config)
    for _ in range(30):
        vm.call("C.run", 20)
    before = vm.heap_snapshot()
    result = vm.call("C.run", 100)
    return result, vm.heap_snapshot().delta(before), vm


def test_phi_merged_allocations_move_to_the_stack():
    result_off, stats_off, __ = run_vm("pea")
    result_on, stats_on, __ = run_vm("pea+cgstack")
    assert result_on == result_off
    # PEA alone cannot remove the phi-merged Box...
    assert stats_off.allocations == 100
    assert stats_off.stack_allocations == 0
    # ...but stack allocation takes it off the GC heap.
    assert stats_on.allocations == 0
    assert stats_on.stack_allocations == 100
    assert stats_on.stack_allocated_bytes == \
        stats_off.allocated_bytes


def test_stack_allocation_is_cheaper():
    __, __, vm_off = run_vm("pea")
    __, __, vm_on = run_vm("pea+cgstack")
    # Fresh cycle measurement on identical final calls:
    def cycles(vm):
        before = vm.cycles_snapshot()
        vm.call("C.run", 200)
        return vm.cycles_snapshot() - before
    assert cycles(vm_on) < cycles(vm_off)


def test_escaping_objects_stay_on_heap():
    source = """
        class Box { int v; }
        class C {
            static Box g;
            static int m(int a) {
                Box b = new Box();
                b.v = a;
                g = b;
                return b.v;
            }
        }
    """
    program = compile_source(source)
    vm = VM(program, CompilerConfig.partial_escape(
        escape_tier="pea+cgstack"))
    for _ in range(30):
        vm.call("C.m", 5)
    before = vm.heap_snapshot()
    vm.call("C.m", 9)
    delta = vm.heap_snapshot().delta(before)
    assert delta.allocations == 1
    assert delta.stack_allocations == 0
    assert program.get_static("C", "g").fields["v"] == 9


def test_off_by_default():
    config = CompilerConfig.partial_escape()
    assert config.tier_spec().stack is False


def test_equi_stack_token_is_rejected():
    # Stack allocation has one analysis, the directed connection graph,
    # spelled ``+cgstack``; ``+stack`` is not a tier flag.
    config = CompilerConfig.partial_escape(escape_tier="pea+stack")
    with pytest.raises(ValueError, match="'stack'"):
        config.tier_spec()
