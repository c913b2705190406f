"""Property-based differential testing (hypothesis).

For randomly generated programs, every execution engine and every
compiler configuration must agree on the result, keep monitors balanced,
and PEA must never increase the dynamic allocation count — the paper's
"at most as many dynamic allocations as in the original code".
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.bytecode import Interpreter
from repro.jit import VM, CompilerConfig
from repro.lang import compile_source
from repro.verify.generator import ProgramGenerator

from fuzz_seed import hypothesis_seed

CONFIGS = (
    ("no_ea", CompilerConfig.no_ea),
    ("equi", CompilerConfig.equi_escape),
    ("pea", CompilerConfig.partial_escape),
)

_SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large,
                           HealthCheck.filter_too_much])


def run_all(source, args):
    """Run under the interpreter + the three compiled configurations;
    returns {name: (result, heap_delta)}."""
    outcomes = {}
    program = compile_source(source)
    interp = Interpreter(program)
    before = interp.heap.stats.copy()
    result = interp.call("Main.entry", *args)
    outcomes["interp"] = (result, interp.heap.stats.delta(before))
    for name, factory in CONFIGS:
        prog = compile_source(source)
        vm = VM(prog, factory(compile_threshold=3))
        for _ in range(6):
            vm.call("Main.entry", *args)
            prog.reset_statics()
        before = vm.heap_snapshot()
        value = vm.call("Main.entry", *args)
        outcomes[name] = (value, vm.heap_snapshot().delta(before))
    return outcomes


@hypothesis_seed
@_SETTINGS
@given(data=st.data(),
       a=st.integers(min_value=-20, max_value=20),
       b=st.integers(min_value=-20, max_value=20))
def test_differential_semantics(data, a, b):
    source = ProgramGenerator.from_hypothesis(
        data.draw).generate_program().source()
    outcomes = run_all(source, (a, b))
    reference_result = outcomes["interp"][0]
    for name, (result, heap) in outcomes.items():
        assert result == reference_result, (name, source)
        assert heap.monitor_enters == heap.monitor_exits, (name, source)
    assert outcomes["pea"][1].allocations <= \
        outcomes["no_ea"][1].allocations, source
    assert outcomes["equi"][1].allocations <= \
        outcomes["no_ea"][1].allocations, source


@hypothesis_seed
@_SETTINGS
@given(data=st.data())
def test_compilation_never_crashes_and_graph_verifies(data):
    source = ProgramGenerator.from_hypothesis(
        data.draw).generate_program().source()
    program = compile_source(source)
    from repro.jit import Compiler
    from repro.verify import verify_graph
    compiler = Compiler(program, CompilerConfig.partial_escape())
    for name in ("entry", "h1", "h2"):
        result = compiler.compile(program.method(f"Main.{name}"))
        verify_graph(result.graph)


@hypothesis_seed
@_SETTINGS
@given(data=st.data(),
       a=st.integers(min_value=-10, max_value=10))
def test_equi_escape_never_beats_pea_on_allocations(data, a):
    """Flow-sensitivity strictly refines the flow-insensitive analysis:
    PEA removes at least the allocations equi-escape removes."""
    source = ProgramGenerator.from_hypothesis(
        data.draw).generate_program().source()
    outcomes = run_all(source, (a, 1 - a))
    assert outcomes["pea"][1].allocations <= \
        outcomes["equi"][1].allocations, source
