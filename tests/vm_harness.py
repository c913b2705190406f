"""Shared test harness: compile-and-run under every VM configuration and
check that results agree (the semantic-preservation invariant).

Importable from any test directory (tests/conftest.py puts this
directory on sys.path)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.bytecode import Heap, HeapStats, Interpreter
from repro.jit import VM, CompilerConfig
from repro.lang import compile_source


@dataclass
class ConfigRun:
    """Result of running one configuration."""

    result: Any
    heap: HeapStats
    cycles: float
    vm: Optional[VM] = None


def osr_variants(vm: VM) -> Dict[Tuple[Any, int], Any]:
    """The OSR entries installed in *vm*, ``(method, loop-header bci) ->
    CompilationResult``, read from its variant table."""
    return {(method, entry): variant.result
            for method, variants in vm._variants.items()
            for entry, variant in variants.items()
            if isinstance(entry, int)}


def run_interpreted(source: str, entry: str, args: Tuple,
                    natives: Optional[Dict[str, Callable]] = None
                    ) -> ConfigRun:
    program = compile_source(source, natives=natives)
    interp = Interpreter(program)
    before = interp.heap.stats.copy()
    result = interp.call(entry, *args)
    return ConfigRun(result, interp.heap.stats.delta(before), 0.0)


def run_config(source: str, entry: str, args: Tuple,
               config: CompilerConfig,
               natives: Optional[Dict[str, Callable]] = None,
               warmup: int = 25,
               warmup_args: Optional[Tuple] = None) -> ConfigRun:
    """Compile under *config*, warm up (so the entry really compiles),
    reset statics, then measure one call."""
    program = compile_source(source, natives=natives)
    vm = VM(program, config)
    wargs = warmup_args if warmup_args is not None else args
    for _ in range(warmup):
        vm.call(entry, *wargs)
    program.reset_statics()
    heap_before = vm.heap_snapshot()
    cycles_before = vm.cycles_snapshot()
    result = vm.call(entry, *args)
    heap_delta = vm.heap_snapshot().delta(heap_before)
    cycles = vm.cycles_snapshot() - cycles_before
    return ConfigRun(result, heap_delta, cycles, vm)


ALL_CONFIGS = {
    "interp": None,
    "no_ea": CompilerConfig.no_ea,
    "equi": CompilerConfig.equi_escape,
    "pea": CompilerConfig.partial_escape,
}


def run_everywhere(source: str, entry: str, args: Tuple,
                   natives: Optional[Dict[str, Callable]] = None,
                   warmup: int = 25,
                   warmup_args: Optional[Tuple] = None
                   ) -> Dict[str, ConfigRun]:
    """Run under the pure interpreter and all three compiled
    configurations; assert all results agree, monitors stay balanced and
    PEA never allocates more than the no-EA configuration."""
    runs: Dict[str, ConfigRun] = {
        "interp": run_interpreted(source, entry, args, natives)}
    for name, factory in ALL_CONFIGS.items():
        if factory is None:
            continue
        runs[name] = run_config(source, entry, args, factory(), natives,
                                warmup, warmup_args)
    reference = runs["interp"].result
    for name, run in runs.items():
        assert run.result == reference, (
            f"{name} returned {run.result!r}, interpreter returned "
            f"{reference!r}")
        assert run.heap.monitor_enters == run.heap.monitor_exits, (
            f"{name}: unbalanced monitors {run.heap}")
    assert runs["pea"].heap.allocations <= \
        runs["no_ea"].heap.allocations, (
            "PEA increased dynamic allocations: "
            f"{runs['pea'].heap.allocations} > "
            f"{runs['no_ea'].heap.allocations}")
    assert runs["equi"].heap.allocations <= \
        runs["no_ea"].heap.allocations
    return runs
