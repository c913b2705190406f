"""Benchmark-suite sanity: every workload compiles, runs, and behaves
identically under every configuration."""

import dataclasses

import pytest

from repro.benchsuite import ALL_WORKLOADS, SUITES, by_name
from repro.benchsuite.harness import run_workload
from repro.bytecode import Interpreter
from repro.jit import VM, CompilerConfig
from repro.lang import compile_source

WORKLOAD_NAMES = [w.name for w in ALL_WORKLOADS]


def test_registry_matches_paper_structure():
    assert len(SUITES["dacapo"]) == 14  # 7 shown + 7 quiet
    assert len(SUITES["scaladacapo"]) == 12
    assert len(SUITES["specjbb"]) == 1
    assert len(WORKLOAD_NAMES) == len(set(WORKLOAD_NAMES))


def test_by_name_lookup():
    assert by_name("factorie").suite == "scaladacapo"
    with pytest.raises(KeyError):
        by_name("nope")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_compiles_and_interprets(name):
    workload = by_name(name)
    program = compile_source(workload.source,
                             natives=workload.natives or None)
    interp = Interpreter(program)
    first = interp.call(workload.entry, workload.iteration_size)
    program.reset_statics()
    second = interp.call(workload.entry, workload.iteration_size)
    assert first == second  # iterations are deterministic


@pytest.mark.parametrize("name", ["h2", "factorie", "specjbb2005",
                                  "jython", "actors"])
def test_configs_agree_on_checksum(name):
    workload = by_name(name)
    checksums = set()
    for factory in (CompilerConfig.no_ea, CompilerConfig.equi_escape,
                    CompilerConfig.partial_escape):
        program = compile_source(workload.source,
                                 natives=workload.natives or None)
        vm = VM(program, factory())
        for _ in range(6):
            checksum = vm.call(workload.entry, workload.iteration_size)
            program.reset_statics()
        checksums.add(checksum)
    assert len(checksums) == 1


@pytest.mark.parametrize("name", ["sunflow", "specs", "specjbb2005"])
def test_pea_reduces_allocations_on_temp_heavy_workloads(name):
    workload = by_name(name)

    def allocations(config):
        program = compile_source(workload.source,
                                 natives=workload.natives or None)
        vm = VM(program, config)
        for _ in range(25):
            vm.call(workload.entry, workload.iteration_size)
            program.reset_statics()
        before = vm.heap_snapshot()
        vm.call(workload.entry, workload.iteration_size)
        return vm.heap_snapshot().delta(before).allocations

    assert allocations(CompilerConfig.partial_escape()) < \
        allocations(CompilerConfig.no_ea())


def test_quiet_workloads_unaffected_by_pea():
    workload = by_name("avrora")

    def allocations(config):
        program = compile_source(workload.source)
        vm = VM(program, config)
        for _ in range(25):
            vm.call(workload.entry, workload.iteration_size)
            program.reset_statics()
        before = vm.heap_snapshot()
        vm.call(workload.entry, workload.iteration_size)
        return vm.heap_snapshot().delta(before).allocations

    with_pea = allocations(CompilerConfig.partial_escape())
    without = allocations(CompilerConfig.no_ea())
    # "No significant change": at most the odd container object (the
    # paper's quiet benchmarks aren't bit-identical either).
    assert without - 2 <= with_pea <= without


def test_harness_measurement_fields():
    workload = by_name("xalan")
    measurement = run_workload(workload, CompilerConfig.partial_escape())
    assert measurement.kb_per_iteration > 0
    assert measurement.allocations_per_iteration > 0
    assert measurement.cycles_per_iteration > 0
    assert measurement.iterations_per_minute > 0
    assert measurement.config == "with PEA"


def test_measurement_counts_backend_fallbacks(monkeypatch):
    """Methods the backend cannot lower run on the GraphInterpreter:
    the Table-1 metrics are the legacy backend's, and the Measurement
    counts one fallback per install (table1 prints and records it)."""
    from repro.runtime.codegen import CodegenError, CodegenPlan

    workload = dataclasses.replace(by_name("fop"), warmup_iterations=12,
                                   measure_iterations=2)
    legacy = run_workload(workload, CompilerConfig.partial_escape(
        execution_backend="legacy"))
    assert legacy.backend_fallbacks == 0

    def reject(self, *args, **kwargs):
        raise CodegenError("injected structurizer rejection")

    monkeypatch.setattr(CodegenPlan, "__init__", reject)
    codegen = run_workload(workload, CompilerConfig.partial_escape(
        execution_backend="codegen"))
    assert codegen == legacy
    assert codegen.backend_fallbacks == codegen.compile_count > 0


def test_paper_rows_present_for_shown_benchmarks():
    for name in ("fop", "h2", "jython", "sunflow", "tomcat",
                 "tradebeans", "xalan", "factorie", "specs",
                 "specjbb2005"):
        workload = by_name(name)
        assert workload.paper is not None
        assert workload.description
