"""The escape tiers: the table and the arms that run it, static keys,
and cache-key isolation."""

import inspect

import pytest

from repro.benchsuite.harness import ARMS
from repro.bytecode.interpreter import Profile
from repro.jit import ESCAPE_TIERS, CompilationCache, Compiler, \
    CompilerConfig
from repro.jit.cache import pipeline_fingerprint
from repro.lang import compile_source
from repro.verify.fuzz import ENGINES, run_engine_vm

FIB = """
    class C {
        static int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
    }
"""


# -- the table ----------------------------------------------------------------


def test_every_tier_is_an_arm_and_every_arm_a_tier():
    """The table holds exactly the tiers the evaluation runs: those of
    the arms of ``ARMS`` (Table 1, Section 6.2 and the A/Bs) and of the
    fuzz engines."""
    engine_default = inspect.signature(run_engine_vm) \
        .parameters["escape_tier"].default
    run = {CompilerConfig(**overrides).escape_tier
           for overrides in ARMS.values()}
    run |= {engine.options.get("escape_tier", engine_default)
            for engine in ENGINES.values()
            if engine.options is not None}
    assert run == set(ESCAPE_TIERS)


def test_conngraph_base_implies_summaries_and_cgstack():
    row = ESCAPE_TIERS["conngraph"]
    assert row.analysis == "conngraph"
    assert row.summaries is True
    assert row.stack == "full"


def test_unknown_tokens_rejected():
    # Other combinations of an analysis, summaries and stack allocation
    # are not tiers, in any order.
    for token in ("hotspot", "pea+hotstack", "pea+cgstack",
                  "none+summaries", "pea+cgstack+summaries"):
        with pytest.raises(ValueError) as raised:
            CompilerConfig(escape_tier=token)
        assert repr(token) in str(raised.value)
        assert ", ".join(ESCAPE_TIERS) in str(raised.value)


# -- static tiers -------------------------------------------------------------


def test_static_tier_resolves_uniformly():
    config = CompilerConfig.conngraph()
    program = compile_source(FIB)
    compiler = Compiler(program, config, Profile(), CompilationCache())
    method = program.method("C.fib")
    cold_key = compiler.key(method)
    for _ in range(100):
        compiler.profile.record_invocation(method)
    # Hotness does not move a method to another key.
    assert compiler.key(method) == cold_key


# -- fingerprints and cache isolation ---------------------------------------


def test_tier_changes_the_pipeline_fingerprint():
    tokens = ("none", "equi", "conngraph", "pea", "pea+summaries",
              "pea+summaries+cgstack")
    prints = {t: pipeline_fingerprint(CompilerConfig(escape_tier=t))
              for t in tokens}
    assert len(set(prints.values())) == len(tokens)


def test_no_cache_entry_crosses_escape_tier_values():
    """The tier token is a compilation-key dimension: the same method
    under different tiers gets different keys, and a shared cache never
    serves one tier's artifact to another."""
    program = compile_source(FIB)
    method = program.method("C.fib")
    keys = set()
    for token in ("none", "equi", "conngraph", "pea", "pea+summaries"):
        config = CompilerConfig(escape_tier=token)
        keys.add(CompilationCache.compilation_key(
            program, method, config, profiled=False))
    assert len(keys) == 5


def test_shared_cache_isolates_tiers_end_to_end():
    from repro.jit import VM

    cache = CompilationCache()
    checks = {}
    for token in ("none", "conngraph", "pea"):
        program = compile_source(FIB)
        vm = VM(program, CompilerConfig(escape_tier=token,
                                        compile_threshold=3),
                cache=cache)
        for _ in range(5):
            checks[token] = vm.call("C.fib", 12)
        compiled = vm.compiled[program.method("C.fib")]
        assert compiled.cache_entry is not None
    assert len(set(checks.values())) == 1  # tiers agree on the result
    # Three distinct compilations were stored, none shared across tiers.
    assert cache.stats.misses >= 3
