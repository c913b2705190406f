"""The escape-tier API: token parsing, static resolution, and cache-key
isolation."""

import pytest

from repro.bytecode.interpreter import Profile
from repro.jit import CompilationCache, Compiler, CompilerConfig, TierSpec
from repro.jit.cache import pipeline_fingerprint
from repro.lang import compile_source

FIB = """
    class C {
        static int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
    }
"""


# -- TierSpec ---------------------------------------------------------------


def test_token_round_trip():
    for token in ("none", "equi", "pea", "pea+summaries",
                  "pea+cgstack", "pea+summaries+cgstack", "conngraph"):
        assert TierSpec.parse(token).token() == token


def test_conngraph_base_implies_summaries_and_cgstack():
    spec = TierSpec.parse("conngraph")
    assert spec.summaries is True
    assert spec.stack is True
    assert spec.token() == "conngraph"
    # Explicit construction normalizes identically.
    assert TierSpec("conngraph") == spec


def test_unknown_tokens_rejected():
    with pytest.raises(ValueError):
        TierSpec.parse("hotspot")
    with pytest.raises(ValueError):
        TierSpec.parse("pea+hotstack")
    with pytest.raises(ValueError):
        TierSpec(base="bogus")


# -- static tiers -------------------------------------------------------------


def test_static_tier_resolves_uniformly():
    config = CompilerConfig.conngraph()
    assert config.tier_spec().token() == "conngraph"
    program = compile_source(FIB)
    compiler = Compiler(program, config, Profile(), CompilationCache())
    method = program.method("C.fib")
    cold_tier, cold_key = compiler.resolve(method)
    for _ in range(100):
        compiler.profile.record_invocation(method)
    # Hotness does not move a method to another tier or key.
    assert compiler.resolve(method) == (cold_tier, cold_key)
    assert cold_tier.token() == "conngraph"


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
