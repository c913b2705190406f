"""The per-method escape-tier policy API: token parsing, policy
resolution, and cache-key isolation."""

import pytest

from repro.jit import (AutoTierPolicy, CompilationCache, CompilerConfig,
                       TierRequest, TierSpec)
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
    for token in ("none", "equi", "pea", "pea+summaries", "pea+stack",
                  "pea+cgstack", "pea+summaries+cgstack", "equi+stack",
                  "none+stack", "conngraph"):
        assert TierSpec.parse(token).token() == token


def test_conngraph_base_implies_summaries_and_cgstack():
    spec = TierSpec.parse("conngraph")
    assert spec.summaries is True
    assert spec.stack_analysis == "conngraph"
    assert spec.token() == "conngraph"
    # Explicit construction normalizes identically.
    assert TierSpec("conngraph") == spec


def test_unknown_tokens_rejected():
    with pytest.raises(ValueError):
        TierSpec.parse("hotspot")
    with pytest.raises(ValueError):
        TierSpec.parse("pea+hotstack")
    with pytest.raises(ValueError):
        TierSpec(base="pea", stack_analysis="bogus")


# -- policy resolution ------------------------------------------------------


def test_static_tier_resolves_uniformly():
    config = CompilerConfig.conngraph()
    assert config.is_static_tier()
    assert config.static_tier_spec().token() == "conngraph"
    spec = config.resolve_tier("C.m", 10, 0)
    assert spec.token() == "conngraph"


def test_auto_policy_tiers_by_hotness_size_and_queue():
    policy = AutoTierPolicy(hot_invocations=40, large_method_size=300,
                            busy_queue_depth=4)
    hot_small = TierRequest("C.m", 50, 100)
    assert policy(hot_small) == "pea+summaries"
    cold = TierRequest("C.m", 50, 3)
    assert policy(cold) == "conngraph"
    huge = TierRequest("C.m", 1000, 100)
    assert policy(huge) == "conngraph"
    busy = TierRequest("C.m", 50, 100, queue_depth=8)
    assert policy(busy) == "conngraph"


def test_auto_config_resolves_per_method():
    config = CompilerConfig(escape_tier="auto")
    assert not config.is_static_tier()
    assert config.static_tier_spec() is None
    assert config.resolve_tier("C.m", 50, 100).token() == \
        "pea+summaries"
    assert config.resolve_tier("C.m", 50, 0).token() == "conngraph"


def test_custom_policy_callable():
    def policy(request):
        return "pea" if request.method_name.endswith("hot") else "none"

    config = CompilerConfig(escape_tier=policy)
    assert config.resolve_tier("C.hot", 10, 0).base == "pea"
    assert config.resolve_tier("C.cold", 10, 0).base == "none"
    assert config.label() == "tiered EA (policy)"


# -- fingerprints and cache isolation ---------------------------------------


def test_tier_changes_the_pipeline_fingerprint():
    tokens = ("none", "equi", "conngraph", "pea", "pea+summaries",
              "pea+summaries+cgstack", "auto")
    prints = {t: pipeline_fingerprint(CompilerConfig(escape_tier=t))
              for t in tokens}
    assert len(set(prints.values())) == len(tokens)


def test_policy_objects_fingerprint_by_parameters():
    default = CompilerConfig(escape_tier="auto")
    same = CompilerConfig(escape_tier=AutoTierPolicy())
    tuned = CompilerConfig(escape_tier=AutoTierPolicy(hot_invocations=5))
    assert pipeline_fingerprint(default) == pipeline_fingerprint(same)
    assert pipeline_fingerprint(default) != pipeline_fingerprint(tuned)


def test_no_cache_entry_crosses_escape_tier_values():
    """The resolved tier token is a compilation-key dimension: the same
    method under different tiers gets different keys, and a shared
    cache never serves one tier's artifact to another."""
    program = compile_source(FIB)
    method = program.method("C.fib")
    keys = set()
    for token in ("none", "equi", "conngraph", "pea", "pea+summaries"):
        config = CompilerConfig(escape_tier=token)
        keys.add(CompilationCache.compilation_key(
            program, method, config, profiled=False))
    assert len(keys) == 5
    # An explicit per-method resolution overrides the static spec —
    # what an "auto" policy does as a method gets hot.
    auto = CompilerConfig(escape_tier="auto")
    cold = CompilationCache.compilation_key(
        program, method, auto, profiled=False, tier="conngraph")
    hot = CompilationCache.compilation_key(
        program, method, auto, profiled=False, tier="pea+summaries")
    assert cold != hot


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
