"""The one compilation-cache protocol: the compiler derives each key
once; speculation facts replay from one table of recorded profile
queries; and every rejected cache entry is counted as dropped."""

import os

import pytest

from repro.bytecode.interpreter import Profile
from repro.jit import CompilationCache, CompilerConfig, Compiler
from repro.jit.cache import (CACHE_FORMAT, RECORDED_QUERIES, CacheEntry,
                             RecordingProfile, validate_facts)

from vm_harness import compile_source

#: A branch before a hot loop: the branch flip deopts into a
#: continuation, the loop tiers up through OSR.
FLIP_SOURCE = """
    class Main {
        static int step(int phase, int n) {
            int acc = 0;
            if (phase == 1) { acc = 7; } else { acc = 3; }
            for (int i = 0; i < n; i = i + 1) {
                acc = (acc * 31 + i) & 1048575;
            }
            return acc;
        }
    }
"""

CONFIG = CompilerConfig.partial_escape(
    deoptless=True, compile_threshold=5, speculation_min_samples=3,
    osr_threshold=25)


# -- one key per compile -------------------------------------------------------


def count_key_derivations(monkeypatch):
    calls = []
    derive = CompilationCache.compilation_key

    def counting(*args, **kwargs):
        calls.append(args)
        return derive(*args, **kwargs)

    monkeypatch.setattr(CompilationCache, "compilation_key",
                        staticmethod(counting))
    return calls


def test_in_process_compile_derives_its_key_once(monkeypatch):
    program = compile_source(FLIP_SOURCE)
    method = program.method("Main.step")
    cache = CompilationCache()
    calls = count_key_derivations(monkeypatch)
    compiler = Compiler(program, CONFIG, Profile(), cache)
    assert not compiler.compile(method).cache_hit
    assert len(calls) == 1
    assert compiler.compile(method).cache_hit
    assert len(calls) == 2


# -- one fact table ------------------------------------------------------------

#: Arguments of each recorded query, and how a profile changes its
#: answer.
QUERIES = {
    "branch_outcome": ((7, 3),
                       lambda p, m: p.record_branch(m, 7, False)),
    "loop_has_osr": ((11,), lambda p, m: p.record_osr_entry(m, 11)),
    "monomorphic_receiver": ((9, 3),
                             lambda p, m: p.record_receiver(m, 9, "C2")),
}


def test_every_recorded_query_has_a_replay_case():
    assert set(QUERIES) == RECORDED_QUERIES


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_recorded_fact_replays_until_its_answer_changes(query):
    program = compile_source(FLIP_SOURCE)
    method = program.method("Main.step")
    profile = Profile()
    for _ in range(5):
        profile.record_branch(method, 7, True)
        profile.record_receiver(method, 9, "C1")
    args, change = QUERIES[query]
    recording = RecordingProfile(profile)
    answer = getattr(recording, query)(method, *args)
    assert recording.facts == [(query, "Main.step", *args, answer)]

    equal = Profile()
    equal.restore(program, profile.snapshot())
    assert validate_facts(tuple(recording.facts), program, equal)
    assert not validate_facts(tuple(recording.facts), program, None)
    change(equal, method)
    assert getattr(equal, query)(method, *args) != answer
    assert not validate_facts(tuple(recording.facts), program, equal)


def test_unrecorded_profile_queries_do_not_reach_the_pipeline():
    recording = RecordingProfile(Profile())
    queries = {name for name in dir(Profile) if not name.startswith("_")}
    assert {"branch_counts", "invocation_count"} <= queries
    for name in sorted(queries - RECORDED_QUERIES
                       - {"taken_probability"}):
        with pytest.raises(AttributeError):
            getattr(recording, name)


def test_unknown_fact_kind_never_validates():
    program = compile_source(FLIP_SOURCE)
    fact = ("invocation_count", "Main.step", 0)
    assert not validate_facts((fact,), program, Profile())


# -- dropped entries -------------------------------------------------------------


def test_dropped_counts_every_rejected_entry(tmp_path):
    """Unreadable, wrong-format and cross-shard files count once each,
    digest mismatches once per entry, and a variant whose facts hold
    but whose payload does not load once per lookup; a missing file is
    a plain miss."""
    program = compile_source(FLIP_SOURCE)
    keys = [CompilationCache.compilation_key(
        program, program.method("Main.step"), CONFIG, True, bci)
        for bci in range(6)]
    writer = CompilationCache(str(tmp_path))
    writer._write_disk(keys[0], [CacheEntry(keys[0], (), b"one"),
                                 CacheEntry(keys[0], (("f",),), b"two")])
    path = writer._graph_path(keys[0])
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:  # flip one entry's blob
        handle.write(data.replace(b"two", b"tw0"))
    writer._publish(writer._graph_path(keys[1]),
                    {"format": CACHE_FORMAT - 1, "key": keys[1],
                     "entries": []})
    writer._publish(writer._graph_path(keys[2]),
                    {"format": CACHE_FORMAT, "key": keys[0],
                     "entries": []})
    os.makedirs(os.path.dirname(writer._graph_path(keys[3])),
                exist_ok=True)
    with open(writer._graph_path(keys[3]), "wb") as handle:
        handle.write(b"not a pickle")

    reader = CompilationCache(str(tmp_path))
    assert [e.blob for e in reader._read_disk(keys[0])] == [b"one"]
    assert reader.stats.dropped == 1
    for key in keys[1:4]:
        assert reader._read_disk(key) == []
    assert reader.stats.dropped == 4
    assert reader.lookup(keys[5], program, None) is None
    assert reader.stats.dropped == 4 and reader.stats.misses == 1

    memory = CompilationCache()
    memory.adopt_entry(CacheEntry(keys[4], (), b"no graph payload"))
    assert memory.lookup(keys[4], program, None) is None
    assert memory.stats.dropped == 1 and memory.stats.misses == 1
