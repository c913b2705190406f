"""Property tests for the sharded on-disk cache (CACHE_FORMAT 5): a
store written lockfree by many concurrent writers must never let a
reader observe a torn, corrupted or cross-shard payload — the digest
echo rejects per-entry corruption, the key echo rejects files moved
between shards, and atomic publication makes every read some writer's
complete snapshot."""

import hashlib
import os
import sys
import tempfile
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jit.cache import CacheEntry, CompilationCache


def _key(seed: int) -> str:
    return hashlib.sha256(b"shard-key-%d" % seed).hexdigest()


def _entries(key, blobs):
    return [CacheEntry(key, (("fact", index),), blob)
            for index, blob in enumerate(blobs)]


# -- round trip ----------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(blobs=st.lists(st.binary(min_size=1, max_size=128),
                      min_size=1, max_size=4),
       seed=st.integers(min_value=0, max_value=2 ** 32))
def test_disk_round_trip_is_exact(blobs, seed):
    with tempfile.TemporaryDirectory() as tmp:
        cache = CompilationCache(tmp)
        key = _key(seed)
        written = _entries(key, blobs)
        cache._write_disk(key, written)
        read = CompilationCache(tmp)._read_disk(key)
        assert [(e.key, e.facts, e.blob) for e in read] == \
            [(e.key, e.facts, e.blob) for e in written]


# -- corruption ----------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(blobs=st.lists(st.binary(min_size=1, max_size=128),
                      min_size=1, max_size=4),
       position=st.integers(min_value=0),
       bit=st.integers(min_value=0, max_value=7))
def test_injected_corruption_never_returns_a_wrong_payload(
        blobs, position, bit):
    """Flip any single bit anywhere in the shard file: every entry a
    reader still gets back must carry one of the exact blobs that were
    written — a corrupted payload is dropped (digest check), a
    corrupted file rejected (key echo / unpicklable), never returned
    as garbage."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = CompilationCache(tmp)
        key = _key(1)
        written = _entries(key, blobs)
        cache._write_disk(key, written)
        path = cache._graph_path(key)
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        data[position % len(data)] ^= (1 << bit)
        with open(path, "wb") as handle:
            handle.write(bytes(data))

        read = CompilationCache(tmp)._read_disk(key)
        valid_blobs = {entry.blob for entry in written}
        for entry in read:
            assert entry.key == key
            assert entry.blob in valid_blobs


def test_cross_shard_file_is_rejected_wholesale():
    """A shard file copied or renamed under a different key (even in
    another shard directory) fails the key echo and is ignored."""
    import os
    import shutil
    with tempfile.TemporaryDirectory() as tmp:
        cache = CompilationCache(tmp)
        key_a = _key(2)
        key_b = next(_key(seed) for seed in range(3, 1000)
                     if _key(seed)[:2] != key_a[:2])
        cache._write_disk(key_a, _entries(key_a, [b"payload-a"]))
        path_b = cache._graph_path(key_b)
        os.makedirs(os.path.dirname(path_b), exist_ok=True)
        shutil.copyfile(cache._graph_path(key_a), path_b)

        fresh = CompilationCache(tmp)
        assert fresh._read_disk(key_b) == []
        assert [e.blob for e in fresh._read_disk(key_a)] == [b"payload-a"]


# -- concurrent writers --------------------------------------------------------


def test_concurrent_writers_never_tear_reads():
    """Several cache instances (stand-ins for VM processes sharing a
    cache directory) hammer the same key's shard file while readers poll it:
    every read is some writer's complete, digest-valid snapshot.  Lost
    updates are allowed (last atomic rename wins); torn or mixed
    payloads are not."""
    rounds = 40
    writers = 4
    with tempfile.TemporaryDirectory() as tmp:
        key = _key(5)
        all_blobs = set()
        for writer in range(writers):
            for round_ in range(rounds):
                all_blobs.add(b"w%d-r%d" % (writer, round_))
        failures = []
        stop = threading.Event()

        def write_loop(writer: int) -> None:
            cache = CompilationCache(tmp)
            for round_ in range(rounds):
                blob = b"w%d-r%d" % (writer, round_)
                cache._write_disk(key, [
                    CacheEntry(key, (("writer", writer),), blob),
                    CacheEntry(key, (("round", round_),), blob)])

        def read_loop() -> None:
            cache = CompilationCache(tmp)
            while not stop.is_set():
                for entry in cache._read_disk(key):
                    if entry.key != key:
                        failures.append(f"wrong key {entry.key}")
                    if entry.blob not in all_blobs:
                        failures.append(f"torn blob {entry.blob!r}")

        readers = [threading.Thread(target=read_loop) for _ in range(2)]
        for thread in readers:
            thread.start()
        write_threads = [threading.Thread(target=write_loop, args=(w,))
                         for w in range(writers)]
        for thread in write_threads:
            thread.start()
        for thread in write_threads:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not failures, failures[:5]
        # The final state is the last completed write of some writer.
        final = CompilationCache(tmp)._read_disk(key)
        assert len(final) == 2
        assert final[0].blob in all_blobs


def test_threads_sharing_a_cache_publish_whole_harness_records(tmp_path):
    """Threads of one process storing warm-up records under one key
    through one cache: each write goes through its own temporary file,
    so a reader only ever loads some writer's complete record and no
    temporary file is left behind."""
    writers, rounds = 4, 15
    cache = CompilationCache(str(tmp_path))
    path = cache._harness_path("k")
    records = [{"writer": w, "round": r, "pad": "x" * 100_000}
               for w in range(writers) for r in range(rounds)]
    failures = []
    stop = threading.Event()

    def write_loop(writer: int) -> None:
        for round_ in range(rounds):
            cache.store_harness_record(
                "k", records[writer * rounds + round_])

    def read_loop() -> None:
        while not stop.is_set():
            if not os.path.exists(path):
                continue
            record = CompilationCache(str(tmp_path)) \
                .load_harness_record("k")
            if record not in records:
                failures.append("torn or unreadable record")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader = threading.Thread(target=read_loop)
        reader.start()
        threads = [threading.Thread(target=write_loop, args=(w,))
                   for w in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + [reader])
    assert not failures, failures[:3]
    assert CompilationCache(str(tmp_path)).load_harness_record("k") \
        in records
    assert os.listdir(os.path.dirname(path)) == ["k.pkl"]


def test_adopt_entry_publishes_variants_across_instances(tmp_path):
    """adopt_entry (store's install step) round-trips through the
    shard file: a second instance sees every variant, validated."""
    cache_dir = str(tmp_path / "cache")
    key = _key(6)
    first = CompilationCache(cache_dir)
    first.adopt_entry(CacheEntry(key, (("f", 1),), b"one"))
    first.adopt_entry(CacheEntry(key, (("f", 2),), b"two"))

    second = CompilationCache(cache_dir)
    with second._lock:
        variants = {entry.facts: entry.blob
                    for entry in second._entries(key)}
    assert variants == {(("f", 1),): b"one", (("f", 2),): b"two"}
    assert second.stats.disk_hits == 2
