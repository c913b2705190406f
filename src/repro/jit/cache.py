"""Content-addressed compilation cache: compile once, run everywhere.

Compilation in this VM is a pure function of three things:

1. the **program content** — every class, field layout and method
   bytecode the pipeline can observe (inlining reads callee bytecode and
   class-hierarchy facts, so the whole closed world participates:
   :meth:`repro.bytecode.classfile.Program.content_fingerprint`);
2. the **configuration** — which phases run and with which knobs
   (:func:`pipeline_fingerprint`); and
3. the **profile facts the pipeline actually consumed** — branch
   speculation decisions, OSR'd loops and receiver-type speculation,
   recorded by threading a :class:`RecordingProfile` through
   ``build_graph``/``InliningPhase``.

The cache is keyed by (1) + (2) plus whether a profile was present
and the entry point; the compiler derives that key once per
compilation (``Compiler.key``) and hands it to :meth:`lookup` and
:meth:`store`.  Each entry carries its recorded facts (3) as a
*speculation fingerprint*.  A lookup hits only when every recorded
fact still holds against the requesting VM's live profile — the
discipline of speculative-code caches (Deoptless, arXiv:2203.02340;
soundness of cached speculative code is exactly "assumptions still
hold", arXiv:1711.03050).  When a VM invalidates a method after
repeated deoptimization, it also evicts the cache entry it used: the
post-deopt profile changes the facts, so the entry can never validate
again.

Two levels:

- **Level 1** is in-process and shared across VMs (the fuzzer's three
  differential engines, the benchmark harness's per-config VMs).
- **Level 2** is an optional on-disk store (``--cache-dir`` /
  ``$REPRO_CACHE_DIR`` / ``~/.cache/repro-pea``) holding the same
  payloads, so a second harness run starts warm.

Payloads are *detached* pickles of the optimized graph: every reference
to a :class:`~repro.bytecode.classfile.JMethod` / ``JClass`` /
``Program`` is replaced by a symbolic token at pickling time and
re-resolved against the **requesting** program at load time
(:func:`dump_graph_payload` / :func:`load_graph_payload`).  Every hit
therefore yields a private, correctly-bound graph copy — two VMs never
share mutable IR, and a fuzzer engine's hit binds frame states to *its*
method objects so deoptimization re-enters *its* interpreter.  The
storing compiler's backend lowering rides along as one value — the
threaded-code plan's linearized instruction order or the generated
Python source — and is re-linked per VM by the compiler's one lowering
function (``Compiler._lower``).
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import pickle
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from ..bytecode.classfile import JClass, JField, JMethod, Program
from ..bytecode.interpreter import Profile
from ..opt.inlining import InliningPolicy
from .options import CompilerConfig

#: Bump when the payload format changes (disk entries self-invalidate).
#: 2: keys gained the OSR entry-bci dimension; Graph payloads carry
#: ``osr_entry_bci``/``osr_local_slots``.
#: 3: ``escape_summaries`` joined the pipeline key, PEAResult payloads
#: carry materialization events, entries may carry ``escape_summary``
#: facts.
#: 4: payloads gained ``codegen`` — the generated-Python source (text +
#: digest + node-id link tables) of the codegen backend, re-``exec``-ed
#: on warm load.
#: 5: disk files echo their key and carry per-entry SHA-256 blob
#: digests, so the sharded store can be written by many processes and
#: a torn, corrupted or cross-shard file is detected at read time
#: instead of deserializing garbage.
#: 6: the ``entry_bci`` key dimension may be a deoptless continuation
#: descriptor ``("cont", bci, stack_depth, context)`` — specialized
#: continuation variants are cached per dispatch context — and Graph
#: payloads carry ``entry_stack_depth``.
#: 7: the escape knobs collapsed into the ``escape_tier`` policy: the
#: pipeline fingerprint hashes the policy descriptor (replacing the
#: ``escape_analysis``/``stack_allocation``/``escape_summaries``
#: dimensions) and compilation keys gained the per-method *resolved*
#: tier token, so a policy that tiers methods differently over time
#: never serves an artifact across tiers.
#: 8: one ``lowering`` value — ``(backend, payload)``,
#: ``(backend, "unsupported")`` or ``None`` (legacy backend) — replaces
#: the ``plan_order`` and ``codegen`` fields; the ``canonicalize``,
#: ``gvn`` and ``conditional_elimination`` knobs left the pipeline
#: fingerprint (those phases always run) and the inlining policy
#: hashed is always ``InliningPolicy()``.
#: 9: static escape tiers (keys lost the per-method tier token) and the
#: type-speculation knob left the pipeline fingerprint (always on).
CACHE_FORMAT = 9


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or the conventional user cache location."""
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-pea")


def _digest(description: Any) -> str:
    return hashlib.sha256(repr(description).encode("utf-8")).hexdigest()


# -- configuration fingerprints ----------------------------------------------

#: CompilerConfig fields that select/parameterize the graph pipeline.
#: Deliberately excluded: ``execution_backend``, ``cost_model`` and
#: ``collect_node_histogram`` (they shape execution, not the optimized
#: graph — excluding them is what lets the legacy and plan engines share
#: entries), ``compile_threshold`` (when to compile, not what; its
#: effect on the profile is captured by the speculation facts) and
#: ``verify_ir`` (observability only).
_PIPELINE_FIELDS = (
    "inline", "speculate_branches", "speculation_min_samples",
    "pea_iterations", "read_elimination", "pea_virtualize_arrays",
    "pea_fold_checks",
)


def pipeline_fingerprint(config: CompilerConfig) -> str:
    """Hash of every configuration knob that can change the optimized
    graph a compilation produces, the escape-tier token first."""
    description = [("escape_tier", config.escape_tier)]
    description.extend((name, getattr(config, name))
                       for name in _PIPELINE_FIELDS)
    # The inliner's budgets are constants, hashed so that editing them
    # still invalidates disk entries.
    policy = InliningPolicy()
    description.append(("inlining_policy",
                        tuple((f.name, getattr(policy, f.name))
                              for f in fields(policy))))
    return _digest(description)


def full_config_fingerprint(config: CompilerConfig) -> str:
    """Hash of the *entire* configuration, execution knobs included —
    used by the benchmark harness's warm-up records, where compile
    trigger points and simulated costs all matter."""
    from . import vm
    description = [("pipeline", pipeline_fingerprint(config)),
                   ("execution_backend", config.execution_backend),
                   ("compile_threshold", config.compile_threshold),
                   ("osr", config.osr),
                   ("osr_threshold", config.osr_threshold),
                   # The VM's deopt constants are hashed so that
                   # editing them still invalidates warm-up records.
                   ("deopt_invalidate_threshold",
                    vm.DEOPT_INVALIDATE_THRESHOLD),
                   ("deoptless", config.deoptless),
                   ("deoptless_max_variants", vm.DEOPTLESS_MAX_VARIANTS),
                   ("cost_model",
                    tuple((f.name, getattr(config.cost_model, f.name))
                          for f in fields(config.cost_model)))]
    return _digest(description)


# -- speculation facts --------------------------------------------------------


class RecordingProfile:
    """A :class:`Profile` proxy that records every query the compilation
    pipeline makes, together with its answer.

    The recorded ``facts`` are the compilation's *speculation
    fingerprint*: replaying them against another profile and getting the
    same answers proves the pipeline would make the same speculation
    and inlining decisions, so the cached graph is exactly what a fresh
    compilation would produce.  A fact is ``(query, method, *args,
    answer)`` for one of :data:`RECORDED_QUERIES`; any other profile
    query raises ``AttributeError``, so an unrecorded query cannot
    reach a cached graph.

    Facts are recorded at *decision* level (speculation outcome,
    receiver class name), not as raw sample counters: decisions stay
    stable as a steady-state profile keeps counting, so entries keep
    validating across warm-up replays and across runs."""

    def __init__(self, profile: Profile):
        self.profile = profile
        self.facts: List[tuple] = []

    def _record(self, query: str, method: JMethod, *args):
        answer = getattr(self.profile, query)(method, *args)
        self.facts.append((query, method.qualified_name, *args, answer))
        return answer

    # Queried by GraphBuilder._try_speculate.
    def branch_outcome(self, method: JMethod, bci: int,
                       min_samples: int):
        return self._record("branch_outcome", method, bci, min_samples)

    # Queried by GraphBuilder._try_speculate: loop exits stop being
    # profiled once the loop tiers up through OSR.
    def loop_has_osr(self, method: JMethod, bci: int) -> bool:
        return self._record("loop_has_osr", method, bci)

    # Queried by InliningPhase._speculative_target.
    def monomorphic_receiver(self, method: JMethod, bci: int,
                             min_samples: int):
        return self._record("monomorphic_receiver", method, bci,
                            min_samples)

    # Queried by GraphBuilder for If edge probabilities.  Deliberately
    # NOT recorded as a fact: the probability is embedded in the graph
    # as display metadata only (no phase keys an optimization off it),
    # and its exact float changes with every profile tick.  If a phase
    # ever consumes probabilities for real decisions, this must start
    # recording them (quantized) or cached graphs could diverge.
    def taken_probability(self, method: JMethod, bci: int) -> float:
        return self.profile.taken_probability(method, bci)


#: The profile queries :class:`RecordingProfile` records — the fact
#: kinds :func:`validate_facts` replays.
RECORDED_QUERIES = frozenset({"branch_outcome", "loop_has_osr",
                              "monomorphic_receiver"})


def validate_facts(facts: Tuple[tuple, ...], program: Program,
                   profile: Optional[Profile]) -> bool:
    """True when every recorded fact holds verbatim against *profile*
    (method names resolved in *program*).

    A profile fact ``(query, method, *args, answer)`` holds when
    ``getattr(profile, query)(method, *args) == answer``.
    ``escape_summary`` facts are program facts, not profile facts: they
    are revalidated by recomputing the summary database against the
    requesting program (memoized there), independent of any profile.
    """
    try:
        for query, qualified, *args in facts:
            method = program.method(qualified)
            if query == "escape_summary":
                from ..analysis.summaries import summaries_for
                holds = summaries_for(program).digest(method) == args[0]
            else:
                *args, answer = args
                holds = (profile is not None
                         and query in RECORDED_QUERIES
                         and getattr(profile, query)(method, *args)
                         == answer)
            if not holds:
                return False
    except Exception:  # noqa: BLE001 - unresolved method etc.
        return False
    return True


# -- detached graph payloads --------------------------------------------------


class _DetachingPickler(pickle.Pickler):
    """Pickles a graph with program-owned objects replaced by symbolic
    tokens, so the payload is program-instance independent."""

    def __init__(self, file, program: Program):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._program = program

    def persistent_id(self, obj):
        # Called for every object pickled, so dispatch on the exact type
        # (the program model classes have no subclasses).
        kind = type(obj)
        if kind is JMethod:
            if obj.holder is None:
                raise pickle.PicklingError(
                    f"method {obj.name} has no holder class")
            return ("jmethod", obj.holder.name, obj.name)
        if kind is JClass:
            return ("jclass", obj.name)
        if kind is Program:
            return ("program",)
        if kind is JField:
            for jclass in self._program.classes.values():
                if jclass.fields.get(obj.name) is obj:
                    return ("jfield", jclass.name, obj.name)
            raise pickle.PicklingError(f"field {obj.name} not found")
        return None


class _AttachingUnpickler(pickle.Unpickler):
    """Resolves the tokens of :class:`_DetachingPickler` against the
    requesting program, so loaded graphs bind to *its* methods."""

    def __init__(self, file, program: Program):
        super().__init__(file)
        self._program = program

    def persistent_load(self, token):
        kind = token[0]
        if kind == "jmethod":
            return self._program.lookup_class(token[1]).methods[token[2]]
        if kind == "jclass":
            return self._program.lookup_class(token[1])
        if kind == "program":
            return self._program
        if kind == "jfield":
            return self._program.lookup_class(token[1]).fields[token[2]]
        raise pickle.UnpicklingError(f"unknown token {token!r}")


def dump_graph_payload(payload: Any, program: Program) -> bytes:
    buffer = io.BytesIO()
    _DetachingPickler(buffer, program).dump(payload)
    return buffer.getvalue()


def load_graph_payload(blob: bytes, program: Program) -> Any:
    return _AttachingUnpickler(io.BytesIO(blob), program).load()


# -- the cache ----------------------------------------------------------------


@dataclass
class CacheStats:
    """Counters for one :class:`CompilationCache` instance."""

    hits: int = 0
    misses: int = 0
    #: Candidates whose speculation facts no longer held.
    validation_failures: int = 0
    evictions: int = 0
    stores: int = 0
    #: Deoptless continuation variants stored (a subset of ``stores``).
    continuation_stores: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    #: Entries rejected as unusable: disk files that do not unpickle,
    #: carry another format or echo another key; entries whose blob
    #: digest does not match; variants whose facts hold but whose
    #: payload does not load; warm-up record files that do not unpickle
    #: or carry another format.  A missing file is not a drop.
    dropped: int = 0
    lookup_seconds: float = 0.0
    store_seconds: float = 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta(self, before: Dict[str, Any]) -> Dict[str, Any]:
        return {name: value - before[name]
                for name, value in self.snapshot().items()}

    def add(self, snapshot: Dict[str, Any]) -> None:
        """Count another cache's :meth:`snapshot` into these counters."""
        for name, value in snapshot.items():
            setattr(self, name, getattr(self, name) + value)


@dataclass
class CacheEntry:
    """One stored compilation variant under one key."""

    key: str
    facts: Tuple[tuple, ...]
    blob: bytes
    meta: Dict[str, Any] = field(default_factory=dict)


class CompilationCache:
    """Two-level content-addressed store of optimized graphs.

    Safe to share across VMs and programs: keys are content hashes,
    hits are validated against the requesting VM's live profile, and
    every hit materializes a private graph copy.  Also safe to share
    across *threads* — every mutation of the in-memory level runs under
    one lock — and across *processes* through the disk level: the
    on-disk store is sharded by key prefix, every write is a
    lockfile-free atomic rename, and every read re-verifies the file's
    key echo and per-entry blob digests, so a concurrent writer can
    never make a reader observe a torn, corrupted or cross-shard
    payload."""

    def __init__(self, cache_dir: Optional[str] = None):
        self.cache_dir = cache_dir
        self.stats = CacheStats()
        self._lock = threading.RLock()
        #: Distinguishes temporary files of concurrent writer threads.
        self._tmp_counter = itertools.count()
        #: key -> list of entries (variants differ in their facts).
        self._memory: Dict[str, List[CacheEntry]] = {}
        #: Keys whose disk file has already been consulted.
        self._disk_seen: set = set()
        #: Harness warm-up records (level 1; mirrored to disk).
        self._harness: Dict[str, Dict[str, Any]] = {}

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def compilation_key(program: Program, method: JMethod,
                        config: CompilerConfig, profiled: bool,
                        entry_bci=None) -> str:
        """*entry_bci* distinguishes on-stack-replacement variants (one
        per loop header) from the normal method-entry compilation
        (``None``) — they are different graphs of the same method.  It
        may also be a deoptless continuation descriptor
        ``("cont", bci, stack_depth, context)``: the dispatch context is
        part of the key, so specialized continuation variants of one
        deopt site cache independently.  The escape tier is part of
        the pipeline fingerprint, so no entry is ever served across
        ``escape_tier`` values."""
        return _digest((CACHE_FORMAT, program.content_fingerprint(),
                        method.qualified_name,
                        pipeline_fingerprint(config), profiled,
                        entry_bci))

    # -- lookup/store/evict by key ------------------------------------------

    def lookup(self, key: str, program: Program,
               profile: Optional[Profile]
               ) -> Optional[Tuple[CacheEntry, Dict[str, Any]]]:
        """The first variant under *key* whose facts hold against
        *profile* and whose payload loads into *program*, with that
        payload (a private graph copy bound to *program*)."""
        started = time.perf_counter()
        try:
            with self._lock:
                entries = self._entries(key)
                for entry in entries:
                    if not validate_facts(entry.facts, program, profile):
                        continue
                    try:
                        payload = load_graph_payload(entry.blob, program)
                    except Exception:  # noqa: BLE001 - unresolvable
                        self.stats.dropped += 1
                        continue
                    self.stats.hits += 1
                    return entry, payload
                if entries:
                    self.stats.validation_failures += 1
                self.stats.misses += 1
                return None
        finally:
            self.stats.lookup_seconds += time.perf_counter() - started

    def store(self, key: str, program: Program, method: JMethod,
              facts: Tuple[tuple, ...], payload: Dict[str, Any],
              entry_bci=None) -> Optional[CacheEntry]:
        """Store *payload* (``graph``, ``ea_result``, ``node_count``,
        ``lowering``) detached from *program* as the variant of *key*
        with speculation *facts*; ``None`` when it does not pickle."""
        started = time.perf_counter()
        try:
            try:
                blob = dump_graph_payload(payload, program)
            except Exception:  # noqa: BLE001
                return None  # unpicklable graph: simply don't cache
            entry = CacheEntry(key, tuple(facts), blob,
                               {"method": method.qualified_name,
                                "entry_bci": entry_bci})
            self.adopt_entry(entry)
            if isinstance(entry_bci, tuple):
                self.stats.continuation_stores += 1
            return entry
        finally:
            self.stats.store_seconds += time.perf_counter() - started

    def adopt_entry(self, entry: CacheEntry) -> None:
        """Install *entry* under its key, replacing any variant with
        equal facts (:meth:`store`'s last step)."""
        with self._lock:
            entries = self._entries(entry.key)
            entries[:] = [e for e in entries if e.facts != entry.facts]
            entries.append(entry)
            self.stats.stores += 1
            self._write_disk(entry.key, entries)

    def evict(self, key: str, facts: Tuple[tuple, ...]) -> None:
        """Drop the variant of *key* whose speculation facts are
        *facts* — deopt invalidation proved them wrong, so the entry
        could never validate again (a VM retiring its code)."""
        facts = tuple(map(tuple, facts))
        with self._lock:
            entries = self._entries(key)
            remaining = [e for e in entries if e.facts != facts]
            if len(remaining) != len(entries):
                self._memory[key] = remaining
                self.stats.evictions += 1
                self._write_disk(key, remaining)

    def _entries(self, key: str) -> List[CacheEntry]:
        entries = self._memory.get(key)
        if entries is None:
            entries = self._memory[key] = []
        if self.cache_dir and key not in self._disk_seen:
            self._disk_seen.add(key)
            for entry in self._read_disk(key):
                if all(e.facts != entry.facts for e in entries):
                    entries.append(entry)
                    self.stats.disk_hits += 1
        return entries

    # -- level 2 ------------------------------------------------------------
    #
    # The disk store is sharded by the first two hex digits of the key
    # (256 shard directories) so concurrent writers spread their
    # directory traffic, and is written lockfile-free: each write goes
    # to a uniquely named temporary file in the same shard and is
    # published with one atomic ``os.replace``.  Readers re-verify the
    # file's key echo (a file moved or renamed across shards is
    # rejected wholesale) and each entry's SHA-256 blob digest (a
    # corrupted or torn payload is rejected per entry).

    def _shard(self, key: str) -> str:
        return key[:2]

    def _graph_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, "graphs", self._shard(key),
                            f"{key}.pkl")

    def _read_disk(self, key: str) -> List[CacheEntry]:
        """The digest-valid entries of *key*'s file.  A missing file is
        a plain miss; every rejected file or entry counts as dropped."""
        try:
            with open(self._graph_path(key), "rb") as handle:
                stored = pickle.load(handle)
            if stored.get("format") != CACHE_FORMAT \
                    or stored.get("key") != key:
                # Another format, or a cross-shard/renamed file.
                raise ValueError("rejected wholesale")
            entries = [CacheEntry(key, tuple(map(tuple, e["facts"])),
                                  e["blob"], e.get("meta", {}))
                       for e in stored["entries"]
                       if hashlib.sha256(e["blob"]).hexdigest()
                       == e.get("digest")]
            self.stats.dropped += len(stored["entries"]) - len(entries)
            return entries
        except FileNotFoundError:
            return []
        except Exception:  # noqa: BLE001 - unreadable file
            self.stats.dropped += 1
            return []

    def _write_disk(self, key: str, entries: List[CacheEntry]) -> None:
        if not self.cache_dir:
            return
        stored = {"format": CACHE_FORMAT, "key": key,
                  "entries": [{"facts": e.facts, "blob": e.blob,
                               "meta": e.meta,
                               "digest": hashlib.sha256(
                                   e.blob).hexdigest()}
                              for e in entries]}
        if self._publish(self._graph_path(key), stored):
            self.stats.disk_writes += 1

    def _publish(self, path: str, stored: Dict[str, Any]) -> bool:
        """Pickle *stored* to a temporary file named for this process,
        thread and write, then move it onto *path* with one atomic
        ``os.replace``.  False when the disk refused (the disk layer is
        best-effort)."""
        tmp = (f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
               f".{next(self._tmp_counter)}")
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(stored, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
            return True
        except OSError:
            return False

    # -- harness warm-up records --------------------------------------------

    def _harness_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, "harness", f"{key}.pkl")

    def load_harness_record(self, key: str) -> Optional[Dict[str, Any]]:
        """The warm-up record stored under *key*, or ``None``.  A
        missing file is a plain miss; a rejected one counts as
        dropped, like a graph file."""
        record = self._harness.get(key)
        if record is not None:
            return record
        if not self.cache_dir:
            return None
        try:
            with open(self._harness_path(key), "rb") as handle:
                stored = pickle.load(handle)
            if stored.get("format") != CACHE_FORMAT:
                raise ValueError("another format")
            record = stored["record"]
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 - unreadable record
            self.stats.dropped += 1
            return None
        self._harness[key] = record
        return record

    def store_harness_record(self, key: str,
                             record: Dict[str, Any]) -> None:
        self._harness[key] = record
        if self.cache_dir:
            self._publish(self._harness_path(key),
                          {"format": CACHE_FORMAT, "record": record})


# -- disk maintenance (the `repro cache` subcommand) --------------------------


def disk_stats(cache_dir: str) -> Dict[str, Any]:
    """Entry/byte counts for one on-disk cache directory.

    Graph files are opened (best-effort) to split the variant count
    into method-entry graphs vs deoptless continuations — a
    continuation's ``entry_bci`` metadata is the ``("cont", ...)``
    descriptor tuple, where plain entries carry an int bci or none."""
    summary = {"dir": cache_dir, "graph_files": 0, "graph_bytes": 0,
               "graph_entries": 0, "continuation_entries": 0,
               "harness_files": 0, "harness_bytes": 0}
    for section, files_key, bytes_key in (
            ("graphs", "graph_files", "graph_bytes"),
            ("harness", "harness_files", "harness_bytes")):
        root = os.path.join(cache_dir, section)
        for dirpath, __, filenames in os.walk(root):
            for name in filenames:
                if not name.endswith(".pkl"):
                    continue
                summary[files_key] += 1
                path = os.path.join(dirpath, name)
                try:
                    summary[bytes_key] += os.path.getsize(path)
                except OSError:
                    continue
                if section != "graphs":
                    continue
                try:
                    with open(path, "rb") as handle:
                        stored = pickle.load(handle)
                    entries = stored.get("entries", [])
                except Exception:
                    continue
                summary["graph_entries"] += len(entries)
                summary["continuation_entries"] += sum(
                    1 for e in entries
                    if isinstance(e.get("meta", {}).get("entry_bci"),
                                  (tuple, list)))
    return summary


def clear_disk(cache_dir: str) -> int:
    """Delete all cache files under *cache_dir*; returns files removed."""
    import shutil
    removed = 0
    for section in ("graphs", "harness"):
        root = os.path.join(cache_dir, section)
        if not os.path.isdir(root):
            continue
        for dirpath, __, filenames in os.walk(root):
            removed += sum(1 for n in filenames if n.endswith(".pkl"))
        shutil.rmtree(root, ignore_errors=True)
    return removed
