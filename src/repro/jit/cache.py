"""Content-addressed compilation cache: compile once, run everywhere.

Compilation in this VM is a pure function of three things:

1. the **program content** — every class, field layout and method
   bytecode the pipeline can observe (inlining reads callee bytecode and
   class-hierarchy facts, so the whole closed world participates:
   :meth:`repro.bytecode.classfile.Program.content_fingerprint`);
2. the **configuration** — which phases run and with which knobs
   (:func:`pipeline_fingerprint`); and
3. the **profile facts the pipeline actually consumed** — branch-count
   speculation decisions, branch probabilities and receiver-type
   speculation, recorded by threading a :class:`RecordingProfile`
   through ``build_graph``/``InliningPhase``.

The cache is keyed by (1) + (2) plus whether a profile was present;
each entry carries its recorded facts (3) as a *speculation
fingerprint*.  A lookup hits only when every recorded fact still holds
against the requesting VM's live profile — the discipline of
speculative-code caches (Deoptless, arXiv:2203.02340; soundness of
cached speculative code is exactly "assumptions still hold",
arXiv:1711.03050).  When a VM invalidates a method after repeated
deoptimization, it also evicts the cache entry it used: the post-deopt
profile changes the facts, so the entry can never validate again.

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
threaded-code lowering is persisted as its pre-lowering table (the
linearized instruction order) and re-linked per VM
(:meth:`repro.runtime.plan.ExecutionPlan.from_payload`).
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
from ..ir.graph import Graph
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
#: digests, so the sharded store can be written by many processes
#: (compile-service fleet) and a torn, corrupted or cross-shard file is
#: detected at read time instead of deserializing garbage.
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
CACHE_FORMAT = 7


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
#: entries), ``compile_threshold`` / ``deopt_invalidate_threshold``
#: (when to compile, not what; their effect on the profile is captured
#: by the speculation facts), ``verify_ir`` and ``compile_bailout``
#: (observability only).
_PIPELINE_FIELDS = (
    "inline", "canonicalize", "gvn", "speculate_branches",
    "speculation_min_samples", "speculate_types", "pea_iterations",
    "read_elimination", "conditional_elimination",
    "pea_virtualize_arrays", "pea_fold_checks",
)


def pipeline_fingerprint(config: CompilerConfig) -> str:
    """Hash of every configuration knob that can change the optimized
    graph a compilation produces.

    The escape tier enters twice: the *policy* descriptor here (so two
    configs with different policies never share a namespace), and the
    per-method *resolved* tier token in each compilation key (so one
    ``"auto"`` policy resolving a method differently over time — cold
    conngraph now, hot PEA later — never serves an artifact across
    tiers)."""
    description = [("escape_tier", config.tier_descriptor())]
    description.extend((name, getattr(config, name))
                       for name in _PIPELINE_FIELDS)
    policy = config.inlining_policy
    description.append(("inlining_policy",
                        tuple((f.name, getattr(policy, f.name))
                              for f in fields(policy))))
    return _digest(description)


def full_config_fingerprint(config: CompilerConfig) -> str:
    """Hash of the *entire* configuration, execution knobs included —
    used by the benchmark harness's warm-up records, where compile
    trigger points and simulated costs all matter."""
    description = [("pipeline", pipeline_fingerprint(config)),
                   ("execution_backend", config.execution_backend),
                   ("compile_service", config.compile_service),
                   ("compile_service_wait", config.compile_service_wait),
                   ("compile_threshold", config.compile_threshold),
                   ("osr", config.osr),
                   ("osr_threshold", config.osr_threshold),
                   ("deopt_invalidate_threshold",
                    config.deopt_invalidate_threshold),
                   ("deoptless", config.deoptless),
                   ("deoptless_max_variants",
                    config.deoptless_max_variants),
                   ("compile_bailout", config.compile_bailout),
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
    compilation would produce.

    Facts are recorded at *decision* level (speculation outcome,
    receiver class name), not as raw sample counters: decisions stay
    stable as a steady-state profile keeps counting, so entries keep
    validating across warm-up replays and across runs."""

    def __init__(self, profile: Profile):
        self.profile = profile
        self.facts: List[tuple] = []

    # Queried by GraphBuilder._try_speculate.
    def branch_outcome(self, method: JMethod, bci: int,
                       min_samples: int):
        outcome = self.profile.branch_outcome(method, bci, min_samples)
        self.facts.append(("branch_outcome", method.qualified_name, bci,
                           min_samples, outcome))
        return outcome

    # Defensive: nothing in the pipeline reads raw counts today, but a
    # phase that starts to would get an exact-count (always-safe) fact.
    def branch_counts(self, method: JMethod, bci: int):
        counts = self.profile.branch_counts(method, bci)
        self.facts.append(("branch_counts", method.qualified_name, bci,
                           counts))
        return counts

    # Queried by GraphBuilder for If edge probabilities.  Deliberately
    # NOT recorded as a fact: the probability is embedded in the graph
    # as display metadata only (no phase keys an optimization off it),
    # and its exact float changes with every profile tick.  If a phase
    # ever consumes probabilities for real decisions, this must start
    # recording them (quantized) or cached graphs could diverge.
    def taken_probability(self, method: JMethod, bci: int) -> float:
        return self.profile.taken_probability(method, bci)

    # Queried by GraphBuilder._try_speculate: loop exits stop being
    # profiled once the loop tiers up through OSR.
    def loop_has_osr(self, method: JMethod, bci: int) -> bool:
        outcome = self.profile.loop_has_osr(method, bci)
        self.facts.append(("loop_has_osr", method.qualified_name, bci,
                           outcome))
        return outcome

    # Queried by InliningPhase._speculative_target.
    def monomorphic_receiver(self, method: JMethod, bci: int,
                             min_samples: int):
        receiver = self.profile.monomorphic_receiver(method, bci,
                                                     min_samples)
        self.facts.append(("monomorphic_receiver", method.qualified_name,
                           bci, min_samples, receiver))
        return receiver

    # Queried by threshold-derived policies (and harness probes).
    def invocation_count(self, method: JMethod) -> int:
        count = self.profile.invocation_count(method)
        self.facts.append(("invocation_count", method.qualified_name,
                           count))
        return count


def validate_facts(facts: Tuple[tuple, ...], program: Program,
                   profile: Optional[Profile]) -> bool:
    """True when every recorded profile fact holds verbatim against
    *profile* (method names resolved in *program*).

    ``escape_summary`` facts are program facts, not profile facts: they
    are revalidated by recomputing the summary database against the
    requesting program (memoized there), independent of any profile.
    """
    summary_facts = [fact for fact in facts
                     if fact[0] == "escape_summary"]
    if summary_facts:
        try:
            from ..analysis.summaries import summaries_for
            database = summaries_for(program)
            for __, qualified, expected in summary_facts:
                if database.digest(
                        program.method(qualified)) != expected:
                    return False
        except Exception:  # noqa: BLE001 - unresolved method etc.
            return False
        facts = tuple(fact for fact in facts
                      if fact[0] != "escape_summary")
    if profile is None:
        return not facts
    try:
        for fact in facts:
            kind = fact[0]
            if kind == "branch_outcome":
                __, qualified, bci, min_samples, expected = fact
                actual = profile.branch_outcome(
                    program.method(qualified), bci, min_samples)
            elif kind == "branch_counts":
                __, qualified, bci, expected = fact
                actual = profile.branch_counts(program.method(qualified),
                                               bci)
            elif kind == "loop_has_osr":
                __, qualified, bci, expected = fact
                actual = profile.loop_has_osr(
                    program.method(qualified), bci)
            elif kind == "monomorphic_receiver":
                __, qualified, bci, min_samples, expected = fact
                actual = profile.monomorphic_receiver(
                    program.method(qualified), bci, min_samples)
            elif kind == "invocation_count":
                __, qualified, expected = fact
                actual = profile.invocation_count(
                    program.method(qualified))
            else:
                return False
            if actual != expected:
                return False
    except Exception:
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
    lookup_seconds: float = 0.0
    store_seconds: float = 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta(self, before: Dict[str, Any]) -> Dict[str, Any]:
        return {name: value - before[name]
                for name, value in self.snapshot().items()}


@dataclass
class CachedCompilation:
    """One validated hit: a private graph copy bound to the requesting
    program, plus everything needed to rebuild a CompilationResult."""

    graph: Graph
    ea_result: Any
    node_count: int
    #: Linearized node-id order of the threaded-code plan,
    #: ``"unsupported"`` when plan lowering failed at store time, or
    #: ``None`` when the storing compiler never built a plan.
    plan_order: Any
    #: Generated-Python payload of the codegen backend
    #: (:meth:`repro.runtime.codegen.CodegenPlan.payload`),
    #: ``"unsupported"`` when structurizing failed at store time, or
    #: ``None`` when the storing compiler never tried.
    codegen: Any
    #: Handle for eviction (used by the VM on deopt invalidation).
    entry: "CacheEntry"


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
    across *threads* (the compile service's workers) — every mutation
    of the in-memory level runs under one lock — and across *processes*
    through the disk level: the on-disk store is sharded by key prefix,
    every write is a lockfile-free atomic rename, and every read
    re-verifies the file's key echo and per-entry blob digests, so a
    concurrent writer can never make a reader observe a torn,
    corrupted or cross-shard payload."""

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
                        entry_bci=None, tier: Optional[str] = None
                        ) -> str:
        """*entry_bci* distinguishes on-stack-replacement variants (one
        per loop header) from the normal method-entry compilation
        (``None``) — they are different graphs of the same method.  It
        may also be a deoptless continuation descriptor
        ``("cont", bci, stack_depth, context)``: the dispatch context is
        part of the key, so specialized continuation variants of one
        deopt site cache independently.

        *tier* is the **resolved** escape-tier token this compilation
        runs under (``Compiler.resolve_tier_for``); ``None`` resolves a
        static tier from the config.  Keying on the resolution — not
        just the policy — is what guarantees no entry is ever served
        across ``escape_tier`` values."""
        if tier is None:
            spec = config.static_tier_spec()
            tier = spec.token() if spec is not None else "?"
        return _digest((CACHE_FORMAT, program.content_fingerprint(),
                        method.qualified_name,
                        pipeline_fingerprint(config), profiled,
                        entry_bci, tier))

    # -- lookup/store -------------------------------------------------------

    def lookup(self, program: Program, method: JMethod,
               config: CompilerConfig, profile: Optional[Profile],
               entry_bci: Optional[int] = None,
               tier: Optional[str] = None
               ) -> Optional[CachedCompilation]:
        started = time.perf_counter()
        try:
            with self._lock:
                return self._lookup_locked(program, method, config,
                                           profile, entry_bci, tier)
        finally:
            self.stats.lookup_seconds += time.perf_counter() - started

    def _lookup_locked(self, program, method, config, profile,
                       entry_bci, tier=None
                       ) -> Optional[CachedCompilation]:
            key = self.compilation_key(program, method, config,
                                       profile is not None, entry_bci,
                                       tier)
            entries = self._entries(key)
            saw_candidate = False
            for entry in entries:
                if not validate_facts(entry.facts, program, profile):
                    saw_candidate = True
                    continue
                try:
                    payload = load_graph_payload(entry.blob, program)
                except Exception:
                    # Unresolvable token (program drifted): unusable.
                    saw_candidate = True
                    continue
                self.stats.hits += 1
                return CachedCompilation(
                    payload["graph"], payload["ea_result"],
                    payload["node_count"], payload["plan_order"],
                    payload.get("codegen"), entry)
            if saw_candidate:
                self.stats.validation_failures += 1
            self.stats.misses += 1
            return None

    def store(self, program: Program, method: JMethod,
              config: CompilerConfig, profile: Optional[Profile],
              facts: Tuple[tuple, ...], graph: Graph, ea_result: Any,
              node_count: int, plan_order: Any,
              entry_bci: Optional[int] = None,
              codegen: Any = None,
              tier: Optional[str] = None) -> Optional[CacheEntry]:
        started = time.perf_counter()
        try:
            key = self.compilation_key(program, method, config,
                                       profile is not None, entry_bci,
                                       tier)
            try:
                blob = dump_graph_payload(
                    {"graph": graph, "ea_result": ea_result,
                     "node_count": node_count, "plan_order": plan_order,
                     "codegen": codegen},
                    program)
            except Exception:
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
        """Install an externally produced entry (a compile-service
        reply) under its key, replacing any variant with equal facts."""
        with self._lock:
            entries = self._entries(entry.key)
            entries[:] = [e for e in entries if e.facts != entry.facts]
            entries.append(entry)
            self.stats.stores += 1
            self._write_disk(entry.key, entries)

    def evict(self, entry: Optional[CacheEntry]) -> None:
        """Drop one variant — used when deopt invalidation proves its
        speculation wrong (the post-deopt profile changes the facts, so
        the entry could never validate again anyway)."""
        if entry is None:
            return
        with self._lock:
            entries = self._memory.get(entry.key)
            if not entries:
                return
            remaining = [e for e in entries if e is not entry
                         and e.facts != entry.facts]
            if len(remaining) != len(entries):
                self._memory[entry.key] = remaining
                self.stats.evictions += 1
                self._write_disk(entry.key, remaining)

    def evict_variant(self, key: str, facts: Tuple[tuple, ...]) -> bool:
        """Drop the variant of *key* whose facts match — the
        compile-service side of deopt invalidation, where the client
        names the entry instead of holding it."""
        with self._lock:
            entries = self._entries(key)
            facts = tuple(map(tuple, facts))
            remaining = [e for e in entries if e.facts != facts]
            if len(remaining) == len(entries):
                return False
            self._memory[key] = remaining
            self.stats.evictions += 1
            self._write_disk(key, remaining)
            return True

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
    # (256 shard directories) so a fleet of writers spreads its
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
        path = self._graph_path(key)
        try:
            with open(path, "rb") as handle:
                stored = pickle.load(handle)
            if stored.get("format") != CACHE_FORMAT:
                return []
            if stored.get("key") != key:
                return []  # cross-shard/renamed file: reject wholesale
            return [CacheEntry(key, tuple(map(tuple, e["facts"])),
                               e["blob"], e.get("meta", {}))
                    for e in stored["entries"]
                    if hashlib.sha256(e["blob"]).hexdigest()
                    == e.get("digest")]
        except Exception:
            return []

    def _write_disk(self, key: str, entries: List[CacheEntry]) -> None:
        if not self.cache_dir:
            return
        path = self._graph_path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            stored = {"format": CACHE_FORMAT, "key": key,
                      "entries": [{"facts": e.facts, "blob": e.blob,
                                   "meta": e.meta,
                                   "digest": hashlib.sha256(
                                       e.blob).hexdigest()}
                                  for e in entries]}
            tmp = (f"{path}.tmp.{os.getpid()}"
                   f".{threading.get_ident()}"
                   f".{next(self._tmp_counter)}")
            with open(tmp, "wb") as handle:
                pickle.dump(stored, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
            self.stats.disk_writes += 1
        except OSError:
            pass  # disk layer is best-effort

    # -- harness warm-up records --------------------------------------------

    def _harness_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, "harness", f"{key}.pkl")

    def load_harness_record(self, key: str) -> Optional[Dict[str, Any]]:
        record = self._harness.get(key)
        if record is not None:
            return record
        if not self.cache_dir:
            return None
        try:
            with open(self._harness_path(key), "rb") as handle:
                stored = pickle.load(handle)
            if stored.get("format") != CACHE_FORMAT:
                return None
            record = stored["record"]
            self._harness[key] = record
            return record
        except Exception:
            return None

    def store_harness_record(self, key: str,
                             record: Dict[str, Any]) -> None:
        self._harness[key] = record
        if not self.cache_dir:
            return
        path = self._harness_path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as handle:
                pickle.dump({"format": CACHE_FORMAT, "record": record},
                            handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            pass


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
