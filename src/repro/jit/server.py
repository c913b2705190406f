"""The compile service: one shared JIT process serving many VMs.

The paper's compiler is a *service* inside the VM — one background JIT
compiles for every thread while execution continues in lower tiers.
This module scales that shape out of the process: a persistent
:class:`CompileService` owns one sharded, digest-checked
:class:`~repro.jit.cache.CompilationCache` and compiles on behalf of
any number of concurrent VM clients (:mod:`repro.jit.client`), which
keep *interpreting* past the tier-up threshold and atomically install
the compiled payload when the reply arrives (background tier-up).

Wire protocol
-------------

Clients connect through :class:`multiprocessing.connection` (length-
prefixed pickle framing over a TCP or ``AF_UNIX`` socket, with HMAC
authentication).  Messages are plain tuples:

=====================================================  ==================
client -> service                                      service -> client
=====================================================  ==================
``("register", fingerprint, program_blob)``            ``("registered", fingerprint)``
``("compile", rid, fingerprint, qualified,``           ``("compiled", rid, key, blob, facts, meta)``
``  entry_bci, config, profile_snapshot)``             or ``("compile-error", rid, detail)``
``("evict", key, facts)``                              (no reply)
``("stats", rid)``                                     ``("stats", rid, dict)``
``("shutdown", rid)``                                  ``("ok", rid)``
=====================================================  ==================

Programs travel once per client as a *skeleton*: classes, field
layouts and method bytecode, with native implementations replaced by a
stub (the service compiles, it never executes, and
:meth:`~repro.bytecode.classfile.JMethod.content_key` only observes
the *presence* of a native implementation — so the skeleton's
:meth:`~repro.bytecode.classfile.Program.content_fingerprint` equals
the client's and both sides compute identical cache keys).

Compile requests carry a :meth:`~repro.bytecode.interpreter.Profile`
snapshot; the service replays it into a profile bound to its own
program copy, so the pipeline makes exactly the speculation decisions
the client's live profile would drive.  The reply is the cache entry
itself — the detached graph payload plus the recorded speculation
facts — which the client re-validates against its *current* profile
before installing (a deopt that raced the compilation changes the
facts, the stale reply is rejected, and the client resubmits).

Dedup and the shared cache
--------------------------

Each request gets a request-scoped :class:`~repro.jit.compiler.Compiler`
holding the restored profile and the observed queue depth; it derives
the request's content-addressed compilation key, and the worker later
compiles with that same compiler, so the artifact is stored under the
key the request was deduplicated on.  A request whose key is already
being compiled *joins* the in-flight job (one compilation, many
replies); a request with a variant whose facts hold in the shared cache
(:meth:`~repro.jit.cache.CompilationCache.peek`) is answered
immediately without queueing.  Deopt invalidation flows back: clients
broadcast ``("evict", key, facts)`` and the service drops the variant
through the same :meth:`~repro.jit.cache.CompilationCache.evict` a VM
uses, so a failed speculation cannot be re-served to the fleet.

Failure semantics: a dead service (or any connection error) makes the
client VM log once and fall back to in-process compilation — the
service is an accelerator, never a correctness dependency.
"""

from __future__ import annotations

import argparse
import pickle
import queue
import sys
import threading
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple

from ..bytecode.classfile import (OBJECT_CLASS, JClass, JField, JMethod,
                                  Program)
from ..bytecode.interpreter import Profile
from .cache import CacheEntry, CompilationCache
from .compiler import Compiler
from .deoptless import is_continuation_entry
from .options import CompilerConfig

#: Shared-secret for :mod:`multiprocessing.connection` HMAC handshakes.
#: Not a security boundary (the service runs on localhost for one
#: user); it keeps stray processes from garbling the framing.
DEFAULT_AUTHKEY = b"repro-compile-service"

#: Program-skeleton payload format (independent of CACHE_FORMAT).
PROGRAM_FORMAT = 1


def parse_address(spec):
    """``"host:port"`` -> tuple, anything else -> ``AF_UNIX`` path.
    Tuples pass through."""
    if isinstance(spec, tuple):
        return spec
    if ":" in spec and "/" not in spec:
        host, port = spec.rsplit(":", 1)
        return (host, int(port))
    return spec


def format_address(address) -> str:
    """Inverse of :func:`parse_address`, for CompilerConfig storage."""
    if isinstance(address, tuple):
        return f"{address[0]}:{address[1]}"
    return address


# -- program transport --------------------------------------------------------


def _native_stub(interpreter, args):  # pragma: no cover - never called
    raise RuntimeError(
        "native methods are not executable inside the compile service")


def dump_program(program: Program) -> bytes:
    """Serialize a program *skeleton*: everything the compiler can
    observe, nothing it can execute.  Native implementations become a
    presence flag so the fingerprint round-trips exactly."""
    classes = []
    for name, jclass in program.classes.items():
        if name == OBJECT_CLASS and not jclass.fields \
                and not jclass.methods:
            continue  # every Program starts with an empty Object
        class_fields = [(f.name, f.type_name, f.is_static, f.default)
                        for f in jclass.fields.values()]
        methods = [(m.name, list(m.param_types), m.return_type,
                    list(m.code), m.max_locals, m.is_static,
                    m.is_synchronized, m.is_native,
                    m.native_impl is not None, m.native_cycle_cost)
                   for m in jclass.methods.values()]
        classes.append((name, jclass.superclass_name, class_fields,
                        methods))
    return pickle.dumps({"format": PROGRAM_FORMAT, "classes": classes},
                        protocol=pickle.HIGHEST_PROTOCOL)


def load_program(blob: bytes) -> Program:
    """Rebuild a compilable :class:`Program` from :func:`dump_program`
    output.  The result has the same content fingerprint as the
    original, so service-side cache keys match client-side ones."""
    spec = pickle.loads(blob)
    if spec.get("format") != PROGRAM_FORMAT:
        raise ValueError(f"unknown program format {spec.get('format')}")
    program = Program()
    for name, superclass, class_fields, methods in spec["classes"]:
        if name == OBJECT_CLASS:
            jclass = program.lookup_class(name)
        else:
            jclass = program.add_class(JClass(name, superclass))
        for fname, type_name, is_static, default in class_fields:
            jclass.add_field(JField(fname, type_name, is_static,
                                    default))
        for (mname, params, ret, code, max_locals, is_static, is_sync,
             is_native, had_impl, cost) in methods:
            jclass.add_method(JMethod(
                mname, params, ret, code, max_locals,
                is_static=is_static, is_synchronized=is_sync,
                is_native=is_native,
                native_impl=_native_stub if had_impl else None,
                native_cycle_cost=cost))
    return program


# -- service ------------------------------------------------------------------


@dataclass
class ServiceStats:
    """Counters for one :class:`CompileService` instance."""

    requests: int = 0
    #: Deoptless continuation requests (entry_bci was a ``("cont", ...)``
    #: descriptor) among ``requests``.
    continuation_requests: int = 0
    #: Requests that joined an identical in-flight compilation.
    dedup_joined: int = 0
    #: Requests answered straight from the shared cache.
    cache_hits: int = 0
    #: Fresh compilations executed by the workers.
    compiles: int = 0
    compile_errors: int = 0
    evictions_received: int = 0
    programs_registered: int = 0
    connections: int = 0
    queue_depth_max: int = 0
    compiles_by_key: Dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> Dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "compiles_by_key"}
        data["unique_keys_compiled"] = len(self.compiles_by_key)
        data["max_compiles_per_key"] = max(
            self.compiles_by_key.values(), default=0)
        data["dedup_or_hit_rate"] = (
            (self.dedup_joined + self.cache_hits)
            / self.requests if self.requests else 0.0)
        return data


class _ClientConn:
    """One accepted connection plus the send lock that serializes
    replies from connection and worker threads."""

    def __init__(self, conn):
        self.conn = conn
        self.lock = threading.Lock()
        self.closed = False

    def send(self, message) -> bool:
        with self.lock:
            if self.closed:
                return False
            try:
                self.conn.send(message)
                return True
            except (OSError, ValueError):
                self.closed = True
                return False

    def close(self):
        with self.lock:
            self.closed = True
            try:
                self.conn.close()
            except OSError:
                pass


@dataclass
class _Job:
    """One queued compilation with every connection waiting on it."""

    key: str
    #: The request-scoped compiler that derived *key*: it holds the
    #: restored profile and the queue depth observed at keying, so the
    #: worker compiling with it stores the artifact under *key*.
    compiler: Compiler
    method: JMethod
    entry_bci: Any
    waiters: List[Tuple[_ClientConn, int]] = field(default_factory=list)
    done: bool = False


class CompileService:
    """A persistent compile server: accept loop + async compile queue +
    dedup of identical in-flight requests + one shared cache.

    ``workers=0`` starts no compile workers (requests queue forever) —
    used by tests asserting clean shutdown with a non-empty queue."""

    def __init__(self, cache_dir: Optional[str] = None,
                 workers: int = 1, authkey: bytes = DEFAULT_AUTHKEY):
        # Same floor the VM sets: graph building and (de)serialization
        # recurse along deep block chains, and unlike a VM host process
        # nothing else in a service process raises the default limit.
        from .vm import _MIN_RECURSION_LIMIT
        if sys.getrecursionlimit() < _MIN_RECURSION_LIMIT:
            sys.setrecursionlimit(_MIN_RECURSION_LIMIT)
        self.cache = CompilationCache(cache_dir)
        self.authkey = authkey
        self.worker_count = max(0, workers)
        self.stats = ServiceStats()
        self._programs: Dict[str, Program] = {}
        self._queue: "queue.Queue[Optional[_Job]]" = queue.Queue()
        self._inflight: Dict[str, _Job] = {}
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._listener = None
        self._address = None
        self._worker_threads: List[threading.Thread] = []
        self._conns: List[_ClientConn] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self):
        return self._address

    def start(self, address=("127.0.0.1", 0)):
        """Bind *address*, start workers and the accept thread; returns
        the bound address (useful with port 0)."""
        from multiprocessing.connection import Listener
        # Listener's default backlog of 1 silently drops simultaneous
        # connects beyond the accept queue (the kernel completes the
        # client's handshake, the server never sees it, and Client()
        # blocks forever in the authkey exchange) — a whole-fleet
        # cold start is exactly that connect storm.
        self._listener = Listener(parse_address(address),
                                  authkey=self.authkey, backlog=128)
        self._address = self._listener.address
        for index in range(self.worker_count):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"compile-worker-{index}",
                                      daemon=True)
            thread.start()
            self._worker_threads.append(thread)
        accept = threading.Thread(target=self._accept_loop,
                                  name="compile-accept", daemon=True)
        accept.start()
        return self._address

    def serve_forever(self, address=("127.0.0.1", 0),
                      ready_callback=None) -> None:
        """:meth:`start`, report the bound address, block until
        :meth:`shutdown`."""
        bound = self.start(address)
        if ready_callback is not None:
            ready_callback(bound)
        self._stop.wait()

    def shutdown(self) -> None:
        """Stop accepting, fail every queued/in-flight request with a
        ``compile-error`` reply, and join the workers.  Safe to call
        with a non-empty queue and safe to call twice."""
        if self._stop.is_set():
            return
        self._stop.set()
        with self._lock:
            jobs = list(self._inflight.values())
            self._inflight.clear()
        for job in jobs:
            job.done = True
            for conn, rid in job.waiters:
                conn.send(("compile-error", rid,
                           "service shutting down"))
        for _ in self._worker_threads:
            self._queue.put(None)
        for thread in self._worker_threads:
            thread.join(timeout=10)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for conn in list(self._conns):
            conn.close()

    # -- accept / dispatch -------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                raw = self._listener.accept()
            except (OSError, EOFError):
                return  # listener closed
            except Exception:  # noqa: BLE001 - auth failure etc.
                continue
            conn = _ClientConn(raw)
            self._conns.append(conn)
            self.stats.connections += 1
            thread = threading.Thread(target=self._client_loop,
                                      args=(conn,), daemon=True)
            thread.start()

    def _client_loop(self, conn: _ClientConn) -> None:
        try:
            while not self._stop.is_set():
                try:
                    message = conn.conn.recv()
                except Exception:  # noqa: BLE001 - disconnect: EOF,
                    # bad fd, or TypeError when shutdown() nulls the
                    # handle under a blocked read.
                    return
                self._dispatch(conn, message)
        finally:
            conn.close()
            if conn in self._conns:
                self._conns.remove(conn)

    def _dispatch(self, conn: _ClientConn, message) -> None:
        kind = message[0]
        if kind == "register":
            __, fingerprint, blob = message
            with self._lock:
                if fingerprint not in self._programs:
                    self._programs[fingerprint] = load_program(blob)
                    self.stats.programs_registered += 1
            conn.send(("registered", fingerprint))
        elif kind == "compile":
            __, rid, fingerprint, qualified, entry_bci, config, \
                snapshot = message
            self._handle_compile(conn, rid, fingerprint, qualified,
                                 entry_bci, config, snapshot)
        elif kind == "evict":
            __, key, facts = message
            self.cache.evict(key, facts)
            self.stats.evictions_received += 1
        elif kind == "stats":
            conn.send(("stats", message[1], self.stats.snapshot()))
        elif kind == "shutdown":
            conn.send(("ok", message[1]))
            # Shut down from a fresh thread: shutdown() joins workers
            # and closes connections, including this one.
            threading.Thread(target=self.shutdown, daemon=True).start()

    def _handle_compile(self, conn: _ClientConn, rid: int,
                        fingerprint: str, qualified: str, entry_bci,
                        config: CompilerConfig,
                        snapshot: Optional[dict]) -> None:
        if self._stop.is_set():
            # Raced shutdown(): the queue is being failed, so a job
            # enqueued now would never be drained.  Refuse immediately.
            conn.send(("compile-error", rid, "service shutting down"))
            return
        with self._lock:
            self.stats.requests += 1
            if is_continuation_entry(entry_bci):
                self.stats.continuation_requests += 1
            program = self._programs.get(fingerprint)
            if program is None:
                conn.send(("compile-error", rid,
                           f"unregistered program {fingerprint[:12]}"))
                self.stats.compile_errors += 1
                return
            # The service compiles locally; its config must not point
            # back at a service.
            config = replace(config, compile_service=None,
                             compile_service_wait=False)
            try:
                method = program.method(qualified)
                profile = None
                if snapshot is not None:
                    profile = Profile()
                    profile.restore(program, snapshot)
                compiler = Compiler(program, config, profile, self.cache)
                compiler.service_queue_depth = self._queue.qsize()
                __, key = compiler.resolve(method, entry_bci)
            except Exception as exc:  # noqa: BLE001 - bad request
                conn.send(("compile-error", rid,
                           f"{type(exc).__name__}: {exc}"))
                self.stats.compile_errors += 1
                return
            job = self._inflight.get(key)
            if job is not None and not job.done:
                job.waiters.append((conn, rid))
                self.stats.dedup_joined += 1
                return
            entry = self.cache.peek(key, program, profile)
            if entry is not None:
                self.stats.cache_hits += 1
                conn.send(("compiled", rid, entry.key, entry.blob,
                           entry.facts, entry.meta))
                return
            job = _Job(key, compiler, method, entry_bci,
                       waiters=[(conn, rid)])
            self._inflight[key] = job
            self._queue.put(job)
            self.stats.queue_depth_max = max(
                self.stats.queue_depth_max, self._queue.qsize())

    # -- workers -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._compile_job(job)
            except Exception as exc:  # noqa: BLE001 - reply, don't die
                self._finish_job(job, error=f"{type(exc).__name__}: "
                                            f"{exc}")

    def _compile_job(self, job: _Job) -> None:
        try:
            result = job.compiler.compile(job.method,
                                          osr_bci=job.entry_bci)
        except Exception as exc:  # noqa: BLE001 - compile failure
            self._finish_job(job, error=f"{type(exc).__name__}: {exc}")
            return
        entry = result.cache_entry
        if entry is None:
            self._finish_job(job, error="compilation not cacheable")
            return
        with self._lock:
            if result.cache_hit:
                self.stats.cache_hits += 1
            else:
                self.stats.compiles += 1
                self.stats.compiles_by_key[entry.key] = \
                    self.stats.compiles_by_key.get(entry.key, 0) + 1
        self._finish_job(job, entry=entry)

    def _finish_job(self, job: _Job, entry: Optional[CacheEntry] = None,
                    error: Optional[str] = None) -> None:
        with self._lock:
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
            job.done = True
            waiters = list(job.waiters)
        for conn, rid in waiters:
            if error is not None:
                self.stats.compile_errors += 1
                conn.send(("compile-error", rid, error))
            else:
                conn.send(("compiled", rid, entry.key, entry.blob,
                           entry.facts, entry.meta))


# -- CLI ----------------------------------------------------------------------


def main(argv=None) -> int:
    """``repro serve``: run a compile service in the foreground."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="run a shared JIT compile service")
    parser.add_argument("--address", default="127.0.0.1:0",
                        help="host:port or Unix socket path "
                             "(default: 127.0.0.1 with an OS-chosen "
                             "port, printed on startup)")
    parser.add_argument("--cache-dir",
                        help="persist the shared compilation cache "
                             "under this directory")
    parser.add_argument("--workers", type=int, default=2,
                        help="compile worker threads (default 2)")
    args = parser.parse_args(argv)
    service = CompileService(cache_dir=args.cache_dir,
                             workers=args.workers)

    def announce(bound):
        print(f"compile service listening on {format_address(bound)}"
              + (f" (cache: {args.cache_dir})" if args.cache_dir
                 else ""),
              flush=True)

    try:
        service.serve_forever(parse_address(args.address),
                              ready_callback=announce)
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
        stats = service.stats.snapshot()
        print(f"served {stats['requests']} requests "
              f"({stats['compiles']} compiles, "
              f"{stats['cache_hits']} cache hits, "
              f"{stats['dedup_joined']} deduped)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
