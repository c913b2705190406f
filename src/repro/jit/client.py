"""VM-side client for the shared compile service.

:class:`ServiceClient` owns one connection to a
:class:`~repro.jit.server.CompileService` and hides the wire protocol
behind four verbs: :meth:`register` the program skeleton once,
:meth:`submit` asynchronous compile requests, :meth:`poll`/
:meth:`wait_any` for replies, and :meth:`evict` to broadcast deopt
invalidations back to the shared cache.

The client is deliberately *not* thread-safe: each VM owns exactly one
client, used from the VM's interpreter loop.  Replies are routed by
request id so control messages (stats, acks) can interleave with
compile replies on the same connection.

Connection failures are surfaced as ordinary ``OSError``/``EOFError``
to the caller; the VM's policy (:meth:`repro.jit.vm.VM._service_lost`)
is to log once and fall back to in-process compilation.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .cache import CacheEntry
from .server import DEFAULT_AUTHKEY, dump_program, parse_address


@dataclass
class CompileReply:
    """One resolved compile request.

    Exactly one of (``entry``, ``error``) is set: the service's cache
    entry (key, speculation facts, detached payload), which the VM
    validates and installs like a cache hit.  ``qualified`` and
    ``entry_bci`` echo the submission so the VM can route the install
    without keeping its own request table.
    """

    request_id: int
    qualified: str
    entry_bci: Optional[int]
    entry: Optional[CacheEntry] = None
    error: Optional[str] = None


class ServiceClient:
    """One VM's connection to a compile service."""

    def __init__(self, address, authkey: bytes = DEFAULT_AUTHKEY):
        from multiprocessing.connection import Client as _connect
        self.address = parse_address(address)
        self._conn = _connect(self.address, authkey=authkey)
        self._ids = itertools.count(1)
        #: request id -> (qualified name, entry bci) for in-flight
        #: compile requests.
        self._pending: Dict[int, Tuple[str, Optional[int]]] = {}
        self._compile_replies: List[CompileReply] = []
        self._stats_replies: Dict[int, dict] = {}
        self._events: List[tuple] = []

    # -- verbs -------------------------------------------------------------

    def register(self, program, timeout: float = 30.0) -> None:
        """Ship the program skeleton; idempotent on the service side."""
        self._conn.send(("register", program.content_fingerprint(),
                         dump_program(program)))
        self._wait_event("registered", timeout)

    def submit(self, program, qualified: str, config,
               profile_snapshot: Optional[dict],
               entry_bci: Optional[int] = None) -> int:
        """Queue an asynchronous compile request; returns its id."""
        rid = next(self._ids)
        self._pending[rid] = (qualified, entry_bci)
        self._conn.send(("compile", rid, program.content_fingerprint(),
                         qualified, entry_bci, config,
                         profile_snapshot))
        return rid

    def poll(self) -> List[CompileReply]:
        """Drain every reply that has already arrived, non-blocking."""
        while self._conn.poll(0):
            self._route(self._conn.recv())
        return self._drain()

    def wait_any(self, timeout: Optional[float] = None
                 ) -> List[CompileReply]:
        """Block until at least one compile reply is available (or the
        timeout passes); returns every reply drained."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._compile_replies:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            if not self._conn.poll(remaining):
                break
            self._route(self._conn.recv())
        return self._drain()

    def evict(self, key: str, facts) -> None:
        """Broadcast a deopt invalidation: drop the cached variant of
        *key* whose speculation facts failed."""
        self._conn.send(("evict", key, tuple(map(tuple, facts))))

    def stats(self, timeout: float = 30.0) -> dict:
        """Fetch the service's counters (see ``ServiceStats``)."""
        rid = next(self._ids)
        self._conn.send(("stats", rid))
        deadline = time.monotonic() + timeout
        while rid not in self._stats_replies:
            remaining = max(0.0, deadline - time.monotonic())
            if not self._conn.poll(remaining):
                raise TimeoutError("no stats reply from compile service")
            self._route(self._conn.recv())
        return self._stats_replies.pop(rid)

    def shutdown_service(self, timeout: float = 30.0) -> None:
        """Ask the service to shut down (acknowledged before it does)."""
        rid = next(self._ids)
        self._conn.send(("shutdown", rid))
        self._wait_event("ok", timeout)

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass

    @property
    def pending(self) -> Dict[int, Tuple[str, Optional[int]]]:
        return dict(self._pending)

    # -- plumbing ----------------------------------------------------------

    def _drain(self) -> List[CompileReply]:
        drained = self._compile_replies
        self._compile_replies = []
        return drained

    def _route(self, message) -> None:
        kind = message[0]
        if kind == "compiled":
            __, rid, key, blob, facts, meta = message
            qualified, entry_bci = self._pending.pop(rid, ("?", None))
            self._compile_replies.append(CompileReply(
                rid, qualified, entry_bci, entry=CacheEntry(
                    key, tuple(map(tuple, facts)), blob,
                    dict(meta or {}))))
        elif kind == "compile-error":
            __, rid, detail = message
            qualified, entry_bci = self._pending.pop(rid, ("?", None))
            self._compile_replies.append(CompileReply(
                rid, qualified, entry_bci, error=detail))
        elif kind == "stats":
            self._stats_replies[message[1]] = message[2]
        else:
            self._events.append(message)

    def _wait_event(self, kind: str, timeout: float) -> tuple:
        deadline = time.monotonic() + timeout
        while True:
            for index, event in enumerate(self._events):
                if event[0] == kind:
                    return self._events.pop(index)
            remaining = max(0.0, deadline - time.monotonic())
            if not self._conn.poll(remaining):
                raise TimeoutError(
                    f"no '{kind}' reply from compile service")
            self._route(self._conn.recv())
