"""The compile service: program transport, background tier-up, fleet
dedup (exactly one compilation per unique key), bit-identical metrics
against in-process compilation, interleavings with deoptimization and
invalidation, OSR tier-up through the service, and failure semantics
(clean shutdown with a non-empty queue, service death -> in-process
fallback, logged once)."""

import logging
import multiprocessing
import time
import traceback

import pytest

from repro.jit import VM, CompilationCache, CompilerConfig
from repro.jit import vm as vm_module
from repro.jit.client import ServiceClient
from repro.jit.server import CompileService, dump_program, load_program

from vm_harness import compile_source

LOOP_SOURCE = """
    class Point { int x; int y; }
    class Main {
        static int iterate(int n) {
            int total = 0;
            for (int i = 0; i < n; i = i + 1) {
                Point p = new Point();
                p.x = i;
                p.y = i + 1;
                total = total + p.x + p.y;
            }
            return total;
        }
    }
"""

BRANCHY_SOURCE = """
    class Main {
        static int pick(int x) {
            if (x < 100) { return x + 1; }
            return x - 1;
        }
        static int run(int lo, int n) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                acc = acc + pick(lo + i);
            }
            return acc;
        }
    }
"""

ESCAPE_SOURCE = """
    class Box { int v; }
    class Main {
        static Box sink;
        static int work(int i) {
            Box box = new Box();
            box.v = i * 3;
            if (i == 31337) {
                sink = box;
                return box.v + 1;
            }
            return box.v;
        }
        static int run(int from, int n) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) {
                acc = acc + work(from + i);
            }
            return acc;
        }
    }
"""


@pytest.fixture
def service(tmp_path):
    svc = CompileService(cache_dir=str(tmp_path / "svc-cache"),
                        workers=2)
    svc.start(("127.0.0.1", 0))
    yield svc
    svc.shutdown()


def connect(svc) -> ServiceClient:
    return ServiceClient(svc.address)


# -- program transport ---------------------------------------------------------


def test_program_skeleton_round_trip():
    """The shipped skeleton reproduces the content fingerprint — and
    therefore the cache keys — of the original program, so service-side
    compilations land under the keys the clients compute."""
    program = compile_source(ESCAPE_SOURCE)
    clone = load_program(dump_program(program))
    assert clone.content_fingerprint() == program.content_fingerprint()
    config = CompilerConfig.partial_escape()
    for qualified in ("Main.work", "Main.run"):
        assert CompilationCache.compilation_key(
            program, program.method(qualified), config, True) == \
            CompilationCache.compilation_key(
                clone, clone.method(qualified), config, True)
    # The clone is independently compilable (the service's actual job).
    from repro.jit import Compiler
    result = Compiler(clone, config).compile(clone.method("Main.work"))
    assert result.node_count > 0


# -- end-to-end background tier-up --------------------------------------------


@pytest.mark.parametrize("backend", ["legacy", "plan", "codegen"])
def test_background_tier_up_installs_service_replies(service, backend):
    program = compile_source(LOOP_SOURCE)
    config = CompilerConfig.partial_escape(compile_threshold=3,
                                           execution_backend=backend)
    vm = VM(program, config, service=connect(service))
    interpreted = [vm.call("Main.iterate", 40) for _ in range(12)]
    vm.finish_pending_compiles()
    assert len(set(interpreted)) == 1
    assert vm.service_installs >= 1
    assert vm.service_fallbacks == 0
    assert program.method("Main.iterate") in vm.compiled
    # The installed code computes the same value the interpreter did.
    assert vm.call("Main.iterate", 40) == interpreted[0]


@pytest.mark.parametrize("backend", ["plan", "codegen"])
def test_metrics_identical_service_vs_in_process(service, backend,
                                                monkeypatch):
    """The deterministic Table-1 metrics — results, allocations,
    monitors, deopts, invalidations — are bit-identical whether methods
    compile in-process or through the service (blocking mode, so the
    compile points line up call-for-call)."""
    monkeypatch.setattr(vm_module, "DEOPT_INVALIDATE_THRESHOLD", 2)

    def run(client):
        program = compile_source(ESCAPE_SOURCE)
        config = CompilerConfig.partial_escape(
            compile_threshold=3, execution_backend=backend,
            compile_service_wait=True)
        vm = VM(program, config, service=client)
        for _ in range(10):
            vm.call("Main.run", 0, 40)          # speculative warm-up
            program.reset_statics()
        for _ in range(6):
            vm.call("Main.run", 31330, 10)      # deopt + invalidate
            program.reset_statics()
        vm.finish_pending_compiles()
        before = vm.heap_snapshot()
        deopts_before = vm.exec_stats.deopts
        result = vm.call("Main.run", 31330, 10)
        delta = vm.heap_snapshot().delta(before)
        return (result, delta.allocations, delta.monitor_enters,
                delta.monitor_exits, vm.exec_stats.deopts - deopts_before,
                vm.invalidations)

    baseline = run(None)
    via_service = run(connect(service))
    assert via_service == baseline


# -- fleet dedup: N client processes, one service ------------------------------

_HAMMER_CASES = (
    ("loop", LOOP_SOURCE, "Main.iterate", (40,)),
    ("branchy", BRANCHY_SOURCE, "Main.run", (0, 30)),
)


def _hammer_worker(address, worker_id, result_queue):
    """One fleet member: its own process, programs, VMs and connection.
    Every worker runs the identical call sequence, so their profiles —
    and hence the speculation facts of their compile requests — agree,
    and the service can serve them all from single compilations."""
    try:
        from repro.lang import compile_source as compile_mj
        payload = {}
        for name, source, entry, args in _HAMMER_CASES:
            program = compile_mj(source)
            # Exactly-once needs stable speculation facts: OSR stays
            # off (whether a loop OSR'd before a method-entry compile
            # is service-latency dependent) and decisions must be
            # final at snapshot time (min_samples=1), else a decision
            # maturing while the reply is in flight goes stale at
            # install and legitimately recompiles a second variant.
            config = CompilerConfig.partial_escape(
                compile_threshold=3, osr_threshold=10 ** 9,
                speculation_min_samples=1)
            vm = VM(program, config,
                    service=ServiceClient(address))
            for _ in range(12):
                vm.call(entry, *args)
                program.reset_statics()
            vm.finish_pending_compiles()
            before = vm.heap_snapshot()
            result = vm.call(entry, *args)
            allocations = vm.heap_snapshot().delta(before).allocations
            payload[name] = {
                "result": result,
                "allocations": allocations,
                "fallbacks": vm.service_fallbacks,
                "service_alive": vm._service is not None,
            }
        result_queue.put(("ok", worker_id, payload))
    except Exception:  # noqa: BLE001 - report to the parent
        result_queue.put(("error", worker_id, traceback.format_exc()))


def test_fleet_hammer_compiles_each_key_exactly_once(service):
    """Six client processes hammer one service with overlapping
    methods: every unique cache key is compiled exactly once fleet-wide
    (in-flight dedup + shared-cache hits absorb the rest), every worker
    stays on the service (no in-process fallbacks), and the metrics all
    workers observe are identical."""
    clients = 6
    ctx = multiprocessing.get_context()
    result_queue = ctx.SimpleQueue()
    processes = [ctx.Process(target=_hammer_worker,
                             args=(service.address, wid, result_queue))
                 for wid in range(clients)]
    for process in processes:
        process.start()
    outcomes = {}
    deadline = time.monotonic() + 120
    while len(outcomes) < clients and time.monotonic() < deadline:
        status, worker_id, payload = result_queue.get()
        outcomes[worker_id] = (status, payload)
    for process in processes:
        process.join(timeout=30)
    errors = [f"worker {wid}:\n{payload}"
              for wid, (status, payload) in outcomes.items()
              if status != "ok"]
    assert not errors, "\n".join(errors)
    assert len(outcomes) == clients

    reference = outcomes[0][1]
    for worker_id, (__, payload) in outcomes.items():
        for name in reference:
            assert payload[name]["result"] == \
                reference[name]["result"], worker_id
            assert payload[name]["allocations"] == \
                reference[name]["allocations"], worker_id
            assert payload[name]["fallbacks"] == 0, worker_id
            assert payload[name]["service_alive"], worker_id

    stats = service.stats.snapshot()
    assert stats["compiles"] >= 1
    # The exactly-once property: no key was ever compiled twice.
    assert stats["max_compiles_per_key"] == 1
    # 6 identical workers: everything past the first compilation of a
    # key was answered by in-flight dedup or the shared cache.
    assert stats["requests"] > stats["compiles"]
    assert stats["dedup_joined"] + stats["cache_hits"] > 0


# -- clean shutdown with a non-empty queue -------------------------------------


def test_clean_shutdown_fails_queued_requests(tmp_path):
    """A service shut down with requests still queued (zero workers, so
    nothing ever drains) replies ``compile-error`` to every waiter —
    no hangs, no silently dropped requests — and shutdown is
    idempotent."""
    service = CompileService(cache_dir=str(tmp_path / "cache"),
                             workers=0)
    service.start(("127.0.0.1", 0))
    client = connect(service)
    program = compile_source(BRANCHY_SOURCE)
    client.register(program)
    config = CompilerConfig.partial_escape()
    rids = [client.submit(program, qualified, config, None)
            for qualified in ("Main.pick", "Main.run")]
    # Wait until the service has accepted (queued) both requests —
    # a request still in the socket buffer at shutdown surfaces as a
    # connection loss, not a reply.
    deadline = time.monotonic() + 30
    while service.stats.requests < len(rids) and \
            time.monotonic() < deadline:
        time.sleep(0.01)
    assert service.stats.requests == len(rids)

    service.shutdown()
    replies = []
    deadline = time.monotonic() + 30
    while len(replies) < len(rids) and time.monotonic() < deadline:
        try:
            replies.extend(client.wait_any(timeout=1.0))
        except (EOFError, OSError):
            break
    assert {reply.request_id for reply in replies} == set(rids)
    for reply in replies:
        assert reply.entry is None
        assert "shutting down" in reply.error
    service.shutdown()  # idempotent
    client.close()


# -- interleavings -------------------------------------------------------------


@pytest.mark.parametrize("backend", ["plan", "codegen"])
def test_stale_reply_revalidates_and_resubmits(service, backend):
    """Invalidation racing installation: the profile changes a branch
    decision after the snapshot was taken but before the reply lands.
    The stale payload must be discarded at install (fact validation),
    resubmitted once with a fresh snapshot, and the second reply
    installed."""
    program = compile_source(BRANCHY_SOURCE)
    # The VM never compiles on its own; the test drives the request
    # and holds the reply so the interleaving is deterministic.
    config = CompilerConfig.partial_escape(
        compile_threshold=10 ** 9, speculation_min_samples=8,
        execution_backend=backend)
    client = connect(service)
    vm = VM(program, config, service=client)
    method = program.method("Main.pick")
    for _ in range(20):
        vm.call("Main.pick", 5)         # branch always taken
    rid = client.submit(program, "Main.pick", config,
                        vm.profile.snapshot())
    vm._service_pending[method, None] = rid
    replies = client.wait_any(timeout=60)
    assert len(replies) == 1 and replies[0].error is None
    stale = replies[0]

    for _ in range(40):
        vm.call("Main.pick", 150)       # flip the branch decision
    vm._service_install(stale)
    assert method not in vm.compiled, \
        "stale speculative payload must not install"
    assert (method, None) in vm._service_pending, \
        "failed validation must resubmit with a fresh snapshot"

    vm.finish_pending_compiles()
    assert method in vm.compiled
    assert vm.service_installs == 1
    assert vm.call("Main.pick", 5) == 6
    assert vm.call("Main.pick", 150) == 149


@pytest.mark.parametrize("backend", ["plan", "codegen"])
def test_deopt_while_compile_in_flight(service, backend, monkeypatch):
    """A deopt (and the invalidation it triggers) arriving while
    another compile request is in flight: the eviction is broadcast to
    the shared service cache, the in-flight request still resolves, and
    every subsequent result is correct."""
    monkeypatch.setattr(vm_module, "DEOPT_INVALIDATE_THRESHOLD", 1)
    program = compile_source(ESCAPE_SOURCE)
    config = CompilerConfig.partial_escape(
        compile_threshold=3, speculation_min_samples=2,
        execution_backend=backend, compile_service_wait=True)
    client = connect(service)
    vm = VM(program, config, service=client)
    work = program.method("Main.work")
    run = program.method("Main.run")
    for i in range(8):
        vm.call("Main.work", 5)     # compiles speculatively (blocking)
    assert work in vm.compiled

    # Put a second compile in flight and do NOT drain it.
    rid = client.submit(program, "Main.run", config,
                        vm.profile.snapshot())
    vm._service_pending[run, None] = rid

    # Deopt fires while that request is pending: the speculative code
    # rematerializes the Box, the VM invalidates (threshold 1) and
    # broadcasts the eviction.
    assert vm.call("Main.work", 31337) == 31337 * 3 + 1
    assert vm.invalidations >= 1
    assert work not in vm.compiled
    deadline = time.monotonic() + 10
    while service.stats.evictions_received == 0 and \
            time.monotonic() < deadline:
        time.sleep(0.01)
    assert service.stats.evictions_received >= 1

    # The in-flight request resolves (installed, or recompiled against
    # the post-deopt profile if its facts went stale) and behaves.
    vm.finish_pending_compiles()
    assert run in vm.compiled
    assert vm.call("Main.run", 31330, 10) == \
        sum(i * 3 + (1 if i == 31337 else 0)
            for i in range(31330, 31340))


@pytest.mark.parametrize("backend", ["plan", "codegen"])
def test_osr_tier_up_through_service_blocking(service, backend):
    """OSR tier-up through the service (blocking mode): a hot loop in a
    cold method transfers mid-call exactly like in-process OSR, with
    identical results, OSR entry counts and allocations."""
    def run(client):
        program = compile_source(LOOP_SOURCE)
        config = CompilerConfig.partial_escape(
            compile_threshold=10 ** 9, osr_threshold=25,
            execution_backend=backend, compile_service_wait=True)
        vm = VM(program, config, service=client)
        before = vm.heap_snapshot()
        result = vm.call("Main.iterate", 4000)
        allocations = vm.heap_snapshot().delta(before).allocations
        return result, vm.osr_entries, allocations, vm.service_installs

    result, osr_entries, allocations, __ = run(None)
    s_result, s_osr_entries, s_allocations, s_installs = \
        run(connect(service))
    assert osr_entries == 1
    assert (s_result, s_osr_entries, s_allocations) == \
        (result, osr_entries, allocations)
    assert s_installs >= 1


@pytest.mark.parametrize("backend", ["plan", "codegen"])
def test_osr_tier_up_through_service_async(service, backend):
    """OSR tier-up with background compilation: the loop keeps
    interpreting past the threshold and transfers at a later backedge
    once the reply lands — every call computes the same value before,
    during and after the transfer."""
    from repro.bytecode import Interpreter
    program = compile_source(LOOP_SOURCE)
    config = CompilerConfig.partial_escape(
        compile_threshold=10 ** 9, osr_threshold=25,
        execution_backend=backend)
    vm = VM(program, config, service=connect(service))
    expected = Interpreter(
        compile_source(LOOP_SOURCE)).call("Main.iterate", 40)
    deadline = time.monotonic() + 60
    while vm.osr_entries == 0 and time.monotonic() < deadline:
        assert vm.call("Main.iterate", 40) == expected
    assert vm.osr_entries >= 1
    assert vm.service_installs >= 1
    assert vm.service_fallbacks == 0


# -- differential fuzzing through the service ----------------------------------


def test_fuzz_routes_engines_through_service(service):
    """`repro fuzz --service`: every differential engine compiles
    through one shared service and the oracle still holds."""
    from repro.jit.server import format_address
    from repro.verify.fuzz import fuzz
    report = fuzz(programs=2, seed=11, shrink=False,
                  service_address=format_address(service.address))
    assert report.programs_run == 2
    assert not report.failures, [
        (f.category, f.detail) for f in report.failures]
    assert service.stats.requests > 0


# -- failure semantics ---------------------------------------------------------


def test_service_death_falls_back_in_process(tmp_path, caplog):
    """Killing the service mid-run demotes the VM to in-process
    compilation: logged exactly once, every later compile happens
    locally, and results are unaffected."""
    service = CompileService(cache_dir=str(tmp_path / "cache"),
                             workers=1)
    service.start(("127.0.0.1", 0))
    program = compile_source(LOOP_SOURCE)
    config = CompilerConfig.partial_escape(compile_threshold=3)
    vm = VM(program, config, service=connect(service))
    first = vm.call("Main.iterate", 40)
    service.shutdown()

    with caplog.at_level(logging.WARNING, logger="repro.jit.service"):
        results = [vm.call("Main.iterate", 40) for _ in range(10)]
    assert set(results) == {first}
    assert vm._service is None
    assert program.method("Main.iterate") in vm.compiled  # in-process
    assert vm.service_fallbacks == 0  # demoted before any wait
    warnings = [record for record in caplog.records
                if "compile service unavailable" in record.message]
    assert len(warnings) == 1, "service loss must be logged exactly once"


def test_connect_storm_accepts_every_client(service):
    """A whole-fleet cold start opens many connections at once.  With
    the Listener's default backlog of 1 the kernel silently drops the
    overflow (the client sees ESTAB, the server never accepts, and the
    authkey handshake blocks forever); the service must listen with a
    backlog that absorbs the storm."""
    import threading

    clients = 24
    barrier = threading.Barrier(clients)
    failures = []

    def connect(index: int) -> None:
        try:
            barrier.wait()
            client = ServiceClient(service.address)
            assert client.stats()["connections"] >= 1
            client.close()
        except Exception:  # noqa: BLE001 - collected for the assert
            failures.append(f"client {index}: {traceback.format_exc()}")

    threads = [threading.Thread(target=connect, args=(i,))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 60
    for thread in threads:
        thread.join(timeout=max(0.1, deadline - time.monotonic()))
    stuck = [t for t in threads if t.is_alive()]
    assert not stuck, f"{len(stuck)} clients never finished handshaking"
    assert not failures, failures[:3]
    assert service.stats.connections >= clients
