"""The fleet benchmark: many VM workers, one compile service.

Simulates a specjbb-style deployment — dozens of short-lived VM worker
processes executing a request mix — where every worker shares one
persistent :class:`~repro.jit.server.CompileService` ("one JIT,
thousands of VMs").  Three phases:

1. **cold**: every workload runs once, spread round-robin across the
   worker processes, measuring per-workload *cold-start latency* (VM
   construction through full tier-up, i.e. ``finish_pending_compiles``
   returning with every reply installed).
2. **repeated mix**: a seeded RNG draws ``mix_tasks`` workloads and the
   fleet executes them; because the cold phase already populated the
   service's cache, (almost) every compile request should resolve by
   *dedup* (joined an identical in-flight job) or *cache hit* — the
   reported ``dedup_or_hit_rate`` is the acceptance metric (>= 90%).
3. **identity A/B** (optional): every workload measured through the
   ordinary harness twice — ``compile_service`` pointing at the live
   service vs. plain in-process compilation — asserting the
   deterministic metrics (checksum, KB, allocations, monitor
   operations, measured-window deopts) are bit-identical.  Background
   tier-up may only move *real time*, never a simulated metric.

Usage::

    python -m repro.benchsuite.fleet [--workers N] [--mix-tasks M]
        [--seed S] [--service-workers K] [--identity-sample N]
        [--json PATH]

The JSON payload is what ``table1.py --fleet`` embeds under
``timing.fleet`` in ``BENCH_table1.json`` and what CI uploads as
``artifacts/fleet.json``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import random
import sys
import time
from typing import Dict, List, Optional, Sequence

from ..api import VM, CompilerConfig, compile_source
from ..jit.server import CompileService, format_address
from .harness import run_workload
from .workloads import ALL_WORKLOADS, by_name, quick_copy

#: Tier-up thresholds for the load-generation phases: low enough that a
#: handful of iterations compiles every hot method (the phases measure
#: service behavior, not steady-state workload performance).
_FLEET_COMPILE_THRESHOLD = 3
_FLEET_OSR_THRESHOLD = 25
#: Warm-up iterations one fleet task runs before the tier-up barrier.
_FLEET_WARMUP = 6

#: The deterministic metrics the identity A/B compares.  ``deopts`` is
#: deliberately the *measured-window* variant: asynchronous installs
#: shift warm-up deopt timing (see Measurement.deopts_measured), while
#: the drain barrier makes the measured window itself deterministic.
_IDENTITY_METRICS = ("checksum", "kb_per_iteration",
                     "allocations_per_iteration",
                     "monitor_ops_per_iteration", "deopts_measured")


def _worker_main(address, worker_id: int, names: Sequence[str],
                 config: CompilerConfig, warmup: int,
                 result_queue) -> None:
    """One fleet worker process: run its task list against the shared
    service, reporting per-task tier-up latency and checksum."""
    try:
        from ..jit.client import ServiceClient
        client = ServiceClient(address)
        programs: Dict[str, object] = {}
        records: List[dict] = []
        for name in names:
            workload = by_name(name)
            program = programs.get(name)
            if program is None:
                program = programs[name] = compile_source(
                    workload.source, natives=workload.natives or None)
            started = time.perf_counter()
            vm = VM(program, config, service=client)
            checksum = None
            for _ in range(warmup):
                checksum = vm.call(workload.entry,
                                   workload.iteration_size)
                program.reset_statics()
            vm.finish_pending_compiles()
            tier_up_seconds = time.perf_counter() - started
            records.append({
                "workload": name,
                "tier_up_seconds": tier_up_seconds,
                "checksum": checksum,
                "compiled": len(vm.compiled),
                "service_installs": vm.service_installs,
                "service_fallbacks": vm.service_fallbacks,
            })
        client.close()
        result_queue.put(("ok", worker_id, records))
    except Exception as exc:  # noqa: BLE001 - report, don't hang join
        result_queue.put(("error", worker_id,
                          f"{type(exc).__name__}: {exc}"))


def _run_phase(address, assignments: List[List[str]],
               config: CompilerConfig, warmup: int) -> List[dict]:
    """Launch one worker process per (non-empty) assignment, join them
    all, and return the merged task records."""
    ctx = multiprocessing.get_context()
    result_queue = ctx.SimpleQueue()
    processes = []
    for worker_id, names in enumerate(assignments):
        if not names:
            continue
        process = ctx.Process(
            target=_worker_main,
            args=(address, worker_id, names, config, warmup,
                  result_queue))
        process.start()
        processes.append(process)
    records: List[dict] = []
    errors: List[str] = []
    for _ in processes:
        status, worker_id, payload = result_queue.get()
        if status == "ok":
            records.extend(payload)
        else:
            errors.append(f"worker {worker_id}: {payload}")
    for process in processes:
        process.join()
    if errors:
        raise RuntimeError("fleet workers failed: " + "; ".join(errors))
    return records


def _round_robin(names: Sequence[str], workers: int) -> List[List[str]]:
    assignments: List[List[str]] = [[] for _ in range(workers)]
    for index, name in enumerate(names):
        assignments[index % workers].append(name)
    return assignments


def _stats_delta(after: dict, before: dict) -> dict:
    delta = {name: value - before[name]
             for name, value in after.items()
             if isinstance(value, (int, float))
             and not isinstance(value, bool) and name in before}
    requests = delta.get("requests", 0)
    delta["dedup_or_hit_rate"] = (
        (delta.get("dedup_joined", 0) + delta.get("cache_hits", 0))
        / requests if requests else 0.0)
    return delta


def _latency_summary(records: List[dict]) -> dict:
    seconds = sorted(r["tier_up_seconds"] for r in records)
    if not seconds:
        return {}
    return {
        "min_seconds": round(seconds[0], 3),
        "mean_seconds": round(sum(seconds) / len(seconds), 3),
        "max_seconds": round(seconds[-1], 3),
    }


def _identity_ab(address, names: Sequence[str], quick: bool) -> dict:
    """Per-workload service-on vs service-off measurement through the
    ordinary harness; both runs use the standard benchmark
    configuration (only ``compile_service`` differs)."""
    section: Dict[str, dict] = {}
    all_identical = True
    service_config = CompilerConfig.partial_escape(
        compile_service=format_address(address))
    local_config = CompilerConfig.partial_escape()
    for name in names:
        workload = by_name(name)
        if quick:
            workload = quick_copy(workload)
        program = compile_source(workload.source,
                                 natives=workload.natives or None)
        serviced = run_workload(workload, service_config,
                                program=program)
        local = run_workload(workload, local_config, program=program)
        same = all(getattr(serviced, metric) == getattr(local, metric)
                   for metric in _IDENTITY_METRICS)
        all_identical = all_identical and same
        section[name] = {
            "metrics_identical": same,
            "checksum": local.checksum,
            "deopts_measured": local.deopts_measured,
            "service_cache_hits": serviced.cache_hits,
        }
        if not same:
            section[name]["mismatch"] = {
                metric: [getattr(serviced, metric),
                         getattr(local, metric)]
                for metric in _IDENTITY_METRICS
                if getattr(serviced, metric) != getattr(local, metric)}
    return {"all_identical": all_identical, "workloads": section}


def run_fleet(workers: int = 16, mix_tasks: int = 96, seed: int = 2024,
              cache_dir: Optional[str] = None,
              service_workers: int = 2,
              workload_names: Optional[Sequence[str]] = None,
              identity_sample: int = 0, identity: bool = True,
              quick: bool = False, out=sys.stderr) -> dict:
    """Run the three fleet phases; returns the ``timing.fleet`` payload.

    *identity_sample* limits the identity A/B to the first N workloads
    (0 = all); *workload_names* restricts the whole benchmark (tests).
    """
    names = list(workload_names) if workload_names else \
        [w.name for w in ALL_WORKLOADS]
    config = CompilerConfig.partial_escape(
        compile_threshold=_FLEET_COMPILE_THRESHOLD,
        osr_threshold=_FLEET_OSR_THRESHOLD)
    service = CompileService(cache_dir=cache_dir,
                             workers=service_workers)
    address = service.start(("127.0.0.1", 0))
    print(f"fleet: {workers} workers, service at "
          f"{format_address(address)}", file=out)
    try:
        # Phase 1: cold start.
        started = time.perf_counter()
        cold_records = _run_phase(address, _round_robin(names, workers),
                                  config, _FLEET_WARMUP)
        cold_seconds = time.perf_counter() - started
        cold_stats = service.stats.snapshot()
        print(f"fleet: cold phase {cold_seconds:.1f}s, "
              f"{cold_stats['requests']} requests, "
              f"{cold_stats['compiles']} compiles", file=out)

        # Phase 2: repeated mix.
        rng = random.Random(seed)
        tasks = [rng.choice(names) for _ in range(mix_tasks)]
        started = time.perf_counter()
        mix_records = _run_phase(address, _round_robin(tasks, workers),
                                 config, _FLEET_WARMUP)
        mix_seconds = time.perf_counter() - started
        mix_stats = _stats_delta(service.stats.snapshot(), cold_stats)
        print(f"fleet: mix phase {mix_seconds:.1f}s, "
              f"{mix_stats['requests']} requests, "
              f"dedup+hit rate "
              f"{mix_stats['dedup_or_hit_rate']:.3f}", file=out)

        # Every worker that ran a workload must agree on its checksum.
        checksums: Dict[str, set] = {}
        for record in cold_records + mix_records:
            checksums.setdefault(record["workload"], set()).add(
                record["checksum"])
        consistent = all(len(values) == 1
                         for values in checksums.values())

        # Phase 3: identity A/B through the live service.
        identity_section = None
        if identity:
            ab_names = names[:identity_sample] if identity_sample \
                else names
            identity_section = _identity_ab(address, ab_names, quick)
            print(f"fleet: identity A/B over {len(ab_names)} workloads "
                  f"-> all_identical="
                  f"{identity_section['all_identical']}", file=out)
    finally:
        service.shutdown()

    payload = {
        "workers": workers,
        "service_workers": service_workers,
        "seed": seed,
        "cold": {
            "wall_clock_seconds": round(cold_seconds, 3),
            "tasks": len(cold_records),
            "latency": _latency_summary(cold_records),
            "tier_up_seconds": {
                r["workload"]: round(r["tier_up_seconds"], 3)
                for r in sorted(cold_records,
                                key=lambda r: r["workload"])},
            "stats": cold_stats,
        },
        "mix": {
            "wall_clock_seconds": round(mix_seconds, 3),
            "tasks": len(mix_records),
            "latency": _latency_summary(mix_records),
            "stats": mix_stats,
            "dedup_or_hit_rate": round(
                mix_stats["dedup_or_hit_rate"], 4),
        },
        "queue_depth_max": service.stats.queue_depth_max,
        "checksums_consistent": consistent,
    }
    if identity_section is not None:
        payload["identity"] = identity_section
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=16,
                        help="concurrent VM worker processes")
    parser.add_argument("--mix-tasks", type=int, default=96,
                        help="tasks in the repeated-mix phase")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--service-workers", type=int, default=2,
                        help="compile worker threads in the service")
    parser.add_argument("--cache-dir", default=None,
                        help="service cache directory (default: "
                             "in-memory only)")
    parser.add_argument("--identity-sample", type=int, default=0,
                        metavar="N",
                        help="limit the identity A/B to N workloads "
                             "(0 = all 27)")
    parser.add_argument("--no-identity", dest="identity",
                        action="store_false", default=True)
    parser.add_argument("--quick", action="store_true",
                        help="fewer identity warm-up iterations")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the fleet payload as JSON")
    args = parser.parse_args(argv)
    payload = run_fleet(
        workers=args.workers, mix_tasks=args.mix_tasks, seed=args.seed,
        cache_dir=args.cache_dir, service_workers=args.service_workers,
        identity_sample=args.identity_sample, identity=args.identity,
        quick=args.quick)
    if args.json:
        import os
        directory = os.path.dirname(args.json)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({
        "dedup_or_hit_rate": payload["mix"]["dedup_or_hit_rate"],
        "checksums_consistent": payload["checksums_consistent"],
        "identity_all_identical": payload.get(
            "identity", {}).get("all_identical"),
        "queue_depth_max": payload["queue_depth_max"],
    }, indent=2))
    failed = not payload["checksums_consistent"] or \
        payload["mix"]["dedup_or_hit_rate"] < 0.9 or \
        (args.identity and
         not payload["identity"]["all_identical"])
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
