"""Tests of the end-to-end benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Most tests start the benchmark as a subprocess, the way ``BENCHMARK.json``
names it, with one-second windows.  The whole file takes a few minutes:
the Table-1 anchor runs the full 29-program protocol.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import pytest

from . import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("coldstart", "steady", "fuzz", "warmcache")
DETERMINISTIC = ("error_rate", "sim_cycles_per_iter", "sim_kb_per_iter",
                 "sim_allocs_per_iter", "sim_monitor_ops_per_iter",
                 "sim_gc_pause_cycles_per_iter", "coverage_keys")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_benchmark(tmp_path, workload, trace, seconds=1, seed=0):
    """(last stdout line as JSON, full run record)."""
    out = tempfile.mkdtemp(dir=tmp_path) + f"/{workload}"
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", f"{out}.json"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stderr
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    with open(f"{out}.json") as handle:
        return last, json.load(handle)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two untraced runs and one traced run of every workload."""
    tmp_path = tmp_path_factory.mktemp("e2e")
    # warmcache gets three seconds so its window holds several passes.
    return {(workload, label): run_benchmark(
                tmp_path, workload, trace,
                seconds=3 if workload == "warmcache" else 1)
            for workload in WORKLOADS
            for label, trace in (("a", 0), ("b", 0), ("traced", 1))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_follows_the_contract(runs, workload):
    for label, section in (("a", "end_to_end"), ("traced", "per_layer")):
        last, record = runs[(workload, label)]
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert list(last["metrics"]) == [m["name"] for m in SPEC[section]]
        for metric in SPEC[section]:
            assert last["metrics"][metric["name"]]["unit"] == \
                metric["unit"]
        assert record["stamp"]["schema"] == 1
        assert record["inputs"] and all(
            len(i["sha256"]) == 64 for i in record["inputs"])
    for metric in SPEC["end_to_end"]:
        assert runs[(workload, "a")][0]["metrics"][metric["name"]][
            "value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_deterministic_metric(runs, workload):
    untraced = runs[(workload, "a")][1]["metrics"]
    traced = runs[(workload, "traced")][1]["metrics"]
    names = [n for n in DETERMINISTIC if untraced[n]["value"] is not None]
    assert "error_rate" in names
    assert {n: untraced[n] for n in names} == \
        {n: traced[n] for n in names}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_runs_are_bit_identical(runs, workload):
    first, second = runs[(workload, "a")][1], runs[(workload, "b")][1]
    names = [n for n in DETERMINISTIC
             if first["metrics"][n]["value"] is not None]
    assert len(names) > 1
    assert {n: first["metrics"][n] for n in names} == \
        {n: second["metrics"][n] for n in names}
    assert first["rows"] == second["rows"]
    assert first["inputs"] == second["inputs"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_accounts_for_the_window(runs, workload):
    record = runs[(workload, "traced")][1]
    layers = record["per_layer"]
    window = layers["trace.window_s"]["value"]
    unattributed = layers["trace.unattributed_s"]["value"]
    self_total = sum(layer["self_s"] for layer in record["layers"].values())
    assert abs(self_total + unattributed - window) <= 0.01 * window
    assert 0 <= unattributed <= 0.05 * window
    assert not record["missing_boundaries"]


def test_warmcache_passes_report_identical_cache_counters(runs):
    for label in ("a", "b", "traced"):
        counters = runs[("warmcache", label)][1]["cache_counters"]
        assert len(counters) >= 3
        assert all(c == counters[0] for c in counters)
        assert counters[0]["hits"] > 0 and counters[0]["stores"] == 0


def test_coldstart_rows_match_table1():
    """The coldstart protocol reproduces BENCH_table1.json's suites rows
    for every corpus program, both arms."""
    from repro.benchsuite.workloads import SUITES
    from repro.jit import CompilationCache

    from .workloads import compare_pass, corpus_inputs

    with open(os.path.join(ROOT, "BENCH_table1.json")) as handle:
        expected = {name: row for suite in json.load(handle)["suites"]
                    .values() for name, row in suite["workloads"].items()}
    names = [w.name for suite in SUITES.values() for w in suite]
    assert sorted(names) == sorted(expected)
    done = compare_pass(corpus_inputs(names, seed=0), CompilationCache())
    assert not done["failures"]
    fields = ["checksum"] + [
        f"{name}_{arm}" for arm in ("no_ea", "pea")
        for name in ("cycles_per_iteration", "kb_per_iteration",
                     "allocations_per_iteration",
                     "monitor_ops_per_iteration")]
    for name in names:
        row = done["rows"][name]
        assert {f: row[f] for f in fields} == \
            {f: expected[name][f] for f in fields}, name


def test_clock_samples_inside_one_long_call():
    """The profiling timer samples wherever the program is, so a long
    call gets its own samples and the loops are not charged to it."""
    from .clock import REFERENCE_LOOP_S, SAMPLE_EVERY_S, CalibratedClock

    def burn(seconds):
        until = time.thread_time() + seconds
        while time.thread_time() < until:
            pass

    clock = CalibratedClock()
    clock.start()
    try:
        began = clock.mark()
        burn(10 * SAMPLE_EVERY_S)
        ended = clock.mark()
    finally:
        clock.stop()
    inside = [(start, end) for start, end in clock.samples
              if began <= start < ended]
    assert len(inside) >= 5
    work = ended - began - sum(end - start for start, end in inside)
    loop = statistics.median(end - start for start, end in inside)
    assert clock.seconds(began, ended) == \
        pytest.approx(work * REFERENCE_LOOP_S / loop, rel=0.5)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "coldstart",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


# -- compare ------------------------------------------------------------------


def fake_runs(path, workloads=("coldstart",), passes=(10.0,) * 5,
              **exact):
    """A ``run --json`` file with one run per entry of *passes* for each
    workload.  Each keyword sets a deterministic metric: one value for
    every run, or a tuple with one value per run."""
    exact = {"error_rate": 0.0, "sim_allocs_per_iter": 100.0, **exact}
    runs = []
    for workload in workloads:
        for index, value in enumerate(passes):
            metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
            metrics["pass_s"]["value"] = value
            for name, setting in exact.items():
                if isinstance(setting, tuple):
                    setting = setting[index]
                metrics[name] = {"value": setting, "unit": "count"}
            runs.append({"workload": workload, "seed": index + 1,
                         "trace": False, "metrics": metrics})
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def verdict(base, new, metric):
    verdicts = compare.compare(compare.load_runs(base),
                               compare.load_runs(new), SPEC)
    return next(v for v in verdicts if v["metric"] == metric)["status"]


def test_compare_passes_identical_runs(tmp_path):
    base = fake_runs(tmp_path / "base.json")
    new = fake_runs(tmp_path / "new.json")
    assert compare.main([base, new], SPEC) == 0


def test_compare_flags_a_timing_regression(tmp_path):
    base = fake_runs(tmp_path / "base.json")
    new = fake_runs(tmp_path / "new.json", passes=(11.5,) * 5)
    assert verdict(base, new, "pass_s") == compare.REGRESSION
    assert compare.main([base, new], SPEC) == 1


def test_compare_marks_a_noisy_base_unresolved(tmp_path):
    base = fake_runs(tmp_path / "base.json",
                     passes=(6.0, 8.0, 10.0, 12.0, 14.0))
    new = fake_runs(tmp_path / "new.json", passes=(11.0,) * 5)
    assert verdict(base, new, "pass_s") == compare.UNRESOLVED
    assert compare.main([base, new], SPEC) == 0
    faster = fake_runs(tmp_path / "faster.json", passes=(5.0,) * 5)
    assert verdict(base, faster, "pass_s") == compare.BETTER


def test_compare_flags_errors_in_any_run(tmp_path):
    base = fake_runs(tmp_path / "base.json")
    failing = fake_runs(tmp_path / "failing.json",
                        error_rate=(0.0, 0.02, 0.0, 0.01, 0.0))
    assert verdict(base, failing, "error_rate") == compare.REGRESSION
    assert compare.main([base, failing], SPEC) == 1


def test_compare_flags_lower_coverage_in_any_run(tmp_path):
    base = fake_runs(tmp_path / "base.json", workloads=("fuzz",),
                     coverage_keys=39)
    new = fake_runs(tmp_path / "new.json", workloads=("fuzz",),
                    coverage_keys=(39, 39, 38, 39, 39))
    assert verdict(base, new, "coverage_keys") == compare.REGRESSION
    assert compare.main([base, new], SPEC) == 1


def test_compare_flags_any_simulated_change(tmp_path):
    base = fake_runs(tmp_path / "base.json")
    one_run = fake_runs(tmp_path / "one.json",
                        sim_allocs_per_iter=(100.0, 100.0, 101.0, 100.0,
                                             100.0))
    assert verdict(base, one_run, "sim_allocs_per_iter") == \
        compare.REGRESSION
    assert compare.main([base, one_run], SPEC) == 1
    fewer = fake_runs(tmp_path / "fewer.json", sim_allocs_per_iter=99.0)
    assert verdict(base, fewer, "sim_allocs_per_iter") == compare.CHANGED
    assert compare.main([base, fewer], SPEC) == 1
    summation = fake_runs(tmp_path / "summation.json",
                          sim_allocs_per_iter=100.0 * (1 + 1e-12))
    assert compare.main([base, summation], SPEC) == 0


def test_compare_flags_a_missing_workload_or_metric(tmp_path):
    base = fake_runs(tmp_path / "base.json",
                     workloads=("coldstart", "steady"))
    one = fake_runs(tmp_path / "one.json")
    verdicts = compare.compare(compare.load_runs(base),
                               compare.load_runs(one), SPEC)
    assert {v["status"] for v in verdicts
            if v["workload"] == "steady"} == {compare.MISSING}
    assert compare.main([base, one], SPEC) == 1
    no_sim = fake_runs(tmp_path / "no_sim.json", workloads=("coldstart",
                                                             "steady"),
                       sim_allocs_per_iter=None)
    assert verdict(base, no_sim, "sim_allocs_per_iter") == compare.MISSING
    assert compare.main([base, no_sim], SPEC) == 1
