"""Table 1's one pass of named arms: Section 6.2 and the A/B sections
read its measurements, the equi arm is pinned, the cache line counts
every run, and rejected warm-up records are dropped."""

import io
import json
import re
from collections import Counter

import pytest

from repro.api import compile_source
from repro.benchsuite import harness, table1
from repro.benchsuite.harness import (ARMS, Measurement, delta_pct,
                                      run_arms)
from repro.benchsuite.reporting import pct
from repro.benchsuite.workloads import (ALL_WORKLOADS, SUITES, by_name,
                                        quick_copy)
from repro.jit import CompilationCache, CompilerConfig

#: The equi-escape arm under the ``--quick`` warm-up: every compared
#: :class:`Measurement` field after ``workload`` and ``config``.  No
#: other test or benchmark file pins this arm.
EQUI_QUICK = {
    "specjbb2005": (64087914544, 16.0078125, 303.0, 120.0, 84100.0,
                    576, 0),
    "scalap": (41092037800, 25.984375, 602.0, 0.0, 56132.333333333336,
               331, 3),
    "kiama": (3332, 68.40625, 1152.0, 0.0, 109083.0, 294, 0),
    "factorie": (41092052484, 30.921875, 842.0, 0.0, 239051.66666666666,
                 606, 3),
}


@pytest.mark.parametrize("name", sorted(EQUI_QUICK))
def test_equi_arm_is_pinned_and_below_pea(name):
    measured = run_arms(quick_copy(by_name(name)), table1.arms())
    assert list(measured) == ["no_ea", "equi", "pea"]
    assert measured["equi"] == Measurement(name, "equi-escape EA",
                                           *EQUI_QUICK[name])
    # The paper's ordering: flow-insensitive EA gains less than PEA.
    assert table1.speedup_pct(measured, "equi") < \
        table1.speedup_pct(measured, "pea")
    # PEA removes at least the allocations the baseline EA removes,
    # and never adds monitor operations.
    allocations = {arm: m.allocations_per_iteration
                   for arm, m in measured.items()}
    assert allocations["pea"] <= allocations["equi"] <= \
        allocations["no_ea"]
    assert measured["pea"].monitor_ops_per_iteration <= \
        measured["no_ea"].monitor_ops_per_iteration


def _stub_run_workload(measured):
    """A ``run_workload`` that returns a distinct measurement for each
    (workload, arm) and keeps each in *measured*, a list of
    ``(workload, arm, measurement)``: allocations are ordered
    ``pea <= equi <= no_ea`` and cycles differ per workload and arm."""
    allocations = {"no_ea": 10.0, "equi": 8.0}

    def run(workload, config, histogram=None, program=None, cache=None):
        arm = next(name for name, overrides in ARMS.items()
                   if CompilerConfig(**overrides) == config)
        cycles = 1000.0 + 7 * len(workload.name) - 5 * list(ARMS).index(arm)
        measurement = Measurement(workload.name, config.label(), 1, 1.0,
                                  allocations.get(arm, 6.0), 0.0, cycles,
                                  1, 0)
        measured.append((workload, arm, measurement))
        return measurement
    return run


def test_json_pass_measures_each_workload_and_arm_once(monkeypatch,
                                                       tmp_path):
    """``generate`` with a JSON path runs one ``run_suite`` call per
    suite over every arm, measures each (workload, arm) once, and
    prints and records Section 6.2 from those measurements."""
    calls = []
    monkeypatch.setattr(harness, "run_workload", _stub_run_workload(calls))
    suite_calls = []
    run_suite = table1.run_suite

    def counting_run_suite(workloads, arms, **kwargs):
        suite_calls.append(list(arms))
        return run_suite(workloads, arms, **kwargs)

    monkeypatch.setattr(table1, "run_suite", counting_run_suite)
    # The A/Bs that make their own runs.
    for name in ("_codegen_ab", "_osr_warmup_ab", "_deoptless_ab"):
        monkeypatch.setattr(table1, name, lambda *args: {})
    out = io.StringIO()
    path = tmp_path / "table1.json"
    table1.generate(list(SUITES), quick=True, out=out,
                    json_path=str(path))
    assert suite_calls == [list(ARMS)] * len(SUITES)
    assert Counter((w.name, arm) for w, arm, __ in calls) == \
        {(w.name, arm): 1 for w in ALL_WORKLOADS for arm in ARMS}
    measured = {(w.name, arm): m for w, arm, m in calls}
    payload = json.loads(path.read_text())
    assert set(payload["section62"]) == set(SUITES)
    text = out.getvalue()
    for suite, section in payload["section62"].items():
        speedups = {}
        for workload in SUITES[suite]:
            name = workload.name
            row = section["workloads"][name]
            speedups[name] = [
                delta_pct(measured[name, "no_ea"].iterations_per_minute,
                          measured[name, arm].iterations_per_minute)
                for arm in ("equi", "pea")]
            assert [row["equi_speedup_pct"], row["pea_speedup_pct"]] == \
                speedups[name]
            assert row["allocations_ordered"] and \
                row["monitor_ops_ordered"]
            assert re.search(rf"^{re.escape(name)} +"
                             rf"{re.escape(pct(speedups[name][0]))} +"
                             rf"{re.escape(pct(speedups[name][1]))}$",
                             text, re.M)
        averages = [sum(pair[i] for pair in speedups.values())
                    / len(speedups) for i in (0, 1)]
        assert [section["average"]["equi_speedup_pct"],
                section["average"]["pea_speedup_pct"]] == averages
        if suite in table1.PAPER_62:
            assert [section["paper"]["equi_speedup_pct"],
                    section["paper"]["pea_speedup_pct"]] == \
                list(table1.PAPER_62[suite])
        else:
            assert "paper" not in section
    # The A/B sections read the same measurements.
    assert payload["ablation_ab"]["factorie"]["full"] \
        ["cycles_per_iteration"] == \
        measured["factorie", "pea"].cycles_per_iteration
    assert payload["timing"]["gc_ab"]["factorie"]["conngraph"] \
        ["cycles_per_iteration"] == \
        measured["factorie", "conngraph"].cycles_per_iteration


def test_quick_leaves_the_registry_unchanged(monkeypatch):
    before = {w.name: w.warmup_iterations for w in ALL_WORKLOADS}
    calls = []
    monkeypatch.setattr(harness, "run_workload", _stub_run_workload(calls))
    table1.generate(list(table1.PAPER_62), quick=True, out=io.StringIO())
    assert {arm for __, arm, __ in calls} == set(table1.PAPER_ARMS)
    assert calls and all(w.warmup_iterations <= 25 for w, __, __ in calls)
    assert {w.name: w.warmup_iterations for w in ALL_WORKLOADS} == before


def test_gc_ab_none_arm_is_table1_no_ea_measurement():
    workload = quick_copy(by_name("scalap"))
    measured = run_arms(workload, table1.arms(
        ("no_ea", "conngraph", "pea+summaries+cgstack")))
    section = table1._gc_ab({workload.name: measured})[workload.name]
    recorded = {"tier": "none",
                **{name: getattr(measured["no_ea"], name)
                   for name in table1._GC_AB_FIELDS}}
    assert section["none"] == recorded
    assert (section["conngraph"]["tier"], section["pea"]["tier"]) == \
        ("conngraph", "pea+summaries+cgstack")
    # Re-running the arm's own configuration records the same fields.
    rerun = harness.run_workload(workload,
                                 CompilerConfig(escape_tier="none"))
    assert {name: getattr(rerun, name)
            for name in table1._GC_AB_FIELDS} == \
        {name: recorded[name] for name in table1._GC_AB_FIELDS}
    assert section["checksums_identical"]
    assert section["allocations_ordered"]


#: factorie's allocations per iteration under each ablation arm, at the
#: ``--quick`` warm-up.
FACTORIE_ABLATIONS = {"full": 524.0, "single_pass": 842.0,
                      "no_arrays": 524.0, "no_check_folds": 683.0,
                      "no_read_elim": 524.0, "no_inlining": 1324.0,
                      "no_branch_speculation": 524.0}


def test_ablation_ab_on_factorie():
    workload = quick_copy(by_name("factorie"))
    measured = run_arms(workload, table1.arms(("pea",) + table1._ABLATIONS))
    row = table1._ablation_ab({workload.name: measured})[workload.name]
    arms = {arm: row[arm] for arm in FACTORIE_ABLATIONS}
    assert row["full"] == {name: getattr(measured["pea"], name)
                           for name in table1._ABLATION_FIELDS}
    # The ablations preserve semantics.
    assert len({arm["checksum"] for arm in arms.values()}) == 1
    assert row["checksums_identical"]
    # Each ingredient contributes or is neutral ...
    assert row["never_below_full"]
    # ... and inlining is load-bearing: without it, constructor calls
    # make every receiver escape.
    assert arms["no_inlining"]["allocations_per_iteration"] > \
        arms["full"]["allocations_per_iteration"]
    assert {arm: m["allocations_per_iteration"]
            for arm, m in arms.items()} == FACTORIE_ABLATIONS


def test_json_cache_line_counts_every_run(tmp_path):
    """Serial and pool runs print the same cache line, and it equals
    ``timing.cache``."""
    lines = []
    for jobs in (1, 2):
        out = io.StringIO()
        path = tmp_path / f"table1-{jobs}.json"
        table1.generate(["specjbb"], quick=True, out=out, jobs=jobs,
                        json_path=str(path), cache=CompilationCache())
        line = re.search(r"^cache: (\d+) hits, (\d+) misses, "
                         r"(\d+) from disk, (\d+) evicted, (\d+) dropped, "
                         r".*$", out.getvalue(), re.M)
        assert line, out.getvalue()
        cache = json.loads(path.read_text())["timing"]["cache"]
        assert tuple(map(int, line.groups())) == \
            (cache["hits"], cache["misses"], cache["disk_hits"],
             cache["evictions"], cache["dropped"])
        lines.append(line)
    serial, pooled = lines
    assert pooled.group(0) == serial.group(0)
    assert int(serial.group(2)) > 0


def test_truncated_warmup_record_is_dropped(tmp_path):
    """A warm-up record that does not load counts as a dropped cache
    entry: its workload runs the full warm-up, and no Table 1 row
    changes."""
    cache_dir = str(tmp_path / "cache")

    def run():
        cache = CompilationCache(cache_dir)
        [comparison] = table1.generate(["specjbb"], quick=True,
                                       out=io.StringIO(),
                                       cache=cache)["specjbb"]
        rows = {arm: {name: getattr(m, name)
                      for name in ("checksum",) + table1._SUITE_FIELDS}
                for arm, m in comparison.arms.items()}
        return comparison, rows, cache.stats.dropped

    cold, cold_rows, cold_dropped = run()
    workload = cold.workload
    program = compile_source(workload.source,
                             natives=workload.natives or None)
    key = harness._harness_key(workload, program,
                               CompilerConfig.partial_escape())
    record = tmp_path / "cache" / "harness" / f"{key}.pkl"
    data = record.read_bytes()
    record.write_bytes(data[:len(data) // 2])
    warm, warm_rows, warm_dropped = run()
    assert (cold_dropped, warm_dropped) == (0, 1)
    assert warm_rows == cold_rows
    assert warm.with_pea.warmup_iterations_elided == 0
    assert warm.with_pea.warmup_iterations_run == \
        cold.with_pea.warmup_iterations_run
    assert warm.without.warmup_iterations_elided > 0
