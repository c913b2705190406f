"""Table 1's A/B sections: the GC A/B's no-EA arm, the PEA ablations,
the cache line and rejected warm-up records."""

import io
import json
import re

from repro.api import compile_source
from repro.benchsuite import harness, table1
from repro.benchsuite.harness import compare_workload
from repro.benchsuite.workloads import by_name, quick_copy
from repro.jit import CompilationCache, CompilerConfig


def test_gc_ab_none_arm_is_table1_no_ea_measurement(monkeypatch):
    workload = quick_copy(by_name("scalap"))
    comparison = compare_workload(workload)
    tiers = []
    measure = harness.run_workload

    def counting(workload, config, *args, **kwargs):
        tiers.append(config.escape_tier)
        return measure(workload, config, *args, **kwargs)

    monkeypatch.setattr(harness, "run_workload", counting)
    section = table1._gc_ab([comparison], backend="plan", jobs=1,
                            cache=None, osr=True)
    assert sorted(tiers) == ["conngraph", "pea+summaries+cgstack"]
    recorded = {"tier": "none",
                **{name: getattr(comparison.without, name)
                   for name in table1._GC_AB_FIELDS}}
    assert section[workload.name]["none"] == recorded
    # Re-running the arm's own configuration records the same fields.
    rerun = measure(workload, CompilerConfig(escape_tier="none"))
    assert {name: getattr(rerun, name)
            for name in table1._GC_AB_FIELDS} == \
        {name: recorded[name] for name in table1._GC_AB_FIELDS}
    assert section[workload.name]["checksums_identical"]
    assert section[workload.name]["allocations_ordered"]


#: factorie's allocations per iteration under each ablation arm, at the
#: ``--quick`` warm-up.
FACTORIE_ABLATIONS = {"full": 524.0, "single_pass": 842.0,
                      "no_arrays": 524.0, "no_check_folds": 683.0,
                      "no_read_elim": 524.0, "no_inlining": 1324.0,
                      "no_branch_speculation": 524.0}


def test_ablation_ab_on_factorie():
    workload = quick_copy(by_name("factorie"))
    comparison = compare_workload(workload)
    row = table1._ablation_ab([comparison], backend="plan", jobs=1,
                              cache=None, osr=True)[workload.name]
    arms = {arm: row[arm] for arm in FACTORIE_ABLATIONS}
    assert row["full"] == {name: getattr(comparison.with_pea, name)
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
