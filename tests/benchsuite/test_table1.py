"""Table 1's A/B sections: the GC A/B's no-EA arm, the PEA ablations
and the cache line."""

import io
import json
import re

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
