"""Table 1's A/B sections: the GC A/B's no-EA arm and the cache line."""

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


def test_json_cache_line_counts_every_run(tmp_path):
    out = io.StringIO()
    path = tmp_path / "table1.json"
    table1.generate(["specjbb"], quick=True, out=out, json_path=str(path),
                    cache=CompilationCache())
    line = re.search(r"^cache: (\d+) hits, (\d+) misses, (\d+) from disk, "
                     r"(\d+) evicted, (\d+) dropped, ", out.getvalue(),
                     re.M)
    assert line, out.getvalue()
    cache = json.loads(path.read_text())["timing"]["cache"]
    assert tuple(map(int, line.groups())) == \
        (cache["hits"], cache["misses"], cache["disk_hits"],
         cache["evictions"], cache["dropped"])
