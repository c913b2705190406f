"""``repro jitdiff``: both backends measured through the harness."""

import io

from repro.benchsuite.jitdiff import run_jitdiff
from repro.benchsuite.workloads import by_name, quick_copy

#: scalap under ``--quick``: (method, plan handler slots, codegen source
#: bytes) for every compiled method and OSR variant.
SCALAP_SIZES = [
    ("Bench.iterate", 54, 8008),
    ("Bench.iterate@osr16", 41, 5110),
    ("Boxing.churn", 11, 1647),
    ("Mini.<init>", 3, 848),
    ("Output.line", 13, 1710),
    ("Retained.<init>", 5, 1098),
    ("Stash.keep", 13, 1708),
    ("Tuples.divMod", 9, 1630),
]


def test_jitdiff_reports_identical_metrics_and_method_sizes():
    report = run_jitdiff([quick_copy(by_name("scalap"))],
                         out=io.StringIO())
    assert report["metrics_identical"]
    row = report["workloads"]["scalap"]
    assert (row["metrics_identical"], row["mismatched_fields"]) == \
        (True, [])
    assert (row["allocations_per_iteration"], row["deopts"]) == (563.0, 3)
    assert [(m["method"], m["plan_size_nodes"], m["codegen_size_bytes"])
            for m in report["methods"]] == SCALAP_SIZES
    assert {m["codegen_backend"] for m in report["methods"]} == \
        {"codegen"}
    assert report["totals"]["codegen_fallbacks"] == 0
