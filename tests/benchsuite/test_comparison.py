"""The Section 6.2 harness: no EA vs equi-escape EA vs PEA."""

import io

import pytest

from repro.benchsuite import comparison
from repro.benchsuite.comparison import ThreeWay, run_three_way
from repro.benchsuite.harness import Measurement
from repro.benchsuite.workloads import ALL_WORKLOADS, by_name, quick_copy

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
    three_way = run_three_way(quick_copy(by_name(name)))
    assert three_way.equi == Measurement(name, "equi-escape EA",
                                         *EQUI_QUICK[name])
    # The paper's ordering: flow-insensitive EA gains less than PEA.
    assert three_way.equi_speedup_pct < three_way.pea_speedup_pct


def _stub_three_way(calls):
    def run(workload, backend="plan", histogram=None):
        calls.append(workload)

        def measurement(config, cycles):
            return Measurement(workload.name, config, 1, 1.0, 1.0, 0.0,
                               cycles, 1, 0)
        return ThreeWay(workload, measurement("without EA", 100.0),
                        measurement("equi-escape EA", 95.0),
                        measurement("with PEA", 90.0))
    return run


def test_main_runs_the_three_paper_suites(monkeypatch):
    calls = []
    monkeypatch.setattr(comparison, "run_three_way", _stub_three_way(calls))
    comparison.main([])
    assert {w.suite for w in calls} == set(comparison.PAPER_62)


def test_quick_leaves_the_registry_unchanged(monkeypatch):
    before = {w.name: w.warmup_iterations for w in ALL_WORKLOADS}
    calls = []
    monkeypatch.setattr(comparison, "run_three_way", _stub_three_way(calls))
    comparison.generate(list(comparison.PAPER_62), quick=True,
                        out=io.StringIO())
    assert calls and all(w.warmup_iterations <= 25 for w in calls)
    assert {w.name: w.warmup_iterations for w in ALL_WORKLOADS} == before
