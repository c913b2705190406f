"""The differential oracle: each fuzz engine is held to the interpreter
invariants plus the counts its ``ENGINES`` entry declares against
another engine, and to nothing else."""

from dataclasses import replace

import pytest

from repro.verify.fuzz import ENGINES, EngineOutcome, compare_outcomes

#: The counts each engine must reproduce of the plan engine, with the
#: failure category a mismatch reports.
DECLARED = {
    "legacy": {"allocations": "alloc-mismatch",
               "monitor_enters": "backend-mismatch",
               "deopts": "backend-mismatch",
               "osr_entries": "backend-mismatch"},
    "codegen": {"allocations": "alloc-mismatch",
                "monitor_enters": "backend-mismatch",
                "deopts": "backend-mismatch",
                "osr_entries": "backend-mismatch"},
    "summaries": {"allocations": "summary-alloc-mismatch",
                  "monitor_enters": "summary-mismatch",
                  "deopts": "summary-mismatch",
                  "osr_entries": "summary-mismatch"},
    "deoptless": {"allocations": "deoptless-off-path-mismatch",
                  "monitor_enters": "deoptless-off-path-mismatch",
                  "osr_entries": "deoptless-off-path-mismatch"},
}

COUNTS = ("allocations", "monitor_enters", "deopts", "osr_entries")


def passing():
    """Every engine agrees; the interpreter allocates more than the
    compiled engines, so raising an engine's allocations by one still
    satisfies the interpreter bound."""
    engine = EngineOutcome(results=[3, 5], allocations=4,
                           monitor_enters=2, monitor_exits=2, deopts=0,
                           invalidations=0, g0_summary={"class": "Box"},
                           gi=7, osr_entries=1)
    outcomes = {name: replace(engine) for name in ENGINES}
    outcomes["interp"] = replace(engine, allocations=10)
    return outcomes


def perturbed(name, count, delta=1):
    outcomes = passing()
    outcome = outcomes[name]
    changes = {count: getattr(outcome, count) + delta}
    if count == "monitor_enters":  # stay balanced
        changes["monitor_exits"] = outcome.monitor_exits + delta
    outcomes[name] = replace(outcome, **changes)
    return outcomes


def test_passing_outcomes_pass():
    assert compare_outcomes(passing()) is None


@pytest.mark.parametrize("name,count,category", [
    (name, count, category) for name, declared in DECLARED.items()
    for count, category in declared.items()])
def test_declared_count_mismatch_reports_its_category(name, count,
                                                      category):
    failure = compare_outcomes(perturbed(name, count))
    assert failure is not None and failure[0] == category
    assert failure[1].startswith(name)


@pytest.mark.parametrize("name,count", [
    (name, count) for name in ENGINES if name not in ("interp", "plan")
    for count in COUNTS if count not in DECLARED.get(name, {})])
def test_undeclared_count_change_is_no_failure(name, count):
    """Conngraph compiles different code; deoptless's deopt count is
    not compared (a continuation may hit further guards)."""
    assert compare_outcomes(perturbed(name, count)) is None


def test_summaries_may_only_lower_allocations():
    assert compare_outcomes(perturbed("summaries", "allocations",
                                      delta=-1)) is None


@pytest.mark.parametrize("deopted", ["plan", "deoptless"])
def test_deoptless_counts_compared_only_without_deopts(deopted):
    outcomes = perturbed("deoptless", "allocations")
    outcomes[deopted] = replace(outcomes[deopted], deopts=1)
    if deopted == "plan":  # keep the backends' own oracles satisfied
        for name in ("legacy", "codegen", "summaries"):
            outcomes[name] = replace(outcomes[name], deopts=1)
    assert compare_outcomes(outcomes) is None


def test_deoptless_counts_not_compared_after_a_dispatch():
    outcomes = perturbed("deoptless", "monitor_enters")
    outcomes["deoptless"] = replace(outcomes["deoptless"], dispatches=1)
    assert compare_outcomes(outcomes) is None


@pytest.mark.parametrize("change,category", [
    ({"results": [3, 6]}, "result-mismatch"),
    ({"monitor_exits": 1}, "monitor-mismatch"),
    ({"gi": 8}, "static-mismatch"),
    ({"g0_summary": None}, "static-mismatch"),
    ({"allocations": 11}, "alloc-mismatch"),
])
@pytest.mark.parametrize("name", ["conngraph", "plan"])
def test_interpreter_invariants_hold_for_every_engine(name, change,
                                                      category):
    outcomes = passing()
    outcomes[name] = replace(outcomes[name], **change)
    failure = compare_outcomes(outcomes)
    assert failure is not None and failure[0] == category
