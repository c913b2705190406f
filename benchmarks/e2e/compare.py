"""``python -m benchmarks.e2e compare BASE.json NEW.json``.

Both files come from ``run --json``.  Every (metric, workload) the base
measured is judged:

- the timing and memory metrics compare the two sides' medians against
  the bounds in ``BENCHMARK.json``.  When the base runs' own spread
  (interquartile range over the median) exceeds the bound the comparison
  is *unresolved* — unless every new run is better than every base run;
- the deterministic metrics are judged on the worst new run: any run
  with a higher ``error_rate`` or a lower ``coverage_keys`` than the
  worst base run is a regression, and any ``sim_*`` value more than
  float summation order (relative 1e-9) away from the base's is a
  change — a regression if it is worse.  The seed only reorders the
  inputs, so these hold across seeds;
- a workload or metric the base has and the new side lacks is missing.

One row per workload.  Exit status 1 on any regression, change or
missing metric, else 0.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Tuple

#: Deterministic metrics: name -> (better, relative tolerance, whether a
#: change for the better also fails the comparison).
EXACT = {
    "sim_cycles_per_iter": ("lower", 1e-9, True),
    "sim_kb_per_iter": ("lower", 1e-9, True),
    "sim_allocs_per_iter": ("lower", 1e-9, True),
    "sim_monitor_ops_per_iter": ("lower", 1e-9, True),
    "sim_gc_pause_cycles_per_iter": ("lower", 1e-9, True),
    "coverage_keys": ("higher", 0.0, False),
    "error_rate": ("lower", 0.0, False),
}

OK, BETTER, WORSE, UNRESOLVED, CHANGED, MISSING, REGRESSION = (
    "ok", "better", "worse", "unresolved", "changed", "missing",
    "REGRESSION")
#: Statuses that make ``compare`` exit 1.
FAILING = (REGRESSION, CHANGED, MISSING)


def load_runs(path: str) -> Dict[str, List[dict]]:
    """workload -> its run records."""
    with open(path) as handle:
        payload = json.load(handle)
    runs: Dict[str, List[dict]] = {}
    for record in payload["runs"]:
        if record.get("trace"):
            continue  # traced runs carry per-layer numbers only
        runs.setdefault(record["workload"], []).append(record)
    return runs


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worsening(value: float, reference: float, sign: float) -> float:
    """How much worse *value* is than *reference* (negative = better):
    relative, or absolute when the reference is 0."""
    if reference:
        return sign * (value - reference) / abs(reference)
    return sign * (value - reference)


def judge(base: List[float], new: List[float], better: str,
          bound: float) -> Tuple[str, float]:
    """Status and signed change (positive = worse) of the new median."""
    sign = 1.0 if better == "lower" else -1.0
    change = worsening(statistics.median(new), statistics.median(base),
                       sign)
    if spread(base) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return BETTER, change
        return UNRESOLVED, change
    if change > bound:
        return REGRESSION, change
    if change < -bound:
        return BETTER, change
    return (WORSE if change > 0 else OK), change


def judge_exact(base: List[float], new: List[float], better: str,
                tolerance: float, any_change: bool) -> Tuple[str, float]:
    """Status and change of the worst new run against the worst base
    run."""
    sign = 1.0 if better == "lower" else -1.0
    reference = max(base, key=lambda value: sign * value)
    changes = [worsening(value, reference, sign) for value in new]
    worst = max(changes)
    if worst > tolerance:
        return REGRESSION, worst
    best = min(changes)
    if best < -tolerance:
        return (CHANGED if any_change else BETTER), best
    return OK, worst


def values(runs: List[dict], name: str) -> Optional[List[float]]:
    """The metric's value in every run, or None if a run lacks it."""
    found = [run["metrics"].get(name, {}).get("value") for run in runs]
    if not found or any(value is None for value in found):
        return None
    return found


def compare(base: Dict[str, List[dict]], new: Dict[str, List[dict]],
            spec: dict) -> List[dict]:
    """One verdict per (workload, metric) the base measured."""
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in spec["end_to_end"]}
    verdicts = []
    for workload in sorted(base):
        base_runs, new_runs = base[workload], new.get(workload, [])
        for name in list(bounds) + list(EXACT):
            base_values = values(base_runs, name)
            if base_values is None:
                continue  # not defined on this workload
            new_values = values(new_runs, name)
            if new_values is None:
                status, change, bound = MISSING, 0.0, 0.0
            elif name in bounds:
                better, bound = bounds[name]
                status, change = judge(base_values, new_values, better,
                                       bound)
            else:
                better, bound, any_change = EXACT[name]
                status, change = judge_exact(base_values, new_values,
                                             better, bound, any_change)
            verdicts.append({"workload": workload, "metric": name,
                             "status": status, "change": change,
                             "bound": bound,
                             "base_spread": spread(base_values),
                             "base_n": len(base_values),
                             "new_n": len(new_values or [])})
    return verdicts


def render(verdicts: List[dict]) -> str:
    metrics = []
    for verdict in verdicts:
        if verdict["metric"] not in metrics:
            metrics.append(verdict["metric"])
    marks = {OK: "", WORSE: "", BETTER: " +", UNRESOLVED: " ?",
             CHANGED: " ~", REGRESSION: " !!"}
    cells = {(v["workload"], v["metric"]):
             "missing" if v["status"] == MISSING
             else f"{v['change'] + 0.0:+.2%}{marks[v['status']]}"
             for v in verdicts}
    workloads = sorted({v["workload"] for v in verdicts})
    widths = [max(len(m), 10) + 2 for m in metrics]
    lines = ["change of the median (deterministic metrics: of the worst "
             "run), positive = worse;",
             "+ better, ? unresolved, ~ changed, !! regression",
             "workload".ljust(12) + "".join(
                 m.rjust(w) for m, w in zip(metrics, widths))]
    for workload in workloads:
        lines.append(workload.ljust(12) + "".join(
            cells.get((workload, m), "n/a").rjust(w)
            for m, w in zip(metrics, widths)))
    for verdict in verdicts:
        if verdict["status"] in FAILING + (UNRESOLVED,):
            lines.append(
                f"{verdict['status']}: {verdict['workload']} "
                f"{verdict['metric']} {verdict['change']:+.3%} "
                f"(bound {verdict['bound']:.3g}, base spread "
                f"{verdict['base_spread']:.2%}, n={verdict['base_n']}/"
                f"{verdict['new_n']})")
    return "\n".join(lines)


def main(argv: List[str], spec: dict) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e compare")
    parser.add_argument("base", metavar="BASE.json")
    parser.add_argument("new", metavar="NEW.json")
    args = parser.parse_args(argv)
    verdicts = compare(load_runs(args.base), load_runs(args.new), spec)
    print(render(verdicts))
    return 1 if any(v["status"] in FAILING for v in verdicts) else 0
