"""The workload registry: one analog per Table 1 row.

The raw definitions live in :mod:`dacapo`, :mod:`scaladacapo` and
:mod:`specjbb`; this module applies the calibrated ballast from
:mod:`tuning` and exposes the tuned workloads.  (The calibration tool
imports the raw definitions directly.)
"""

import copy

from .base import PaperRow, Workload, apply_ballast
from .dacapo import DACAPO as _DACAPO_RAW
from .dacapo import DACAPO_SHOWN as _DACAPO_SHOWN_RAW
from .phaseshift import PHASESHIFT
from .scaladacapo import SCALADACAPO as _SCALADACAPO_RAW
from .specjbb import SPECJBB_ALL as _SPECJBB_RAW
from .tuning import TUNING


def _tune(workloads):
    tuned = []
    for workload in workloads:
        crunch, retain, minis = TUNING.get(workload.name, (0, 0, 0))
        tuned.append(apply_ballast(copy.copy(workload), crunch, retain,
                                   minis))
    return tuned


DACAPO = _tune(_DACAPO_RAW)
SCALADACAPO = _tune(_SCALADACAPO_RAW)
SPECJBB_ALL = _tune(_SPECJBB_RAW)
SPECJBB = SPECJBB_ALL[0]
DACAPO_SHOWN = [w for w in DACAPO
                if w.name in {raw.name for raw in _DACAPO_SHOWN_RAW}]

ALL_WORKLOADS = DACAPO + SCALADACAPO + SPECJBB_ALL + PHASESHIFT

SUITES = {
    "dacapo": DACAPO,
    "scaladacapo": SCALADACAPO,
    "specjbb": SPECJBB_ALL,
    "phaseshift": PHASESHIFT,
}


#: The warm-up cap of ``--quick`` runs.
QUICK_WARMUP_ITERATIONS = 25


def quick_copy(workload: Workload) -> Workload:
    """A copy of *workload* with the ``--quick`` warm-up cap; the
    registry's own object stays untouched."""
    workload = copy.copy(workload)
    workload.warmup_iterations = min(workload.warmup_iterations,
                                     QUICK_WARMUP_ITERATIONS)
    return workload


def by_name(name: str) -> Workload:
    for workload in ALL_WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name}")


__all__ = ["PaperRow", "Workload", "DACAPO", "DACAPO_SHOWN",
           "PHASESHIFT", "SCALADACAPO", "SPECJBB", "SPECJBB_ALL",
           "ALL_WORKLOADS", "SUITES", "by_name", "quick_copy"]
