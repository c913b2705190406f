"""Simulated generational garbage collector.

Until PR 9 the cost model charged a flat ``alloc_per_byte`` for every
heap-allocated byte, so escape-analysis wins showed up only as
allocation *counts*.  This module replaces that flat charge with a
small deterministic generational collector simulation so the same wins
show up as pause-time and throughput deltas:

* Allocation is nursery bump allocation: each heap allocation adds its
  byte size to the nursery fill.  Stack allocations never reach the
  nursery — that is the whole point of the escape tiers.
* When the nursery fills past its capacity a *minor collection* runs.
  A fixed fraction of the bytes allocated since the previous collection
  is assumed live (``1 / survivor_divisor``) and is copied to a
  survivor space.  Survivors are re-copied on each subsequent minor
  collection until they have survived ``tenure_age`` collections, at
  which point they are *promoted* to the (untracked) old generation.
* Each minor collection costs ``pause_base + copy_per_byte * copied``
  simulated cycles.  Pauses accumulate in :class:`GCStats` and the VM
  folds them into ``ExecutionStats.cycles`` the same way interpreter
  steps are folded in.

Everything is integer arithmetic so the accounting is bit-identical
across the graph-interpreter, plan and codegen execution backends: all
three allocate through the single shared :class:`repro.bytecode.heap.Heap`,
which is where the per-allocation hook lives.

The simulation is intentionally coarse — it models *pressure*, not a
real object graph.  It does not trace references and never frees
simulated objects; it exists so that "allocations/iter" translates into
pause cycles with a plausible generational shape (fewer allocated bytes
=> fewer minor collections => fewer copied bytes => less pause time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional


@dataclass
class GCStats:
    """Cumulative collector counters (monotone over a VM's lifetime)."""

    minor_collections: int = 0
    pause_cycles: int = 0
    promoted_bytes: int = 0
    copied_bytes: int = 0
    allocated_bytes: int = 0

    def copy(self) -> "GCStats":
        return GCStats(
            minor_collections=self.minor_collections,
            pause_cycles=self.pause_cycles,
            promoted_bytes=self.promoted_bytes,
            copied_bytes=self.copied_bytes,
            allocated_bytes=self.allocated_bytes,
        )

    def delta(self, earlier: "GCStats") -> "GCStats":
        return GCStats(
            minor_collections=self.minor_collections - earlier.minor_collections,
            pause_cycles=self.pause_cycles - earlier.pause_cycles,
            promoted_bytes=self.promoted_bytes - earlier.promoted_bytes,
            copied_bytes=self.copied_bytes - earlier.copied_bytes,
            allocated_bytes=self.allocated_bytes - earlier.allocated_bytes,
        )


# Kept in sync with the gc_* fields on ``repro.runtime.costmodel.CostModel``;
# duplicated here so a bare ``GCSim()`` (e.g. a standalone Interpreter's
# private heap) behaves exactly like one built from the default cost model.
DEFAULT_NURSERY_BYTES = 16 * 1024
DEFAULT_SURVIVOR_DIVISOR = 8
DEFAULT_TENURE_AGE = 3
DEFAULT_PAUSE_BASE = 400
DEFAULT_COPY_PER_BYTE = 2


class GCSim:
    """Deterministic nursery/survivor/promotion simulation.

    ``on_allocate(size)`` is the single entry point, called by
    ``Heap.new_instance`` / ``Heap.new_array`` for heap-allocated
    objects.  It returns the pause cycles incurred by any minor
    collections the allocation triggered (0 almost always).
    """

    def __init__(
        self,
        nursery_bytes: int = DEFAULT_NURSERY_BYTES,
        survivor_divisor: int = DEFAULT_SURVIVOR_DIVISOR,
        tenure_age: int = DEFAULT_TENURE_AGE,
        pause_base: int = DEFAULT_PAUSE_BASE,
        copy_per_byte: int = DEFAULT_COPY_PER_BYTE,
    ) -> None:
        if nursery_bytes <= 0:
            raise ValueError("nursery_bytes must be positive")
        if survivor_divisor <= 0:
            raise ValueError("survivor_divisor must be positive")
        if tenure_age <= 0:
            raise ValueError("tenure_age must be positive")
        self.nursery_bytes = int(nursery_bytes)
        self.survivor_divisor = int(survivor_divisor)
        self.tenure_age = int(tenure_age)
        self.pause_base = int(pause_base)
        self.copy_per_byte = int(copy_per_byte)
        self.stats = GCStats()
        # Bytes bump-allocated into the nursery since the last minor
        # collection.
        self.nursery_used = 0
        # ``survivors[i]`` holds the live bytes that have survived
        # ``i + 1`` minor collections and still await tenuring.
        self.survivors: List[int] = []
        # Observability hook: called as
        # ``on_collection(minor_index, pause_cycles, promoted_bytes)``
        # after every minor collection.  The VM routes this to
        # ``VMListener.on_gc``.
        self.on_collection: Optional[Callable[[int, int, int], None]] = None

    @classmethod
    def from_cost_model(cls, cost_model) -> "GCSim":
        return cls(
            nursery_bytes=cost_model.gc_nursery_bytes,
            survivor_divisor=cost_model.gc_survivor_divisor,
            tenure_age=cost_model.gc_tenure_age,
            pause_base=cost_model.gc_pause_base,
            copy_per_byte=cost_model.gc_copy_per_byte,
        )

    def on_allocate(self, size: int) -> int:
        """Record a heap allocation of ``size`` bytes; run any minor
        collections it triggers and return their total pause cycles."""
        size = int(size)
        if size < 0:
            size = 0
        self.stats.allocated_bytes += size
        self.nursery_used += size
        pause = 0
        while self.nursery_used > self.nursery_bytes:
            # An allocation larger than the whole nursery drains in
            # several back-to-back collections; ``-=`` (rather than
            # ``= 0``) keeps the loop terminating and the collection
            # count proportional to the allocated volume.
            self.nursery_used -= self.nursery_bytes
            pause += self._minor_collection(self.nursery_bytes)
        return pause

    def collect_remaining(self) -> int:
        """Force a final minor collection of whatever is in the nursery.

        Benchmark harnesses call this between warm-up and measurement to
        normalize collector state (the simulated analog of a pre-run
        ``System.gc()``): cumulative stats stay monotone, but the
        nursery and survivor spaces empty so the measured window starts
        from the same state whether warm-up was replayed or elided.
        """
        pause = 0
        if self.nursery_used > 0 or self.survivors:
            pause = self._minor_collection(self.nursery_used)
            # Tenure everything instead of keeping partial survivor
            # state around.
            leftover = sum(self.survivors)
            if leftover:
                self.stats.promoted_bytes += leftover
            self.survivors = []
            self.nursery_used = 0
        return pause

    def _minor_collection(self, collected_bytes: int) -> int:
        live = collected_bytes // self.survivor_divisor
        # Everything already in the survivor space is re-copied; the
        # oldest batch graduates to the old generation instead.
        promoted = 0
        if len(self.survivors) >= self.tenure_age:
            promoted = self.survivors.pop(0)
        copied = live + sum(self.survivors)
        self.survivors.append(live)
        pause = self.pause_base + self.copy_per_byte * copied
        self.stats.minor_collections += 1
        self.stats.pause_cycles += pause
        self.stats.promoted_bytes += promoted
        self.stats.copied_bytes += copied
        if self.on_collection is not None:
            self.on_collection(self.stats.minor_collections, pause, promoted)
        return pause
