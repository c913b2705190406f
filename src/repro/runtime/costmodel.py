"""The simulated-machine cost model.

"Iterations per minute" in Table 1 becomes *simulated cycles per
iteration* here: every executed IR node and every interpreted bytecode is
charged a cycle cost, allocations are charged a base cost plus a
zeroing cost per byte, GC pressure is charged by the simulated
generational collector in :mod:`repro.runtime.gcsim` (nursery bump
allocation, minor-collection pauses proportional to copied bytes), and
compiled code is charged an instruction-cache penalty that grows with
machine-code size.  The i-cache
penalty is what reproduces the paper's jython observation: "Partial Escape
Analysis can in rare cases increase the size of compiled methods, which
has a negative influence on this benchmark."

Absolute numbers are arbitrary; only relative comparisons between
configurations are meaningful (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.node import Node
from ..ir.nodes import (ArrayLengthNode, BinaryArithmeticNode,
                        DeoptimizeNode, FixedGuardNode, IfNode,
                        InstanceOfNode, IntCompareNode, InvokeNode,
                        IsNullNode, LoadFieldNode, LoadIndexedNode,
                        LoadStaticNode, MonitorEnterNode, MonitorExitNode,
                        NegNode, NewArrayNode, NewInstanceNode,
                        RefEqualsNode, StoreFieldNode, StoreIndexedNode,
                        StoreStaticNode)


@dataclass
class CostModel:
    """Cycle costs of the simulated machine."""

    #: Cycles per interpreted bytecode (interpreter dispatch overhead).
    interpreter_step: int = 20
    #: Allocation: fixed path cost (TLAB bump, header init).
    alloc_base: int = 24
    #: Zeroing/initialization cost per allocated byte.  GC pressure is
    #: no longer amortized here — it is charged as minor-collection
    #: pauses by the generational collector simulation (see the gc_*
    #: knobs below and :mod:`repro.runtime.gcsim`).
    alloc_per_byte: float = 0.25
    #: Monitor enter/exit (biased-lock fast path).
    monitor_op: int = 16
    #: Call overhead of a non-inlined invoke (frame setup, dispatch).
    invoke_overhead: int = 24
    #: Deoptimization: state reconstruction cost.
    deopt: int = 600
    #: i-cache pressure: extra cost factor per compiled node beyond the
    #: comfortable footprint.
    icache_capacity: int = 1500
    icache_factor: float = 0.9

    arithmetic: int = 1
    compare: int = 1
    memory_access: int = 2
    guard: int = 1
    control: int = 0

    #: Simulated generational collector (see ``repro.runtime.gcsim``):
    #: nursery capacity in bytes; a minor collection runs whenever bump
    #: allocation fills it.
    gc_nursery_bytes: int = 16 * 1024
    #: 1/gc_survivor_divisor of the collected bytes is assumed live and
    #: copied to the survivor space.
    gc_survivor_divisor: int = 8
    #: Survivors are re-copied this many times before promotion to the
    #: old generation.
    gc_tenure_age: int = 3
    #: Fixed pause cost of a minor collection (root scan, bookkeeping).
    gc_pause_base: int = 400
    #: Pause cycles per byte copied during a minor collection.
    gc_copy_per_byte: int = 2

    def node_cost(self, node: Node) -> int:
        """Execution cost of one IR node (allocation byte costs are added
        separately by the graph interpreter, which knows the sizes)."""
        if isinstance(node, (BinaryArithmeticNode, NegNode)):
            return self.arithmetic
        if isinstance(node, (IntCompareNode, RefEqualsNode, IsNullNode,
                             InstanceOfNode)):
            return self.compare
        if isinstance(node, (LoadFieldNode, StoreFieldNode,
                             LoadStaticNode, StoreStaticNode,
                             LoadIndexedNode, StoreIndexedNode,
                             ArrayLengthNode)):
            return self.memory_access
        if isinstance(node, (NewInstanceNode, NewArrayNode)):
            return self.alloc_base
        if isinstance(node, (MonitorEnterNode, MonitorExitNode)):
            return self.monitor_op
        if isinstance(node, InvokeNode):
            return self.invoke_overhead
        if isinstance(node, FixedGuardNode):
            return self.guard
        if isinstance(node, DeoptimizeNode):
            return self.deopt
        if isinstance(node, IfNode):
            return 1
        return self.control

    def icache_multiplier(self, compiled_node_count: int) -> float:
        """Execution-cost multiplier modelling i-cache pressure for a
        method compiled to *compiled_node_count* IR nodes."""
        excess = max(0, compiled_node_count - self.icache_capacity)
        return 1.0 + self.icache_factor * (excess / self.icache_capacity)

    def allocation_bytes_cost(self, byte_count: int) -> float:
        return self.alloc_per_byte * byte_count

    #: Stack/zone allocation: bump-pointer, no GC amortization.
    stack_alloc_per_byte: float = 0.15

    def stack_allocation_bytes_cost(self, byte_count: int) -> float:
        return self.stack_alloc_per_byte * byte_count


DEFAULT_COST_MODEL = CostModel()


@dataclass
class ExecutionStats:
    """Cycle and event counters for one execution configuration."""

    cycles: float = 0.0
    node_executions: int = 0
    interpreter_steps: int = 0
    deopts: int = 0
    compiled_invocations: int = 0
    interpreted_invocations: int = 0
    #: Per-node-kind execution counts; only populated when the VM runs
    #: with ``CompilerConfig.collect_node_histogram`` (``--profile``).
    node_kind_executions: dict = field(default_factory=dict)

    def copy(self) -> "ExecutionStats":
        return ExecutionStats(self.cycles, self.node_executions,
                              self.interpreter_steps, self.deopts,
                              self.compiled_invocations,
                              self.interpreted_invocations,
                              dict(self.node_kind_executions))

    def delta(self, earlier: "ExecutionStats") -> "ExecutionStats":
        histogram = {
            kind: count - earlier.node_kind_executions.get(kind, 0)
            for kind, count in self.node_kind_executions.items()}
        return ExecutionStats(
            self.cycles - earlier.cycles,
            self.node_executions - earlier.node_executions,
            self.interpreter_steps - earlier.interpreter_steps,
            self.deopts - earlier.deopts,
            self.compiled_invocations - earlier.compiled_invocations,
            self.interpreted_invocations - earlier.interpreted_invocations,
            histogram)
