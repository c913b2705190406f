"""A generic worklist dataflow solver.

The solver is parameterized twice:

- a **CFG adapter** supplies blocks, edges and an iteration order.  Two
  adapters cover the repository's substrates: :class:`BytecodeCFG` wraps
  the bytecode :class:`~repro.frontend.blocks.BlockGraph` (blocks are
  integer indices), :class:`IRCFG` wraps the scheduled
  :class:`~repro.scheduler.cfg.ControlFlowGraph` (blocks are
  :class:`~repro.scheduler.cfg.IRBlock` objects).  Any object with the
  same four methods works.

- an **analysis** supplies the lattice: ``bottom()``, ``join(a, b)``,
  ``transfer(block, state)`` and optionally ``entry_state()``,
  ``widen(old, new)`` (applied at loop headers after ``widen_after``
  visits) and ``equal(a, b)``.

``solve`` iterates transfer functions to a fixed point and returns the
per-block in/out states plus the iteration count — which the property
tests use to check idempotence (re-solving from the fixed point takes
exactly one sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List

Block = Hashable


class BytecodeCFG:
    """Adapter over :class:`repro.frontend.blocks.BlockGraph`.

    Blocks are the graph's integer block indices; unreachable blocks are
    excluded.
    """

    def __init__(self, block_graph):
        self.block_graph = block_graph

    def blocks(self) -> List[int]:
        return list(self.block_graph.rpo)

    def successors(self, block: int) -> List[int]:
        return list(self.block_graph.blocks[block].successors)

    def predecessors(self, block: int) -> List[int]:
        return [p for p in self.block_graph.blocks[block].predecessors
                if p in self.block_graph.reachable]

    def is_loop_header(self, block: int) -> bool:
        return self.block_graph.blocks[block].is_loop_header


class IRCFG:
    """Adapter over :class:`repro.scheduler.cfg.ControlFlowGraph`.

    Blocks are :class:`IRBlock` objects (hashable by identity).
    """

    def __init__(self, cfg):
        self.cfg = cfg

    def blocks(self) -> List[Any]:
        return list(self.cfg.rpo)

    def successors(self, block) -> List[Any]:
        return list(block.successors)

    def predecessors(self, block) -> List[Any]:
        return list(block.predecessors)

    def is_loop_header(self, block) -> bool:
        return block.is_loop_header


@dataclass
class DataflowResult:
    """Per-block fixed-point states."""

    block_in: Dict[Block, Any] = field(default_factory=dict)
    block_out: Dict[Block, Any] = field(default_factory=dict)
    #: Total transfer-function applications until the fixed point.
    iterations: int = 0

    def state_in(self, block: Block) -> Any:
        return self.block_in[block]

    def state_out(self, block: Block) -> Any:
        return self.block_out[block]


class _Solver:
    """Shared worklist machinery; direction decided by subclasses."""

    #: Visits to a loop-header block before ``widen`` kicks in.
    widen_after = 8

    def __init__(self, cfg, analysis):
        self.cfg = cfg
        self.analysis = analysis

    # -- direction hooks (overridden by Forward/Backward) -------------------

    def _order(self) -> List[Block]:
        raise NotImplementedError

    def _sources(self, block: Block) -> List[Block]:
        """Blocks whose dataflow feeds *block*."""
        raise NotImplementedError

    def _sinks(self, block: Block) -> List[Block]:
        """Blocks fed by *block*'s dataflow."""
        raise NotImplementedError

    # -- the fixed-point loop ------------------------------------------------

    def solve(self) -> DataflowResult:
        analysis = self.analysis
        order = self._order()
        positions = {block: i for i, block in enumerate(order)}
        result = DataflowResult()
        entry_state = getattr(analysis, "entry_state",
                              analysis.bottom)()
        equal: Callable[[Any, Any], bool] = getattr(
            analysis, "equal", lambda a, b: a == b)
        widen = getattr(analysis, "widen", None)
        is_header = getattr(self.cfg, "is_loop_header", lambda b: False)

        visits: Dict[Block, int] = {}
        worklist = list(order)
        queued = set(worklist)
        while worklist:
            # Process in iteration order: pull the earliest queued block.
            worklist.sort(key=positions.__getitem__)
            block = worklist.pop(0)
            queued.discard(block)

            sources = self._sources(block)
            if sources:
                state = None
                for source in sources:
                    source_out = result.block_out.get(source)
                    if source_out is None:
                        continue
                    state = source_out if state is None else \
                        analysis.join(state, source_out)
                if state is None:
                    state = analysis.bottom()
            else:
                state = entry_state

            visits[block] = visits.get(block, 0) + 1
            if widen is not None and is_header(block) and \
                    visits[block] > self.widen_after:
                previous = result.block_in.get(block)
                if previous is not None:
                    state = widen(previous, state)

            result.block_in[block] = state
            out = analysis.transfer(block, state)
            result.iterations += 1
            previous_out = result.block_out.get(block)
            if previous_out is not None and equal(previous_out, out):
                continue
            result.block_out[block] = out
            for sink in self._sinks(block):
                if sink not in queued:
                    queued.add(sink)
                    worklist.append(sink)
        return result


class ForwardSolver(_Solver):
    """in[b] = join(out[preds]); entry blocks get ``entry_state()``."""

    def _order(self) -> List[Block]:
        return self.cfg.blocks()

    def _sources(self, block: Block) -> List[Block]:
        return self.cfg.predecessors(block)

    def _sinks(self, block: Block) -> List[Block]:
        return self.cfg.successors(block)


class BackwardSolver(_Solver):
    """in[b] = join(out[succs]); exit blocks get ``entry_state()``."""

    def _order(self) -> List[Block]:
        return list(reversed(self.cfg.blocks()))

    def _sources(self, block: Block) -> List[Block]:
        return self.cfg.successors(block)

    def _sinks(self, block: Block) -> List[Block]:
        return self.cfg.predecessors(block)


def solve_forward(cfg, analysis) -> DataflowResult:
    return ForwardSolver(cfg, analysis).solve()


def solve_backward(cfg, analysis) -> DataflowResult:
    return BackwardSolver(cfg, analysis).solve()
