"""Control-flow algorithms shared by the bytecode and IR CFGs.

:class:`~repro.frontend.blocks.BlockGraph` names its blocks by integer
ids and :class:`~repro.scheduler.cfg.ControlFlowGraph` by
:class:`~repro.scheduler.cfg.IRBlock` objects; both hand this module an
entry block and successor or predecessor callables, so each algorithm
exists once for any hashable block type:

- :func:`reverse_post_order`, the order the graph builder and PEA walk
  blocks in;
- :func:`immediate_dominators` (Cooper, Harvey and Kennedy, "A Simple,
  Fast Dominance Algorithm") and the :func:`dominates` query, which
  classify back edges and check SSA dominance;
- :func:`natural_loop`, the membership PEA's loop fixed point iterates
  over (Section 5.4, Figure 7) and codegen's loop structurizer reads.
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Set, TypeVar)

B = TypeVar("B", bound=Hashable)


def reverse_post_order(entry: B,
                       successors: Callable[[B], Iterable[B]]) -> List[B]:
    """The blocks reachable from *entry*, in reverse post order of a
    depth-first walk that follows each block's successors in the order
    given (entry first)."""
    post: List[B] = []
    visited = {entry}
    stack = [(entry, iter(successors(entry)))]
    while stack:
        block, pending = stack[-1]
        for succ in pending:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(successors(succ))))
                break
        else:
            stack.pop()
            post.append(block)
    post.reverse()
    return post


def immediate_dominators(rpo: Sequence[B],
                         predecessors: Callable[[B], Iterable[B]]
                         ) -> Dict[B, Optional[B]]:
    """The immediate dominator of every block of *rpo* (a reverse post
    order, entry first).  The entry maps to ``None``; predecessors
    outside *rpo* (unreachable blocks) are ignored."""
    entry = rpo[0]
    order = {block: index for index, block in enumerate(rpo)}
    idom: Dict[B, Optional[B]] = {entry: entry}
    changed = True
    while changed:
        changed = False
        for block in rpo[1:]:
            new_idom = None
            for pred in predecessors(block):
                if pred not in idom:
                    continue
                if new_idom is None:
                    new_idom = pred
                    continue
                # Intersect: walk both fingers up the current tree until
                # they meet at the nearest common dominator.
                finger = pred
                while finger != new_idom:
                    while order[new_idom] > order[finger]:
                        new_idom = idom[new_idom]
                    while order[finger] > order[new_idom]:
                        finger = idom[finger]
            if new_idom is not None and idom.get(block) != new_idom:
                idom[block] = new_idom
                changed = True
    idom[entry] = None
    return idom


def dominates(idom: Dict[B, Optional[B]], a: B, b: B) -> bool:
    """True if block *a* dominates block *b* under the immediate
    dominators *idom* (every block dominates itself)."""
    while b is not None:
        if b == a:
            return True
        b = idom.get(b)
    return False


def natural_loop(header: B, latches: Iterable[B],
                 predecessors: Callable[[B], Iterable[B]]) -> Set[B]:
    """The natural loop of *header*: the header plus every block that
    reaches one of its *latches* (back-edge sources) without passing
    through the header."""
    members = {header}
    worklist = list(latches)
    while worklist:
        block = worklist.pop()
        if block not in members:
            members.add(block)
            worklist.extend(predecessors(block))
    return members
