"""The shared control-flow algorithms against brute-force oracles.

Random small digraphs (self loops, duplicate edges, unreachable nodes,
nested and multi-latch loops, irreducible cycles) exercise reverse post
order, Cooper-Harvey-Kennedy dominators and the natural-loop walk, once
with int block ids (as the bytecode CFG uses) and once with block
objects that compare by identity (as the IR CFG uses).
"""

from typing import Dict, List, Set

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.scheduler.controlflow import (dominates, immediate_dominators,
                                         natural_loop, reverse_post_order)

from fuzz_seed import hypothesis_seed

Digraph = Dict[int, List[int]]


class Block:
    """A block object without value equality."""

    def __init__(self, index: int):
        self.index = index

    def __repr__(self):
        return f"B{self.index}"


@st.composite
def digraphs(draw) -> Digraph:
    """Up to eight nodes: a random tree from node 0 over the first few
    keeps them reachable, and random extra edges add joins, loops and
    cycles; the other nodes are reachable only if an extra edge says
    so."""
    size = draw(st.integers(1, 8))
    successors: Digraph = {v: [] for v in range(size)}
    for v in range(1, draw(st.integers(1, size))):
        successors[draw(st.integers(0, v - 1))].append(v)
    node = st.integers(0, size - 1)
    for source, target in draw(st.lists(st.tuples(node, node),
                                        max_size=3 * size)):
        successors[source].append(target)
    return successors


def predecessors_of(successors: Digraph) -> Digraph:
    preds: Digraph = {v: [] for v in successors}
    for source, targets in successors.items():
        for target in targets:
            preds[target].append(source)
    return preds


def reach(successors: Digraph, start: int, removed=None) -> Set[int]:
    """Nodes reachable from *start* without entering *removed*."""
    if start == removed:
        return set()
    seen = {start}
    stack = [start]
    while stack:
        for succ in successors[stack.pop()]:
            if succ != removed and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def recursive_rpo(successors: Digraph) -> List[int]:
    post: List[int] = []
    visited: Set[int] = set()

    def visit(node):
        visited.add(node)
        for succ in successors[node]:
            if succ not in visited:
                visit(succ)
        post.append(node)

    visit(0)
    return post[::-1]


# The loop of header 2 (latch 3) nested in the loop of header 1
# (latches 3 and 4); the unreachable node 5 feeds latch 4, so a walk
# over all predecessors counts it in the outer loop.
NESTED = {0: [1], 1: [2, 6], 2: [3], 3: [2, 1, 4], 4: [1], 5: [4],
          6: []}
# Two headers with two latches each, one loop after the other.
SEQUENTIAL = {0: [1], 1: [2, 3], 2: [1], 3: [1, 4], 4: [5], 5: [4, 6],
              6: [4]}
# A join whose immediate dominator is neither predecessor.
DIAMOND = {0: [1, 2], 1: [3], 2: [3], 3: []}
# The cycle 1 <-> 2 entered at both nodes: the first sweep over the
# order 0, 3, 1, 2 gives 1 the dominator 3, only the second fixes it.
IRREDUCIBLE = {0: [3, 2], 1: [2], 2: [1], 3: [1]}


@hypothesis_seed
@settings(max_examples=300, deadline=None)
@given(graph=digraphs(), boxed=st.booleans())
@example(graph=NESTED, boxed=False)
@example(graph=NESTED, boxed=True)
@example(graph=SEQUENTIAL, boxed=False)
@example(graph=DIAMOND, boxed=True)
@example(graph=IRREDUCIBLE, boxed=False)
def test_algorithms_match_brute_force(graph, boxed):
    preds = predecessors_of(graph)
    reachable = reach(graph, 0)
    # The algorithms see either the int ids or one object per id.
    blocks = [Block(v) if boxed else v for v in graph]

    def ident(block):
        return block.index if boxed else block

    def ids(items):
        return [ident(item) for item in items]

    def succ_fn(block):
        return [blocks[s] for s in graph[ident(block)]]

    def pred_fn(block):
        return [blocks[p] for p in preds[ident(block)]]

    # Reverse post order: every reachable node once, entry first, the
    # order of a depth-first walk in successor order, and every edge
    # that does not close a cycle runs forward in it.
    rpo = ids(reverse_post_order(blocks[0], succ_fn))
    assert rpo == recursive_rpo(graph)
    assert rpo[0] == 0 and sorted(rpo) == sorted(reachable)
    position = {v: i for i, v in enumerate(rpo)}
    for source in reachable:
        for target in graph[source]:
            if source not in reach(graph, target):
                assert position[source] < position[target]

    # Dominators: a dominates b iff removing a cuts b off from the
    # entry; the immediate dominator is the strict dominator every
    # other strict dominator dominates.
    idom = immediate_dominators([blocks[v] for v in rpo], pred_fn)
    assert sorted(ids(idom)) == sorted(reachable)
    assert idom[blocks[0]] is None

    def oracle_dominates(a, b):
        return a == b or b not in reach(graph, 0, removed=a)

    for a in reachable:
        for b in reachable:
            assert dominates(idom, blocks[a], blocks[b]) == \
                oracle_dominates(a, b), (a, b)
    for b in reachable - {0}:
        parent = ident(idom[blocks[b]])
        strict = {a for a in reachable
                  if a != b and oracle_dominates(a, b)}
        assert parent in strict
        assert all(oracle_dominates(a, parent) for a in strict)

    # Natural loops: for every header with back edges (latches it
    # dominates), the header plus every node that reaches a latch
    # without passing through the header.
    for header in reachable:
        latches = [p for p in preds[header]
                   if p in reachable and oracle_dominates(header, p)]
        if not latches:
            continue
        members = ids(natural_loop(blocks[header],
                                   [blocks[p] for p in latches], pred_fn))
        expected = {header} | {
            v for v in graph if v != header
            and reach(graph, v, removed=header) & set(latches)}
        assert sorted(members) == sorted(expected), header
