"""Automatic test-case reduction (delta debugging on statements).

Given a failing :class:`~repro.verify.generator.GeneratedProgram` and a
predicate "does this candidate still fail the same way?", the shrinker
repeatedly tries structural simplifications until none applies:

- drop a contiguous chunk of statements (binary-search granularity,
  classic ddmin) from any method body or compound-statement body;
- replace an ``if``/``loop``/``sync`` compound by its body statements
  (hoisting — removes the control structure but keeps the effects);
- drop a compound's ``else`` branch.

Leaf statements are atomic: the generator emits multi-line PEA shapes
(branch-escape, loop-virtual, ...) as single leaves precisely so that
shrinking never produces use-before-def programs.  Candidates that fail
*differently* (or not at all, or no longer compile — the predicate is
expected to treat exceptions as "no") are rejected, so the result is a
1-minimal reproducer for the original failure category.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .generator import GeneratedProgram, Stmt

Predicate = Callable[[GeneratedProgram], bool]


def _reduce_list(stmts: List[Stmt], rebuild, predicate: Predicate
                 ) -> Optional[List[Stmt]]:
    """Try to remove a chunk of *stmts*; returns the reduced list or
    ``None`` when no chunk can go.  ``rebuild(new_list)`` produces the
    candidate program with the list swapped in."""
    n = len(stmts)
    chunk = n
    while chunk >= 1:
        start = 0
        while start < n:
            candidate = stmts[:start] + stmts[start + chunk:]
            if len(candidate) != n and predicate(rebuild(candidate)):
                return candidate
            start += chunk
        chunk //= 2
    return None


def _apply_to_list(program: GeneratedProgram, path, new_list):
    """Return a copy of *program* with the statement list at *path*
    replaced.  A path is ``(method, (index, part), (index, part), ...)``
    descending through compound statements; ``part`` is ``"body"`` or
    ``"orelse"``."""
    clone = program.copy()
    method, *steps = path
    container = clone.bodies[method]
    for index, part in steps[:-1]:
        container = getattr(container[index], part)
    if steps:
        index, part = steps[-1]
        setattr(container[index], part, [s.copy() for s in new_list])
    else:
        clone.bodies[method] = [s.copy() for s in new_list]
    return clone


def _walk_lists(program: GeneratedProgram):
    """Yield ``(path, list)`` for every statement list in the program,
    outermost first."""
    def descend(prefix, stmts):
        yield prefix, stmts
        for index, stmt in enumerate(stmts):
            if stmt.kind == "compound":
                if stmt.body is not None:
                    yield from descend(prefix + ((index, "body"),),
                                       stmt.body)
                if stmt.orelse is not None:
                    yield from descend(prefix + ((index, "orelse"),),
                                       stmt.orelse)

    for method, stmts in program.bodies.items():
        yield from descend((method,), stmts)


def _try_structural(program: GeneratedProgram, predicate: Predicate
                    ) -> Optional[GeneratedProgram]:
    """One structural simplification: hoist a compound's body into its
    parent list, or drop an else-branch."""
    for path, stmts in _walk_lists(program):
        for index, stmt in enumerate(stmts):
            if stmt.kind != "compound":
                continue
            hoisted = stmts[:index] + (stmt.body or []) \
                + stmts[index + 1:]
            candidate = _apply_to_list(program, path, hoisted)
            if predicate(candidate):
                return candidate
            if stmt.orelse is not None:
                without_else = [s.copy() for s in stmts]
                without_else[index].orelse = None
                candidate = _apply_to_list(program, path, without_else)
                if predicate(candidate):
                    return candidate
    return None


def shrink_program(program: GeneratedProgram, predicate: Predicate,
                   max_steps: int = 2000) -> GeneratedProgram:
    """Reduce *program* to a smaller one that still satisfies
    *predicate* (which must hold for *program* itself).  Terminates at
    a local minimum: no single chunk removal, hoist or else-drop keeps
    the failure alive."""
    current = program.copy()
    steps = 0
    progress = True
    while progress and steps < max_steps:
        progress = False
        for path, stmts in list(_walk_lists(current)):
            reduced = _reduce_list(
                stmts,
                lambda new_list, _path=path: _apply_to_list(
                    current, _path, new_list),
                predicate)
            steps += 1
            if reduced is not None:
                current = _apply_to_list(current, path, reduced)
                progress = True
                break
        if not progress:
            simplified = _try_structural(current, predicate)
            steps += 1
            if simplified is not None:
                current = simplified
                progress = True
    return current
