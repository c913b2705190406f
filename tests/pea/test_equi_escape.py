"""The flow-insensitive equi-escape-sets baseline (Section 6.2): the
connection graph's symmetric mode."""

import pytest

from repro.analysis import ConnectionGraph
from repro.frontend import build_graph
from repro.ir import nodes as N
from repro.lang import compile_source
from repro.opt import (CanonicalizerPhase, DeadCodeEliminationPhase,
                       InliningPhase)
from repro.pea import EquiEscapePhase, PartialEscapePhase


def prepare(source, qualified, natives=None):
    program = compile_source(source, natives=natives)
    graph = build_graph(program, program.method(qualified))
    InliningPhase(program).run(graph)
    CanonicalizerPhase().run(graph)
    DeadCodeEliminationPhase().run(graph)
    return program, graph


def equi_escape_sets(graph):
    return ConnectionGraph(graph, symmetric=True).analyze()


def count(graph, node_type):
    return len(list(graph.nodes_of(node_type)))


def test_non_escaping_object_approved_and_replaced():
    source = """
        class Box { int v; }
        class C { static int m(int a) {
            Box b = new Box();
            b.v = a;
            return b.v;
        } }
    """
    program, graph = prepare(source, "C.m")
    approved = equi_escape_sets(graph)
    assert len(approved) == 1
    EquiEscapePhase(program).run(graph)
    assert count(graph, N.NewInstanceNode) == 0


def test_returned_object_escapes():
    source = """
        class Box { int v; }
        class C { static Box m(int a) {
            Box b = new Box();
            b.v = a;
            return b;
        } }
    """
    program, graph = prepare(source, "C.m")
    assert not equi_escape_sets(graph)


def test_global_store_escapes():
    source = """
        class Box { int v; }
        class C {
            static Box g;
            static void m() { g = new Box(); }
        }
    """
    program, graph = prepare(source, "C.m")
    assert not equi_escape_sets(graph)


def test_call_argument_escapes():
    source = """
        class Box { int v; }
        class C {
            static native void sink(Box b);
            static void m() { sink(new Box()); }
        }
    """
    program, graph = prepare(source, "C.m",
                             natives={"C.sink": lambda i, a: None})
    assert not equi_escape_sets(graph)


def test_equi_escape_transitivity_through_stores():
    # inner is stored into outer; outer escapes -> inner escapes too.
    source = """
        class Box { Object o; }
        class C {
            static Box g;
            static void m() {
                Box inner = new Box();
                Box outer = new Box();
                outer.o = inner;
                g = outer;
            }
        }
    """
    program, graph = prepare(source, "C.m")
    assert not equi_escape_sets(graph)


def test_store_into_non_escaping_object_is_fine():
    source = """
        class Box { Object o; }
        class C {
            static int m() {
                Box inner = new Box();
                Box outer = new Box();
                outer.o = inner;
                if (outer.o == inner) { return 1; }
                return 0;
            }
        }
    """
    program, graph = prepare(source, "C.m")
    assert len(equi_escape_sets(graph)) == 2


def test_all_or_nothing_the_key_difference_from_pea():
    """The paper's motivating case: one escaping branch poisons the
    whole allocation for flow-insensitive EA, while PEA still wins."""
    source = """
        class Box { int v; }
        class C {
            static Box g;
            static int m(int a) {
                Box b = new Box();
                b.v = a;
                if (a == 123456) { g = b; }
                return b.v;
            }
        }
    """
    # Baseline: nothing approved, graph untouched.
    program, graph = prepare(source, "C.m")
    phase = EquiEscapePhase(program)
    phase.run(graph)
    assert count(graph, N.NewInstanceNode) == 1
    assert phase.last_result.virtualized_allocations == 0

    # PEA: allocation virtualized; materialization only on the rare
    # branch.
    program2, graph2 = prepare(source, "C.m")
    pea = PartialEscapePhase(program2, 1)
    pea.run(graph2)
    assert pea.last_result.virtualized_allocations == 1


def test_synchronized_use_does_not_escape():
    source = """
        class Box { int v; }
        class C { static int m(int a) {
            Box b = new Box();
            synchronized (b) { b.v = a; }
            return b.v;
        } }
    """
    program, graph = prepare(source, "C.m")
    assert len(equi_escape_sets(graph)) == 1
    EquiEscapePhase(program).run(graph)
    assert count(graph, N.MonitorEnterNode) == 0


def test_frame_state_reference_does_not_escape():
    # Kotzmann's insight: deopt metadata alone doesn't force escape.
    source = """
        class Box { int v; }
        class C {
            static int sink;
            static int m(int a) {
                Box b = new Box();
                b.v = a;
                sink = a;
                return b.v;
            }
        }
    """
    program, graph = prepare(source, "C.m")
    assert len(equi_escape_sets(graph)) == 1


def test_baseline_result_semantics():
    from pea_helpers import execute
    source = """
        class Box { int v; }
        class C { static int m(int a) {
            Box b = new Box();
            b.v = a * 2;
            synchronized (b) { b.v = b.v + 1; }
            return b.v;
        } }
    """
    program, graph = prepare(source, "C.m")
    EquiEscapePhase(program).run(graph)
    CanonicalizerPhase().run(graph)
    result, heap, __ = execute(program, graph, [10])
    assert result == 21
    assert heap.allocations == 0
    assert heap.monitor_enters == 0


def test_phi_merged_allocations():
    source = """
        class Box { int v; }
        class C { static int m(int a) {
            Box b = null;
            if (a > 0) { b = new Box(); } else { b = new Box(); }
            b.v = a;
            return b.v;
        } }
    """
    program, graph = prepare(source, "C.m")
    approved = equi_escape_sets(graph)
    # Both allocations are non-escaping by the set analysis...
    assert len(approved) == 2
    # ...and applying the phase keeps semantics (the phi forces
    # materialization, matching HotSpot's behavior on merged allocations).
    from pea_helpers import execute
    EquiEscapePhase(program).run(graph)
    result, __, __ = execute(program, graph, [5])
    assert result == 5
