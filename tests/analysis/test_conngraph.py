"""Connection-graph escape analysis: unit behavior, the escape walk,
and the soundness differential against PEA.

The soundness oracle is the same trick the equi-escape baseline uses in
production: an allocation the connection graph approves is claimed to
escape *nowhere*, so restricting the flow-sensitive PEA machinery to the
approved set must virtualize without a single materialization.  Any
materialization would mean the cheap analysis approved an allocation
that actually escapes on some path — unsound, not just imprecise.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import ConnectionGraph
from repro.analysis.summaries import SummaryView, summaries_for
from repro.frontend import build_graph
from repro.ir.graph import Graph
from repro.lang import compile_source
from repro.opt import (CanonicalizerPhase, DeadCodeEliminationPhase,
                       InliningPhase)
from repro.pea.effects import Effects
from repro.pea.processor import PEAProcessor

from fuzz_seed import hypothesis_seed
from repro.verify.generator import ProgramGenerator

_SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large,
                           HealthCheck.filter_too_much])


def prepare(source, qualified, natives=None, inline=True):
    program = compile_source(source, natives=natives)
    graph = build_graph(program, program.method(qualified))
    if inline:
        InliningPhase(program).run(graph)
    CanonicalizerPhase().run(graph)
    DeadCodeEliminationPhase().run(graph)
    return program, graph


# -- the escape walk --------------------------------------------------------


def test_escape_walk_deep_chain_does_not_recurse():
    n = 50_000  # far beyond the default Python recursion limit
    conngraph = ConnectionGraph(Graph()).build()
    conngraph.edges = {v: [v + 1] for v in range(n - 1)}
    conngraph.roots = {0}
    assert len(conngraph.escaped_nodes()) == n


# -- unit behavior ----------------------------------------------------------


def test_local_object_approved():
    source = """
        class Box { int v; }
        class C { static int m(int a) {
            Box b = new Box();
            b.v = a;
            return b.v;
        } }
    """
    program, graph = prepare(source, "C.m")
    assert len(ConnectionGraph(graph, program).analyze()) == 1


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
    assert not ConnectionGraph(graph, program).analyze()


def test_static_store_escapes():
    source = """
        class Box { int v; }
        class C {
            static Box g;
            static void m() { g = new Box(); }
        }
    """
    program, graph = prepare(source, "C.m")
    assert not ConnectionGraph(graph, program).analyze()


def test_unmodeled_call_argument_escapes():
    source = """
        class Box { int v; }
        class C {
            static native void sink(Box b);
            static void m() { sink(new Box()); }
        }
    """
    program, graph = prepare(source, "C.m",
                             natives={"C.sink": lambda i, a: None})
    assert not ConnectionGraph(graph, program).analyze()


def test_escaping_content_does_not_taint_container():
    """The directed mode's precision win over the equi-escape sets:
    the store edge is one-way (container -> content), so a content that
    escapes for its own reasons leaves its purely-local container
    alone."""
    source = """
        class Box { int v; }
        class Pair { Box a; }
        class C {
            static Box g;
            static int m(int x) {
                Pair p = new Pair();
                Box b = new Box();
                b.v = x;
                p.a = b;
                g = b;
                return p.a.v;
            }
        }
    """
    program, graph = prepare(source, "C.m")
    conngraph_approved = ConnectionGraph(graph, program).analyze()
    # p approved, b not: exactly one of the two allocations survives.
    assert len(conngraph_approved) == 1
    assert next(iter(conngraph_approved)).class_name == "Pair"
    # The symmetric mode (equi-escape sets) merges p with b and loses
    # both.
    assert not ConnectionGraph(graph, program, symmetric=True).analyze()


def test_escaping_container_taints_content():
    source = """
        class Box { int v; }
        class Pair { Box a; }
        class C {
            static Pair g;
            static void m() {
                Pair p = new Pair();
                p.a = new Box();
                g = p;
            }
        }
    """
    program, graph = prepare(source, "C.m")
    assert not ConnectionGraph(graph, program).analyze()


def test_summaries_unlock_call_arguments():
    """Without a summary a call argument is a worst-case escape root;
    the PR 5 summary of a read-only callee lifts it."""
    source = """
        class Box { int v; }
        class C {
            static void init(Box b) { b.v = 7; }
            static int m(int a) {
                Box b = new Box();
                init(b);
                return b.v + a;
            }
        }
    """
    program, graph = prepare(source, "C.m", inline=False)
    assert not ConnectionGraph(graph, program).analyze()
    view = SummaryView(summaries_for(program))
    assert len(ConnectionGraph(graph, program,
                               summaries=view).analyze()) == 1


_ALIAS_HEADER = """
    class Box { int v; }
    class Holder { Box f; }
    class C {
        static Box id(Box b) { return b; }
        static void put(Holder x, Box y) { x.f = y; }
"""

#: A non-inlined ``id(a)`` returns ``a`` itself: wherever the call result
#: goes, ``a`` goes.
_CALL_RESULT_ALIASES = {
    "stored-into-parameter": _ALIAS_HEADER + """
        static int m(Holder h, int x) {
            Box a = new Box();
            a.v = x;
            h.f = id(a);
            return a.v;
        }
    }
    """,
    "stored-into-returned-object": _ALIAS_HEADER + """
        static Holder m(int x) {
            Box a = new Box();
            a.v = x;
            Holder h = new Holder();
            h.f = id(a);
            return h;
        }
    }
    """,
    "passed-to-a-summarized-store": _ALIAS_HEADER + """
        static int m(Holder h, int x) {
            Box a = new Box();
            a.v = x;
            put(h, id(a));
            return a.v;
        }
    }
    """,
    "merged-at-a-phi": _ALIAS_HEADER + """
        static Box g;
        static int m(int x) {
            Box a = new Box();
            a.v = x;
            Box b = null;
            if (x > 0) { b = id(a); }
            g = b;
            return a.v;
        }
    }
    """,
}


@pytest.mark.parametrize("symmetric", [False, True],
                         ids=["directed", "symmetric"])
@pytest.mark.parametrize("name", sorted(_CALL_RESULT_ALIASES))
def test_call_result_alias_escapes_through_stores(name, symmetric):
    program, graph = prepare(_CALL_RESULT_ALIASES[name], "C.m",
                             inline=False)
    view = SummaryView(summaries_for(program))
    approved = ConnectionGraph(graph, program, summaries=view,
                               symmetric=symmetric).analyze()
    assert not [a for a in approved if a.class_name == "Box"]


def test_store_into_call_result_roots_the_value():
    """``returned`` only says the argument *may* be the result: here
    the callee may as well return a static, so what is stored into the
    result escapes, while the argument itself stays local."""
    source = """
        class Box { int v; }
        class Holder { Box f; }
        class C {
            static Holder g;
            static Holder pick(Holder b, int x) {
                if (x > 0) { return b; }
                return g;
            }
            static int m(int x) {
                Holder a = new Holder();
                Box c = new Box();
                c.v = x;
                Holder r = pick(a, x);
                r.f = c;
                return c.v;
            }
        }
    """
    program, graph = prepare(source, "C.m", inline=False)
    view = SummaryView(summaries_for(program))
    approved = ConnectionGraph(graph, program, summaries=view).analyze()
    assert sorted(a.class_name for a in approved) == ["Holder"]


def test_phi_merged_local_objects_approved():
    source = """
        class Box { int v; }
        class C { static int m(int a) {
            Box b = null;
            if (a > 0) { b = new Box(); b.v = 1; }
            else { b = new Box(); b.v = 2; }
            return b.v;
        } }
    """
    program, graph = prepare(source, "C.m")
    assert len(ConnectionGraph(graph, program).analyze()) == 2


def test_phi_escape_taints_all_members():
    source = """
        class Box { int v; }
        class C {
            static Box g;
            static void m(int a) {
                Box b = null;
                if (a > 0) { b = new Box(); }
                else { b = new Box(); }
                g = b;
            }
        }
    """
    program, graph = prepare(source, "C.m")
    assert not ConnectionGraph(graph, program).analyze()


# -- properties on generated programs ---------------------------------------


def _generated_graphs(draw):
    """Build the three compiled methods of one generated program."""
    source = ProgramGenerator.from_hypothesis(draw).generate()
    program = compile_source(source)
    prepared = []
    for name in ("entry", "h1", "h2"):
        graph = build_graph(program, program.method(f"Main.{name}"))
        InliningPhase(program).run(graph)
        CanonicalizerPhase().run(graph)
        DeadCodeEliminationPhase().run(graph)
        prepared.append(graph)
    return source, program, prepared


@hypothesis_seed
@_SETTINGS
@given(data=st.data())
def test_escape_marking_is_monotone_in_roots(data):
    """Adding an escape root can only grow the escaped set (and shrink
    the approved set)."""
    source, program, graphs = _generated_graphs(data.draw)
    for graph in graphs:
        conngraph = ConnectionGraph(graph, program)
        conngraph.build()
        baseline = conngraph.escaped_nodes()
        candidates = [a for a in conngraph.allocations
                      if a not in conngraph.roots]
        if not candidates:
            continue
        conngraph.roots.add(candidates[0])
        widened = conngraph.escaped_nodes()
        assert widened >= baseline, source


#: Sources where conngraph approvals are straight-line scalar objects:
#: the flow-sensitive machinery must virtualize every approval without
#: a single materialization.  (Generated programs are excluded on
#: purpose — PEA also materializes for *mechanism* reasons unrelated to
#: escape: loop phis need runtime values, virtual arrays die on
#: unknown-index reads.  Behavioral soundness on the fuzz corpus is the
#: differential test below and the seventh fuzz engine.)
_STRAIGHT_LINE_SOURCES = (
    """
        class Box { int v; }
        class C { static int m(int a) {
            Box b = new Box();
            b.v = a;
            return b.v;
        } }
    """,
    """
        class Box { int v; }
        class Pair { Box a; }
        class C {
            static Box g;
            static int m(int x) {
                Pair p = new Pair();
                Box b = new Box();
                b.v = x;
                p.a = b;
                g = b;
                return p.a.v;
            }
        }
    """,
    """
        class Node { int v; Node next; }
        class C { static int m(int a) {
            Node head = new Node();
            Node tail = new Node();
            head.v = a;
            head.next = tail;
            tail.v = a * 2;
            return head.v + head.next.v;
        } }
    """,
)


@pytest.mark.parametrize("source", _STRAIGHT_LINE_SOURCES)
def test_approvals_are_sound_under_restricted_pea(source):
    """Soundness differential against the flow-sensitive machinery:
    restrict PEA to exactly the conngraph-approved allocations; on
    straight-line code a materialization would mean the cheap analysis
    approved an allocation that actually escapes somewhere."""
    program, graph = prepare(source, "C.m")
    approved = ConnectionGraph(graph, program).analyze()
    assert approved
    effects = Effects(graph)
    processor = PEAProcessor(graph, program, effects)
    processor.tool.allowed_allocations = approved
    tool = processor.run()
    assert tool.materializations == 0
    assert tool.virtualized_allocations == len(approved)


@hypothesis_seed
@_SETTINGS
@given(data=st.data(),
       a=st.integers(min_value=-20, max_value=20),
       b=st.integers(min_value=-20, max_value=20))
def test_conngraph_tier_behavioral_differential(data, a, b):
    """End-to-end soundness: generated programs run under the
    connection-graph tier (stack allocation + lock elision, no PEA)
    must match the reference interpreter on results and final statics,
    keep monitors balanced, and never allocate more."""
    from repro.bytecode import Interpreter
    from repro.jit import VM, CompilerConfig

    source = ProgramGenerator.from_hypothesis(data.draw).generate()
    program = compile_source(source)
    interp = Interpreter(program)
    before = interp.heap.stats.copy()
    expected = interp.call("Main.entry", a, b)
    interp_delta = interp.heap.stats.delta(before)
    expected_gi = program.get_static("Main", "gi")
    program.reset_statics()

    prog = compile_source(source)
    vm = VM(prog, CompilerConfig.conngraph(compile_threshold=3))
    for _ in range(6):
        vm.call("Main.entry", a, b)
        prog.reset_statics()
    before = vm.heap_snapshot()
    result = vm.call("Main.entry", a, b)
    delta = vm.heap_snapshot().delta(before)
    assert result == expected, source
    assert prog.get_static("Main", "gi") == expected_gi, source
    assert delta.monitor_enters == delta.monitor_exits, source
    assert delta.allocations <= interp_delta.allocations, source


@hypothesis_seed
@_SETTINGS
@given(data=st.data())
def test_conngraph_refines_equi_escape(data):
    """The one-way store edge makes the directed connection graph at
    least as precise as its symmetric (equi-escape sets) mode on every
    graph."""
    source, program, graphs = _generated_graphs(data.draw)
    for graph in graphs:
        equi = ConnectionGraph(graph, program, symmetric=True).analyze()
        conngraph = ConnectionGraph(graph, program).analyze()
        assert equi <= conngraph, source
