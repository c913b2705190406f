"""Summary-guided PEA at invoke sites: null/borrow/materialize
decisions, the lock gate, ``f(o, o)`` identity, conservative behaviour
with summaries off, and the escape-summary cache facts."""

from repro.analysis.summaries import SummaryView, summaries_for
from repro.bytecode import Heap, Interpreter
from repro.bytecode.instructions import MethodRef
from repro.frontend import build_graph
from repro.jit import CompilationCache, CompilerConfig
from repro.jit.cache import validate_facts
from repro.lang import compile_source
from repro.opt import (CanonicalizerPhase, DeadCodeEliminationPhase,
                       GlobalValueNumberingPhase)
from repro.pea import PartialEscapePhase
from repro.runtime import Deoptimizer, GraphInterpreter

SOURCE = """
class Box { int v; int w; }
class Sink { static Box kept; }
class Main {
    static int ro(Box b) { return b.v + b.w; }
    static int use(Box b, int k) { return k * 3; }
    static int cap(Box b) { Sink.kept = b; return b.v; }
    static int same(Box a, Box b) {
        if (a == b) { return 2; }
        return 1;
    }
    static int run_null(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
            Box b = new Box();
            b.v = i;
            acc = acc + use(b, i);
        }
        return acc;
    }
    static int run_borrow(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
            Box b = new Box();
            b.v = i;
            b.w = i + 3;
            acc = acc + ro(b);
        }
        return acc;
    }
    static int run_cap(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
            Box b = new Box();
            b.v = i;
            acc = acc + cap(b);
        }
        return acc;
    }
    static int run_identity(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
            Box b = new Box();
            b.v = i;
            acc = acc + same(b, b);
        }
        return acc;
    }
    static int run_locked(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
            Box b = new Box();
            b.v = i;
            synchronized (b) {
                acc = acc + ro(b);
            }
        }
        return acc;
    }
}
"""


def optimize(source, qualified, summaries=True):
    """No inlining, so every helper call stays a real InvokeNode — the
    shape the summary consultation exists for."""
    program = compile_source(source)
    graph = build_graph(program, program.method(qualified))
    CanonicalizerPhase().run(graph)
    GlobalValueNumberingPhase().run(graph)
    DeadCodeEliminationPhase().run(graph)
    view = SummaryView(summaries_for(program)) if summaries else None
    pea = PartialEscapePhase(program, 2, summaries=view)
    pea.run(graph)
    CanonicalizerPhase().run(graph)
    GlobalValueNumberingPhase().run(graph)
    DeadCodeEliminationPhase().run(graph)
    graph.verify()
    return program, graph, pea.last_result


def execute(program, graph, args):
    heap = Heap(program)
    interp = Interpreter(program, heap)
    deopt = Deoptimizer(program, heap, interp)

    def invoke(kind, ref, call_args):
        if kind == "virtual":
            callee = program.resolve_virtual(call_args[0].class_name,
                                             ref.method_name)
        else:
            callee = program.resolve_method(ref.class_name,
                                            ref.method_name)
        return interp.invoke(callee, call_args)

    gi = GraphInterpreter(program, heap, invoke, deopt)
    result = gi.execute(graph, list(args))
    return result, heap.stats


def reference(source, qualified, args):
    program = compile_source(source)
    interp = Interpreter(program)
    result = interp.call(qualified, *args)
    return result, interp.heap.stats


def test_unused_param_is_nulled():
    program, graph, pea = optimize(SOURCE, "Main.run_null")
    assert pea.nulled_args >= 1
    assert pea.materializations == 0
    assert pea.borrowed_args == 0
    result, stats = execute(program, graph, [9])
    expected, __ = reference(SOURCE, "Main.run_null", [9])
    assert result == expected
    assert stats.allocations == 0
    assert stats.stack_allocations == 0


def test_readonly_param_is_borrowed():
    program, graph, pea = optimize(SOURCE, "Main.run_borrow")
    assert pea.borrowed_args >= 1
    assert pea.materializations == 0
    result, stats = execute(program, graph, [8])
    expected, ref_stats = reference(SOURCE, "Main.run_borrow", [8])
    assert result == expected
    # The borrow is a zone allocation: invisible to the heap counter
    # the paper's Table 1 measures, visible in the stack counter.
    assert stats.allocations == 0
    assert stats.stack_allocations == 8
    assert ref_stats.allocations == 8


def test_borrow_event_attributes_the_allocation_site():
    __, __, pea = optimize(SOURCE, "Main.run_borrow")
    borrowed = [e for e in pea.events if e.kind == "borrowed"]
    assert borrowed
    assert borrowed[0].object_desc == "Box"
    assert "Main.ro" in borrowed[0].reason


def test_capturing_callee_still_materializes():
    program, graph, pea = optimize(SOURCE, "Main.run_cap")
    assert pea.nulled_args == 0
    assert pea.borrowed_args == 0
    assert pea.materializations >= 1
    result, stats = execute(program, graph, [7])
    expected, ref_stats = reference(SOURCE, "Main.run_cap", [7])
    assert result == expected
    assert stats.allocations == ref_stats.allocations == 7


def test_same_object_at_two_positions_keeps_identity():
    """``same(b, b)`` joins the two parameter summaries per object and
    passes one shared replacement — the callee's ``a == b`` must stay
    true."""
    program, graph, pea = optimize(SOURCE, "Main.run_identity")
    result, stats = execute(program, graph, [5])
    expected, __ = reference(SOURCE, "Main.run_identity", [5])
    assert result == expected == 2 * 5
    assert stats.allocations == 0


def test_elided_lock_blocks_the_borrow():
    """Inside a virtualized synchronized region the object's
    lock_count is nonzero: a borrowed copy would not carry the lock, so
    the object must materialize (re-acquiring its monitors)."""
    program, graph, pea = optimize(SOURCE, "Main.run_locked")
    assert pea.borrowed_args == 0
    assert pea.nulled_args == 0
    assert pea.materializations >= 1
    result, stats = execute(program, graph, [6])
    expected, ref_stats = reference(SOURCE, "Main.run_locked", [6])
    assert result == expected
    assert stats.monitor_enters == ref_stats.monitor_enters == 6
    assert stats.monitor_exits == ref_stats.monitor_exits == 6


def test_without_summaries_every_invoke_argument_escapes():
    program, graph, pea = optimize(SOURCE, "Main.run_borrow",
                                   summaries=False)
    assert pea.nulled_args == 0
    assert pea.borrowed_args == 0
    assert pea.materializations >= 1
    result, stats = execute(program, graph, [8])
    expected, ref_stats = reference(SOURCE, "Main.run_borrow", [8])
    assert result == expected
    assert stats.allocations == ref_stats.allocations == 8


def test_on_off_identical_when_no_decision_fires():
    """A capturing callee gives the summaries nothing to do: metrics
    must be bit-identical with the analysis on and off."""
    on = optimize(SOURCE, "Main.run_cap", summaries=True)
    off = optimize(SOURCE, "Main.run_cap", summaries=False)
    result_on, stats_on = execute(on[0], on[1], [11])
    result_off, stats_off = execute(off[0], off[1], [11])
    assert result_on == result_off
    assert stats_on == stats_off


# -- cache interaction ---------------------------------------------------------


def test_escape_summaries_changes_the_pipeline_key():
    program = compile_source(SOURCE)
    method = program.method("Main.run_borrow")
    plain = CompilationCache.compilation_key(
        program, method, CompilerConfig.partial_escape(), True)
    with_summaries = CompilationCache.compilation_key(
        program, method,
        CompilerConfig.partial_escape(escape_tier="pea+summaries"), True)
    assert plain != with_summaries


def test_summary_facts_validate_by_recomputation():
    program = compile_source(SOURCE)
    view = SummaryView(summaries_for(program))
    assert view.summary_for_call(MethodRef("Main", "ro", 1)) is not None
    facts = view.facts()
    assert facts and facts[0][0] == "escape_summary"
    assert validate_facts(facts, program, None)

    # The same caller against a program whose callee now captures its
    # argument: the recorded digest no longer matches, the cached graph
    # (whose borrow decision relied on it) must not be reused.
    changed = SOURCE.replace(
        "static int ro(Box b) { return b.v + b.w; }",
        "static int ro(Box b) { Sink.kept = b; return b.v + b.w; }")
    program_b = compile_source(changed)
    assert not validate_facts(facts, program_b, None)


def test_unrelated_method_change_keeps_facts_valid():
    program = compile_source(SOURCE)
    view = SummaryView(summaries_for(program))
    view.summary_for_call(MethodRef("Main", "ro", 1))
    facts = view.facts()
    changed = SOURCE.replace("return k * 3;", "return k * 4;")
    program_b = compile_source(changed)
    assert validate_facts(facts, program_b, None)
