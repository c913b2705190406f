"""GraphVerifier unit tests: each invariant layer is broken on purpose
in a hand-built graph and the verifier must name the violation."""

import pytest

from repro.bytecode import JField, Program
from repro.ir import Graph, nodes as N
from repro.verify import (GraphVerificationError, GraphVerifier,
                          verify_graph)


def diamond():
    """start -> if -> (left | right) -> merge -> return"""
    graph = Graph()
    start = graph.add(N.StartNode())
    graph.start = start
    if_node = graph.add(N.IfNode(condition=graph.constant(1)))
    start.next = if_node
    left = graph.add(N.BeginNode())
    right = graph.add(N.BeginNode())
    if_node.true_successor = left
    if_node.false_successor = right
    end_left = graph.add(N.EndNode())
    end_right = graph.add(N.EndNode())
    left.next = end_left
    right.next = end_right
    merge = graph.add(N.MergeNode())
    merge.add_end(end_left)
    merge.add_end(end_right)
    ret = graph.add(N.ReturnNode(value=graph.constant(0)))
    merge.next = ret
    return graph, if_node, left, right, end_left, end_right, merge, ret


def test_well_formed_diamond_passes():
    graph = diamond()[0]
    assert GraphVerifier(graph).run() == []
    verify_graph(graph)  # should not raise


def test_phi_arity_mismatch_is_reported():
    graph, *_, merge, ret = diamond()
    phi = graph.add(N.PhiNode(merge=merge))
    phi.values.append(graph.constant(1))  # merge expects 2 inputs
    ret.value = phi
    findings = GraphVerifier(graph).run()
    assert any("inputs" in f and "expects" in f for f in findings)


def test_def_must_dominate_use():
    graph, if_node, left, right, end_left, end_right, merge, ret = \
        diamond()
    # A load computed on the left branch only...
    from repro.bytecode.instructions import FieldRef
    load = N.LoadFieldNode(FieldRef("Box", "v"), object=graph.null)
    graph.insert_before(end_left, load)
    # ...used after the merge: not dominating.
    ret.value = load
    findings = GraphVerifier(graph).run()
    assert any("does not dominate" in f for f in findings)


def test_phi_input_checked_against_predecessor_block():
    graph, if_node, left, right, end_left, end_right, merge, ret = \
        diamond()
    from repro.bytecode.instructions import FieldRef
    load = N.LoadFieldNode(FieldRef("Box", "v"), object=graph.null)
    graph.insert_before(end_left, load)
    phi = graph.add(N.PhiNode(merge=merge))
    phi.values.extend([load, graph.constant(0)])
    ret.value = phi
    # load is defined on the left branch and feeds the left phi input:
    # that IS dominance-correct.
    assert GraphVerifier(graph).run() == []
    # Swapping the inputs routes the left-defined value through the
    # right predecessor: violation.
    phi.values.set_all([graph.constant(0), load])
    findings = GraphVerifier(graph).run()
    assert any("does not dominate" in f for f in findings)


def test_unreachable_fixed_node_is_reported():
    graph, *_ = diamond()
    orphan = graph.add(N.BeginNode())
    orphan.next = graph.add(N.ReturnNode(value=graph.constant(9)))
    findings = GraphVerifier(graph).run()
    assert any("unreachable" in f for f in findings)


def test_loop_end_pairing_violation():
    graph = Graph()
    start = graph.add(N.StartNode())
    graph.start = start
    fwd_end = graph.add(N.EndNode())
    start.next = fwd_end
    loop = graph.add(N.LoopBeginNode())
    loop.add_end(fwd_end)
    loop_end = graph.add(N.LoopEndNode())
    loop.add_loop_end(loop_end)
    if_node = graph.add(N.IfNode(condition=graph.constant(1)))
    loop.next = if_node
    exit_begin = graph.add(N.BeginNode())
    if_node.true_successor = exit_begin
    body = graph.add(N.BeginNode())
    if_node.false_successor = body
    body.next = loop_end
    ret = graph.add(N.ReturnNode(value=graph.constant(0)))
    exit_begin.next = ret
    assert GraphVerifier(graph).run() == []
    # Break the pairing: the loop end forgets its loop begin.
    loop.loop_ends.remove(loop_end)
    loop_end_2 = N.LoopEndNode()
    findings = GraphVerifier(graph).run()
    assert any("loop" in f.lower() for f in findings)


def test_deopt_without_state_is_reported():
    graph, if_node, left, right, end_left, end_right, merge, ret = \
        diamond()
    guard = N.FixedGuardNode(condition=graph.constant(1), state=None)
    graph.insert_before(ret, guard)
    findings = GraphVerifier(graph).run()
    assert any("no frame state" in f for f in findings)


def _method_stub(program):
    from repro.bytecode import Program
    cls = program.define_class("C")
    from repro.bytecode.classfile import JMethod
    method = JMethod("m", ["int"], "int")
    method.max_locals = 1
    cls.add_method(method)
    return method


def test_missing_escape_object_state_is_reported():
    program = Program()
    method = _method_stub(program)
    graph, *_, merge, ret = diamond()
    virtual = N.VirtualInstanceNode("Box", ["v"])
    state = N.FrameStateNode(method, 0)
    state.locals_values.append(virtual)
    graph.add(state)
    guard = N.FixedGuardNode(condition=graph.constant(1), state=state)
    graph.insert_before(ret, guard)
    findings = GraphVerifier(graph).run()
    assert any("no EscapeObjectState" in f for f in findings)
    # Adding the mapping (fully populated) repairs it.
    mapping = N.EscapeObjectStateNode(virtual_object=virtual)
    mapping.entries.append(graph.constant(7))
    state.virtual_mappings.append(mapping)
    graph.add(mapping)
    assert GraphVerifier(graph).run() == []


def test_partially_populated_field_map_is_reported():
    program = Program()
    method = _method_stub(program)
    graph, *_, merge, ret = diamond()
    virtual = N.VirtualInstanceNode("Box", ["v", "w"])
    state = N.FrameStateNode(method, 0)
    state.locals_values.append(virtual)
    mapping = N.EscapeObjectStateNode(virtual_object=virtual)
    mapping.entries.append(graph.constant(7))  # only 1 of 2 fields
    state.virtual_mappings.append(mapping)
    graph.add(state)
    graph.add(mapping)
    guard = N.FixedGuardNode(condition=graph.constant(1), state=state)
    graph.insert_before(ret, guard)
    findings = GraphVerifier(graph).run()
    assert any("not fully populated" in f for f in findings)


def test_virtual_object_used_by_real_node_is_reported():
    graph, *_, merge, ret = diamond()
    virtual = N.VirtualInstanceNode("Box", ["v"])
    graph.add(virtual)
    ret.value = virtual  # a real node consuming a virtual object
    findings = GraphVerifier(graph).run()
    assert any("used by real node" in f for f in findings)


def test_virtual_phi_input_is_reported():
    graph, *_, merge, ret = diamond()
    virtual = N.VirtualInstanceNode("Box", ["v"])
    graph.add(virtual)
    phi = graph.add(N.PhiNode(merge=merge))
    phi.values.extend([graph.constant(0), virtual])
    ret.value = phi
    findings = GraphVerifier(graph).run()
    assert any("materialized before feeding a phi" in f
               for f in findings)


def test_verify_graph_raises_with_phase_attribution():
    graph, *_, merge, ret = diamond()
    phi = graph.add(N.PhiNode(merge=merge))
    phi.values.append(graph.constant(1))
    ret.value = phi
    with pytest.raises(GraphVerificationError) as excinfo:
        verify_graph(graph, phase="canonicalizer")
    assert "after phase 'canonicalizer'" in str(excinfo.value)
    assert excinfo.value.findings


def test_compiled_graphs_verify_clean():
    """End-to-end: real compilations under every configuration pass the
    full verifier (this is also enforced implicitly suite-wide via
    REPRO_VERIFY_IR)."""
    from repro.jit import Compiler, CompilerConfig
    from repro.lang import compile_source
    source = """
        class Box { int v; Box link; }
        class Main {
            static Box sink;
            static int entry(int n) {
                int acc = 0;
                for (int i = 0; i < n; i = i + 1) {
                    Box b = new Box();
                    b.v = i;
                    synchronized (b) {
                        if (i % 5 == 0) { sink = b; }
                        acc = acc + b.v;
                    }
                }
                return acc;
            }
        }
    """
    for factory in (CompilerConfig.no_ea, CompilerConfig.equi_escape,
                    CompilerConfig.partial_escape):
        program = compile_source(source)
        compiler = Compiler(program, factory(verify_ir=True))
        result = compiler.compile(program.method("Main.entry"))
        assert GraphVerifier(result.graph).run() == []


def test_dominance_findings_name_the_whole_use_chain():
    """The finding text of a use reached through floating nodes, pinned
    byte for byte (the verifier formats it only when it reports)."""
    from repro.bytecode.instructions import FieldRef
    graph, if_node, left, right, end_left, end_right, merge, ret = \
        diamond()
    load = N.LoadFieldNode(FieldRef("Box", "v"), object=graph.null)
    graph.insert_before(end_left, load)
    add = graph.add(N.BinaryArithmeticNode("add", x=load,
                                           y=graph.constant(1)))
    ret.value = graph.add(N.BinaryArithmeticNode("mul", x=add, y=add))
    assert GraphVerifier(graph).run() == [
        "9|Return input value via 13|BinaryArithmetic mul via "
        "12|BinaryArithmetic add: def 11|LoadField Box.v (block 3) does "
        "not dominate use (block 2)"]

    graph, *_, ret = diamond()
    first = graph.add(N.BinaryArithmeticNode("add", x=graph.constant(1),
                                             y=graph.constant(2)))
    second = graph.add(N.BinaryArithmeticNode("add", x=first,
                                              y=graph.constant(3)))
    first.x = second
    ret.value = second
    assert GraphVerifier(graph).run() == [
        "9|Return input value via 13|BinaryArithmetic add via "
        "11|BinaryArithmetic add: floating cycle through "
        "13|BinaryArithmetic add"]
