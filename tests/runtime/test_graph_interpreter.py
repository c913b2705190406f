"""Graph interpreter unit behavior beyond the differential tests."""

import pytest

from repro.bytecode import Heap, Interpreter, Program
from repro.ir import Graph, nodes as N
from repro.runtime import (CostModel, Deoptimizer, ExecutionStats,
                           GraphExecutionError, GraphInterpreter)


def make_interp(program=None, stats=None, cost_model=None):
    program = program or Program()
    heap = Heap(program)
    interp = Interpreter(program, heap)
    gi = GraphInterpreter(program, heap, lambda *a: None,
                          Deoptimizer(program, heap, interp),
                          cost_model or CostModel(),
                          stats)
    return program, heap, gi


def simple_graph(build_value):
    graph = Graph()
    start = graph.add(N.StartNode())
    graph.start = start
    p0 = graph.add(N.ParameterNode(0))
    graph.parameters = [p0]
    value = build_value(graph, p0)
    ret = graph.add(N.ReturnNode(value=value))
    start.next = ret
    return graph


def test_floating_expression_evaluation():
    program, heap, gi = make_interp()
    graph = simple_graph(lambda g, p: g.add(N.BinaryArithmeticNode(
        "mul", x=g.add(N.BinaryArithmeticNode("add", x=p,
                                              y=g.constant(1))),
        y=g.constant(10))))
    assert gi.execute(graph, [4]) == 50


def test_unevaluable_node_raises():
    program, heap, gi = make_interp()
    detached_param = N.ParameterNode(7)  # never bound into env
    graph = Graph()
    start = graph.add(N.StartNode())
    graph.start = start
    graph.add(detached_param)
    ret = graph.add(N.ReturnNode(value=detached_param))
    start.next = ret
    graph.parameters = []
    with pytest.raises(GraphExecutionError, match="environment"):
        gi.execute(graph, [])


def test_stats_accumulate_cycles_and_invocations():
    stats = ExecutionStats()
    program, heap, gi = make_interp(stats=stats)
    graph = simple_graph(lambda g, p: p)
    gi.execute(graph, [1])
    gi.execute(graph, [2])
    assert stats.compiled_invocations == 2
    assert stats.node_executions > 0


def _guarded_graph():
    """A graph with a fixed, nonzero-cost node (a passing guard)."""
    graph = Graph()
    start = graph.add(N.StartNode())
    graph.start = start
    p0 = graph.add(N.ParameterNode(0))
    graph.parameters = [p0]
    state = graph.add(N.FrameStateNode(None, 0))
    guard = graph.add(N.FixedGuardNode(
        "test", condition=graph.constant(1), state=state))
    start.next = guard
    ret = graph.add(N.ReturnNode(value=p0))
    guard.next = ret
    return graph


def test_icache_multiplier_affects_cost():
    small_stats = ExecutionStats()
    program, heap, gi = make_interp(
        stats=small_stats,
        cost_model=CostModel(icache_capacity=1, icache_factor=10.0))
    gi.execute(_guarded_graph(), [1])

    normal_stats = ExecutionStats()
    program2, heap2, gi2 = make_interp(stats=normal_stats)
    gi2.execute(_guarded_graph(), [1])
    assert small_stats.cycles > normal_stats.cycles


def test_deopt_without_deoptimizer_raises():
    program = Program()
    heap = Heap(program)
    gi = GraphInterpreter(program, heap, lambda *a: None,
                          deoptimizer=None)
    graph = Graph()
    start = graph.add(N.StartNode())
    graph.start = start
    graph.parameters = []
    state = graph.add(N.FrameStateNode(None, 0))
    deopt = graph.add(N.DeoptimizeNode("test", state=state))
    start.next = deopt
    with pytest.raises(GraphExecutionError, match="no deoptimizer"):
        gi.execute(graph, [])


def test_phi_updates_are_simultaneous():
    """Swapping phis (a, b) = (b, a) must read old values."""
    graph = Graph()
    start = graph.add(N.StartNode())
    graph.start = start
    graph.parameters = []
    fwd = graph.add(N.EndNode())
    start.next = fwd
    loop = graph.add(N.LoopBeginNode())
    loop.add_end(fwd)
    phi_a = graph.add(N.PhiNode(merge=loop))
    phi_b = graph.add(N.PhiNode(merge=loop))
    phi_i = graph.add(N.PhiNode(merge=loop))
    phi_a.values.append(graph.constant(1))
    phi_b.values.append(graph.constant(2))
    phi_i.values.append(graph.constant(0))
    condition = graph.add(N.IntCompareNode("lt", x=phi_i,
                                           y=graph.constant(3)))
    if_node = graph.add(N.IfNode(condition=condition))
    loop.next = if_node
    body = graph.add(N.BeginNode())
    exit_ = graph.add(N.BeginNode())
    if_node.true_successor = body
    if_node.false_successor = exit_
    loop_end = graph.add(N.LoopEndNode())
    body.next = loop_end
    loop.add_loop_end(loop_end)
    # swap each iteration
    phi_a.values.append(phi_b)
    phi_b.values.append(phi_a)
    next_i = graph.add(N.BinaryArithmeticNode("add", x=phi_i,
                                              y=graph.constant(1)))
    phi_i.values.append(next_i)
    result = graph.add(N.BinaryArithmeticNode(
        "mul", x=phi_a, y=graph.constant(10)))
    result2 = graph.add(N.BinaryArithmeticNode("add", x=result, y=phi_b))
    ret = graph.add(N.ReturnNode(value=result2))
    exit_.next = ret
    graph.verify()
    program, heap, gi = make_interp()
    # 3 swaps: (1,2) -> (2,1) -> (1,2) -> (2,1); result 2*10+1.
    assert gi.execute(graph, []) == 21
