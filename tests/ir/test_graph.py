"""Graph container: registration, surgery, verification."""

import pytest

from repro.ir import Graph, IRError, dump_graph, nodes as N, to_dot


def diamond_graph():
    """start -> if -> (t, f) -> merge(phi) -> return phi"""
    graph = Graph()
    start = graph.add(N.StartNode())
    graph.start = start
    p0 = graph.add(N.ParameterNode(0))
    graph.parameters = [p0]
    if_node = graph.add(N.IfNode(condition=p0))
    start.next = if_node
    t_begin = graph.add(N.BeginNode())
    f_begin = graph.add(N.BeginNode())
    if_node.true_successor = t_begin
    if_node.false_successor = f_begin
    t_end, f_end = graph.add(N.EndNode()), graph.add(N.EndNode())
    t_begin.next = t_end
    f_begin.next = f_end
    merge = graph.add(N.MergeNode())
    merge.add_end(t_end)
    merge.add_end(f_end)
    phi = graph.add(N.PhiNode(merge=merge))
    phi.values.extend([graph.constant(1), graph.constant(2)])
    ret = graph.add(N.ReturnNode(value=phi))
    merge.next = ret
    return graph, merge, phi


def test_diamond_verifies():
    graph, merge, phi = diamond_graph()
    graph.verify()


def test_phi_arity_mismatch_detected():
    graph, merge, phi = diamond_graph()
    phi.values.pop()
    with pytest.raises(IRError, match="inputs"):
        graph.verify()


def test_insert_before_and_remove_fixed():
    graph, merge, phi = diamond_graph()
    ret = merge.next
    load = N.LoadStaticNode.__new__(N.LoadStaticNode)
    # Build via constructor properly:
    from repro.bytecode import FieldRef
    load = N.LoadStaticNode(FieldRef("C", "f"))
    graph.insert_before(ret, load)
    assert merge.next is load and load.next is ret
    graph.verify()
    graph.remove_fixed(load)
    assert merge.next is ret
    graph.verify()


def test_remove_end_drops_phi_inputs():
    graph, merge, phi = diamond_graph()
    end = merge.ends[0]
    merge.remove_end(end)
    assert len(phi.values) == 1
    assert len(merge.ends) == 1


def test_adopt_moves_nodes_between_graphs():
    graph_a = Graph()
    c = graph_a.constant(7)
    graph_b = Graph()
    graph_b.adopt(c)
    assert c.graph is graph_b
    assert c not in graph_a


def test_add_registers_detached_inputs_recursively():
    graph = Graph()
    a = N.ConstantNode(1)
    neg = N.NegNode(value=a)
    graph.add(neg)
    assert a.graph is graph and neg.graph is graph


def test_unregistered_successor_detected():
    graph = Graph()
    start = graph.add(N.StartNode())
    graph.start = start
    detached = N.ReturnNode()
    start._succs["next"] = detached  # bypass property on purpose
    detached.predecessor = start
    with pytest.raises(IRError):
        graph.verify()


def test_dump_and_dot_render():
    graph, merge, phi = diamond_graph()
    text = dump_graph(graph)
    assert "Start" in text and "Merge" in text and "Phi" in text
    dot = to_dot(graph)
    assert dot.startswith("digraph") and "style=bold" in dot


def test_loop_structures_verify():
    graph = Graph()
    start = graph.add(N.StartNode())
    graph.start = start
    fwd = graph.add(N.EndNode())
    start.next = fwd
    loop = graph.add(N.LoopBeginNode())
    loop.add_end(fwd)
    phi = graph.add(N.PhiNode(merge=loop))
    phi.values.append(graph.constant(0))
    if_node = graph.add(N.IfNode(condition=phi))
    loop.next = if_node
    body = graph.add(N.BeginNode())
    exit_begin = graph.add(N.BeginNode())
    if_node.true_successor = body
    if_node.false_successor = exit_begin
    loop_end = graph.add(N.LoopEndNode())
    body.next = loop_end
    loop.add_loop_end(loop_end)
    phi.values.append(graph.constant(1))
    ret = graph.add(N.ReturnNode(value=phi))
    exit_begin.next = ret
    graph.verify()
    assert loop.phi_input_count() == 2
    assert loop.end_index(loop_end) == 1


# -- Graph.add: pre-order registration without recursion ---------------------


def test_add_registers_a_deep_detached_chain():
    graph = Graph()
    node = N.ConstantNode(0)
    for __ in range(5_000):
        node = N.BinaryArithmeticNode("add", x=node, y=None)
    graph.add(node)
    assert graph.node_count() == 5_001
    assert node.id == 0
    graph.verify()


def test_add_assigns_pre_order_ids_to_a_shared_detached_input():
    graph = Graph()
    graph.add(N.ConstantNode(7))
    a, b = N.ConstantNode(1), N.ConstantNode(2)
    shared = N.BinaryArithmeticNode("add", x=a, y=b)
    left = N.NegNode(value=shared)
    right = N.BinaryArithmeticNode("mul", x=shared, y=a)
    top = N.BinaryArithmeticNode("sub", x=left, y=right)
    graph.add(top)
    # Node first, then its detached inputs left to right, depth first;
    # the shared input takes the id of its first (leftmost) user's visit.
    ids = {name: node.id for name, node in (
        ("top", top), ("left", left), ("shared", shared), ("a", a),
        ("b", b), ("right", right))}
    assert ids == {"top": 1, "left": 2, "shared": 3, "a": 4, "b": 5,
                   "right": 6}


# -- Graph.verify: one negative test per structural error --------------------


def straight_line_graph(*fixed):
    """start -> fixed[0] -> ... -> fixed[-1]; every node registered."""
    graph = Graph()
    previous = graph.start = graph.add(N.StartNode())
    for node in fixed:
        graph.add(node)
        previous.next = node
        previous = node
    return graph


def test_broken_registration_detected():
    graph, merge, phi = diamond_graph()
    phi.id = 10_000
    with pytest.raises(IRError, match="broken registration"):
        graph.verify()


def test_unregistered_input_detected():
    graph, merge, phi = diamond_graph()
    merge.next.value = N.ConstantNode(5)
    with pytest.raises(IRError, match="has unregistered input"):
        graph.verify()


def test_user_missing_from_input_usages_detected():
    graph, merge, phi = diamond_graph()
    phi._usages.clear()  # bypass the bookkeeping on purpose
    with pytest.raises(IRError, match="missing from usages of its input"):
        graph.verify()


def test_successor_with_wrong_predecessor_detected():
    graph, merge, phi = diamond_graph()
    graph.start.next.predecessor = None  # bypass property on purpose
    with pytest.raises(IRError, match=r"predecessor is None, expected"):
        graph.verify()


def test_merge_end_that_is_not_an_end_detected():
    graph, merge, phi = diamond_graph()
    if_node = graph.start.next
    merge.ends[0] = if_node.true_successor
    with pytest.raises(IRError, match="is not an End"):
        graph.verify()


def test_phi_without_merge_detected():
    graph, merge, phi = diamond_graph()
    phi.merge = None
    with pytest.raises(IRError, match="has no merge"):
        graph.verify()


def test_fixed_node_without_next_detected():
    graph, merge, phi = diamond_graph()
    graph.add(N.BeginNode())
    with pytest.raises(IRError, match="has no next"):
        graph.verify()


def test_reachable_unregistered_node_detected():
    end = N.EndNode()
    graph = straight_line_graph(end)
    merge = N.MergeNode()  # left detached
    merge.add_end(end)
    merge.next = graph.add(N.ReturnNode())
    with pytest.raises(IRError, match="not registered"):
        graph.verify()


def test_end_feeding_no_merge_detected():
    graph = straight_line_graph(N.EndNode())
    with pytest.raises(IRError, match="feeds no merge"):
        graph.verify()


def test_loop_end_without_loop_begin_detected():
    graph = straight_line_graph(N.LoopEndNode())
    with pytest.raises(IRError, match="has no loop begin"):
        graph.verify()
