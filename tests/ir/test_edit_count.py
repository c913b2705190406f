"""``Graph.edit_count``: every change a verifier can see moves it, and
setting a slot to the node it already holds does not."""

import ast
import os

import pytest

from repro.ir import Graph, nodes as N


def moves(graph: Graph, edit) -> int:
    """How far *edit* moves *graph*'s edit count."""
    before = graph.edit_count
    edit()
    return graph.edit_count - before


def test_input_slot_change_is_counted():
    graph = Graph()
    one, two = graph.constant(1), graph.constant(2)
    ret = graph.add(N.ReturnNode(value=one))
    assert moves(graph, lambda: setattr(ret, "value", two)) > 0
    assert moves(graph, lambda: setattr(ret, "value", None)) > 0
    assert moves(graph, lambda: setattr(ret, "value", None)) == 0
    ret.value = two
    assert moves(graph, lambda: setattr(ret, "value", two)) == 0


@pytest.mark.parametrize("edit", [
    lambda values, c: values.append(c),
    lambda values, c: values.extend([c, c]),
    lambda values, c: values.insert(0, c),
    lambda values, c: values.__setitem__(0, c),
    lambda values, c: values.pop(),
    lambda values, c: values.remove(values[0]),
    lambda values, c: values.clear(),
    lambda values, c: values.set_all([c]),
], ids=["append", "extend", "insert", "setitem", "pop", "remove", "clear",
        "set_all"])
def test_input_list_mutation_is_counted(edit):
    graph = Graph()
    phi = graph.add(N.PhiNode())
    phi.values.extend([graph.constant(1), graph.constant(2)])
    three = graph.constant(3)
    assert moves(graph, lambda: edit(phi.values, three)) > 0


def test_input_list_item_set_to_itself_is_not_counted():
    graph = Graph()
    phi = graph.add(N.PhiNode())
    one = graph.constant(1)
    phi.values.extend([one, graph.constant(2)])
    usages = one.usages
    assert moves(graph, lambda: phi.values.__setitem__(0, one)) == 0
    assert one.usages == usages and phi.values[0] is one
    assert moves(graph, lambda: phi.values.__setitem__(1, None)) > 0
    assert moves(graph, lambda: phi.values.__setitem__(1, None)) == 0


def test_successor_change_is_counted_with_its_predecessor_link():
    graph = Graph()
    start = graph.add(N.StartNode())
    first, second = graph.add(N.BeginNode()), graph.add(N.BeginNode())
    assert moves(graph, lambda: setattr(start, "next", first)) > 0
    assert first.predecessor is start
    assert moves(graph, lambda: setattr(start, "next", first)) == 0
    assert moves(graph, lambda: setattr(start, "next", second)) > 0
    assert first.predecessor is None and second.predecessor is start


def test_predecessor_moved_by_a_detached_node_is_counted():
    """A detached node taking a registered successor changes that
    node's ``predecessor``, which the graph's verifier reads."""
    graph = Graph()
    begin = graph.add(N.BeginNode())
    detached = N.BeginNode()
    assert moves(graph, lambda: setattr(detached, "next", begin)) > 0
    assert begin.predecessor is detached
    assert moves(graph, lambda: setattr(detached, "next", begin)) == 0
    assert moves(graph, lambda: setattr(detached, "next", None)) > 0


def test_clear_predecessor_is_counted():
    graph = Graph()
    start = graph.add(N.StartNode())
    begin = graph.add(N.BeginNode())
    start.next = begin
    assert moves(graph, begin.clear_predecessor) > 0
    assert begin.predecessor is None and start.next is begin
    assert moves(graph, begin.clear_predecessor) == 0


def test_add_is_counted_with_its_detached_inputs():
    graph = Graph()
    ret = N.ReturnNode(value=N.ConstantNode(5))
    assert moves(graph, lambda: graph.add(ret)) > 0
    assert ret.value.graph is graph
    assert moves(graph, lambda: graph.add(ret)) == 0
    assert moves(graph, lambda: graph.add(ret.value)) == 0


def test_unregister_is_counted_for_safe_delete_and_adopt():
    graph = Graph()
    dead = graph.add(N.ReturnNode())
    assert moves(graph, dead.safe_delete) > 0
    assert dead.graph is None

    other = Graph()
    moved = other.constant(7)
    assert moves(other, lambda: graph.adopt(moved)) > 0
    assert moved.graph is graph
    assert moves(graph, lambda: graph.adopt(moved)) == 0
    assert moves(graph, lambda: other.adopt(moved)) > 0


def test_usage_by_a_user_outside_the_graph_is_counted():
    """PEA builds detached nodes whose inputs are registered nodes:
    the registered node's usages change, and the verifier reads them."""
    graph = Graph()
    one = graph.constant(1)
    detached = N.ReturnNode()
    assert moves(graph, lambda: setattr(detached, "value", one)) > 0
    assert detached in one.usages
    assert moves(graph, lambda: setattr(detached, "value", one)) == 0
    assert moves(graph, lambda: setattr(detached, "value", None)) > 0
    assert moves(graph, lambda: N.ReturnNode(value=one)) > 0

    phi = N.PhiNode()
    assert moves(graph, lambda: phi.values.append(one)) > 0
    assert moves(graph, lambda: phi.values.__setitem__(0, one)) == 0

    elsewhere = Graph().add(N.ReturnNode())
    assert moves(graph, lambda: setattr(elsewhere, "value", one)) > 0


SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                   "src", "repro")
EDGE_STATE = {"_ins", "_in_lists", "_succs", "_usages"}


def test_edges_change_only_through_counted_ir_methods():
    """Outside ``repro.ir``, nothing assigns ``predecessor`` or touches a
    node's edge dictionaries, so every edge change is counted."""
    offences = []
    for root, __, files in os.walk(SRC):
        if os.path.relpath(root, SRC).split(os.sep)[0] == "ir":
            continue
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            where = os.path.relpath(path, SRC)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and \
                        node.attr in EDGE_STATE:
                    offences.append(f"{where}:{node.lineno} .{node.attr}")
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    for part in ast.walk(target):
                        if isinstance(part, ast.Attribute) and \
                                part.attr == "predecessor":
                            offences.append(
                                f"{where}:{node.lineno} assigns "
                                f"predecessor")
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Name) and \
                        node.func.id == "setattr" and \
                        len(node.args) > 1 and \
                        isinstance(node.args[1], ast.Constant) and \
                        node.args[1].value == "predecessor":
                    offences.append(f"{where}:{node.lineno} setattr "
                                    f"predecessor")
    assert offences == []
