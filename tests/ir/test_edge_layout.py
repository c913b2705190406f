"""Per-class edge layouts: computed once, equal to the MRO walk."""

from repro.ir import nodes as N
from repro.ir.node import EdgeLayout, FixedWithNextNode, Node


def mro_walk(cls, attribute):
    """The declared slots of every class in *cls*'s MRO, base first."""
    result = ()
    for klass in reversed(cls.__mro__):
        result += klass.__dict__.get(attribute, ())
    return result


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


class ExtraInputMixin:
    """A plain mixin declaring slots, like StateSplitMixin."""

    _input_slots = ("extra",)
    _input_lists = ("extras",)


class MixedNode(ExtraInputMixin, N.StoreFieldNode):
    _input_slots = ("own",)
    _successor_slots = ("alternative",)


def test_every_node_class_layout_equals_the_mro_walk():
    classes = [Node, *all_subclasses(Node)]
    assert N.StoreFieldNode in classes and MixedNode in classes
    for cls in classes:
        assert cls._edges == EdgeLayout(
            mro_walk(cls, "_input_slots"), mro_walk(cls, "_input_lists"),
            mro_walk(cls, "_successor_slots")), cls


def test_mixin_slots_get_properties_and_bookkeeping():
    assert MixedNode._edges == EdgeLayout(
        ("object", "state_after", "value", "extra", "own"), ("extras",),
        ("next", "alternative"))
    value = N.ConstantNode(1)
    node = MixedNode(None, extra=value, extras=[value])
    assert node.extra is value
    assert list(node.named_inputs()) == [("extra", value),
                                         ("extras[0]", value)]
    assert value.usage_count() == 2
    successor = N.BeginNode()
    node.alternative = successor
    assert successor.predecessor is node
    assert list(node.successors()) == [successor]


def test_layout_is_shared_by_the_class_not_per_node():
    assert "_edges" in vars(N.InvokeNode)
    assert "_edges" not in vars(N.InvokeNode("static", None, "int", 0))
    assert N.IfNode._edges.successor_slots == ("true_successor",
                                               "false_successor")
    assert FixedWithNextNode._edges.successor_slots == ("next",)
