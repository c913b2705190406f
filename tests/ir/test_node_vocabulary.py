"""The IR holds only the node kinds the compiler builds.

A node class that nothing outside ``repro.ir.nodes`` constructs can
never reach a verifier, an optimization phase or a backend, so every
branch that handles it is untestable code.  This test keeps the
exported vocabulary equal to what the compiler can produce.
"""

import ast
import os

import repro
from repro.ir import nodes
from repro.ir.node import Node

SRC = os.path.dirname(repro.__file__)
NODES_DIR = os.path.dirname(nodes.__file__)


def _leaf_node_classes():
    """Exported Node classes that no other exported class extends."""
    exported = [getattr(nodes, name) for name in nodes.__all__]
    classes = [value for value in exported
               if isinstance(value, type) and issubclass(value, Node)]
    return {cls.__name__ for cls in classes
            if not any(other is not cls and issubclass(other, cls)
                       for other in classes)}


def _constructed_names():
    """Names called as ``Name(...)`` or ``module.Name(...)`` anywhere
    in ``src/repro`` outside ``repro/ir/nodes``."""
    called = set()
    for directory, __, files in os.walk(SRC):
        if os.path.commonpath([directory, NODES_DIR]) == NODES_DIR:
            continue
        for filename in files:
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(directory, filename)) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name):
                    called.add(node.func.id)
                elif isinstance(node.func, ast.Attribute):
                    called.add(node.func.attr)
    return called


def test_every_leaf_node_class_has_a_construction_site():
    leaves = _leaf_node_classes()
    assert "BeginNode" in leaves and "PhiNode" in leaves
    assert sorted(leaves - _constructed_names()) == []
