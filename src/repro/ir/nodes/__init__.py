"""All IR node classes, re-exported flat."""

from .calls import InvokeNode
from .control import (BeginNode, DeoptimizeNode, EndNode, IfNode,
                      LoopBeginNode, LoopEndNode, MergeNode, ReturnNode,
                      StartNode)
from .framestate import FrameStateNode
from .guards import FixedGuardNode
from .memory import (AccessFieldNode, ArrayLengthNode, LoadFieldNode,
                     LoadIndexedNode, LoadStaticNode, StateSplitMixin,
                     StoreFieldNode, StoreIndexedNode, StoreStaticNode)
from .objects import (InstanceOfNode, IsNullNode, NewArrayNode,
                      NewInstanceNode, RefEqualsNode)
from .sync import MonitorEnterNode, MonitorExitNode
from .values import (ARITHMETIC_EVAL, COMMUTATIVE_OPS, COMPARE_EVAL,
                     INTERIOR, MIRRORED_COMPARE, NEGATED_COMPARE,
                     BinaryArithmeticNode, ConstantNode, IntCompareNode,
                     NegNode, ParameterNode, PhiNode, expr_children)
from .virtual import (EscapeObjectStateNode, VirtualArrayNode,
                      VirtualInstanceNode, VirtualObjectNode)

__all__ = [
    "InvokeNode",
    "BeginNode", "DeoptimizeNode", "EndNode", "IfNode", "LoopBeginNode",
    "LoopEndNode", "MergeNode", "ReturnNode", "StartNode",
    "FrameStateNode", "FixedGuardNode",
    "AccessFieldNode", "ArrayLengthNode", "LoadFieldNode",
    "LoadIndexedNode", "LoadStaticNode", "StateSplitMixin",
    "StoreFieldNode", "StoreIndexedNode", "StoreStaticNode",
    "InstanceOfNode", "IsNullNode", "NewArrayNode", "NewInstanceNode",
    "RefEqualsNode",
    "MonitorEnterNode", "MonitorExitNode",
    "ARITHMETIC_EVAL", "COMMUTATIVE_OPS", "COMPARE_EVAL", "INTERIOR",
    "MIRRORED_COMPARE", "NEGATED_COMPARE", "BinaryArithmeticNode",
    "ConstantNode", "IntCompareNode", "NegNode", "ParameterNode",
    "PhiNode", "expr_children",
    "EscapeObjectStateNode", "VirtualArrayNode", "VirtualInstanceNode",
    "VirtualObjectNode",
]
