"""Escape analyses: the paper's Partial Escape Analysis and the
flow-insensitive equi-escape-sets baseline."""

from .effects import Effects
from .equi_escape import EquiEscapePhase
from .materialize import ensure_materialized
from .merge import MergeProcessor
from .partial_escape import PartialEscapePhase, PEAResult
from .processor import PEAProcessor
from .state import ObjectState, PEAState
from .virtualization import MAX_VIRTUAL_ARRAY_LENGTH, PEAError, PEATool

__all__ = [
    "Effects", "EquiEscapePhase", "ensure_materialized",
    "MergeProcessor", "PartialEscapePhase", "PEAResult", "PEAProcessor",
    "ObjectState", "PEAState", "MAX_VIRTUAL_ARRAY_LENGTH", "PEAError",
    "PEATool",
]
