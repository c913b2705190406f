"""Runtime object model and allocation/lock statistics.

Both execution engines (the bytecode interpreter and the optimized-graph
interpreter) allocate through the same :class:`Heap` so that Table 1's
"MB / iteration" and "MAllocs / iteration" metrics are counted identically
in every configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from .classfile import Program


class VMError(Exception):
    """A runtime trap: null dereference, bad cast, division by zero, ..."""


class NullPointerError(VMError):
    pass


class ArrayIndexError(VMError):
    pass


class ClassCastError(VMError):
    pass


class ArithmeticTrap(VMError):
    pass


class IllegalMonitorState(VMError):
    pass


class Obj:
    """A heap-allocated object instance."""

    __slots__ = ("class_name", "fields", "lock_depth", "obj_id")

    def __init__(self, class_name: str, fields: Dict[str, Any],
                 obj_id: int):
        self.class_name = class_name
        self.fields = fields
        self.lock_depth = 0
        self.obj_id = obj_id

    def __repr__(self):
        return f"<{self.class_name}#{self.obj_id}>"


class Arr:
    """A heap-allocated array."""

    __slots__ = ("elem_type", "elements", "lock_depth", "obj_id")

    def __init__(self, elem_type: str, length: int, obj_id: int):
        self.elem_type = elem_type
        self.elements: List[Any] = (
            [0] * length if elem_type in ("int", "boolean")
            else [None] * length)
        self.lock_depth = 0
        self.obj_id = obj_id

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"<{self.elem_type}[{len(self.elements)}]#{self.obj_id}>"


@dataclass
class HeapStats:
    """Counters that feed the paper's Table 1 metrics.

    Stack/zone allocations (see
    :class:`repro.opt.stack_allocation.StackAllocationPhase`) are
    tracked separately: they are not garbage-collected heap traffic.
    """

    allocations: int = 0
    allocated_bytes: int = 0
    monitor_enters: int = 0
    monitor_exits: int = 0
    stack_allocations: int = 0
    stack_allocated_bytes: int = 0

    def copy(self) -> "HeapStats":
        return HeapStats(self.allocations, self.allocated_bytes,
                         self.monitor_enters, self.monitor_exits,
                         self.stack_allocations,
                         self.stack_allocated_bytes)

    def delta(self, earlier: "HeapStats") -> "HeapStats":
        """Counters accumulated since *earlier* was snapshotted."""
        return HeapStats(
            self.allocations - earlier.allocations,
            self.allocated_bytes - earlier.allocated_bytes,
            self.monitor_enters - earlier.monitor_enters,
            self.monitor_exits - earlier.monitor_exits,
            self.stack_allocations - earlier.stack_allocations,
            self.stack_allocated_bytes - earlier.stack_allocated_bytes)

    @property
    def monitor_operations(self) -> int:
        return self.monitor_enters + self.monitor_exits

    def __add__(self, other: "HeapStats") -> "HeapStats":
        return HeapStats(
            self.allocations + other.allocations,
            self.allocated_bytes + other.allocated_bytes,
            self.monitor_enters + other.monitor_enters,
            self.monitor_exits + other.monitor_exits,
            self.stack_allocations + other.stack_allocations,
            self.stack_allocated_bytes + other.stack_allocated_bytes)


class Heap:
    """Allocator + monitor bookkeeping shared by all execution engines.

    Python's GC reclaims the actual unreachable objects; GC *pressure*
    is simulated by the generational collector in
    :mod:`repro.runtime.gcsim`, which every heap (non-stack) allocation
    feeds through :meth:`GCSim.on_allocate`.  Because the bytecode
    interpreter and all three compiled backends allocate through this
    one class, minor-collection counts and pause cycles are
    bit-identical across backends.
    """

    def __init__(self, program: Program, gc=None):
        self.program = program
        self.stats = HeapStats()
        if gc is None:
            # Imported lazily: repro.runtime pulls in the IR package,
            # which in turn imports this module.
            from ..runtime.gcsim import GCSim
            gc = GCSim()
        self.gc = gc
        self._next_id = 1

    # -- allocation -----------------------------------------------------

    def new_instance(self, class_name: str, on_stack: bool = False
                     ) -> Obj:
        jclass = self.program.lookup_class(class_name)  # raises if unknown
        fields = dict(self.program.instance_field_defaults(jclass.name))
        obj = Obj(class_name, fields, self._next_id)
        self._next_id += 1
        size = self.program.instance_size(class_name)
        if on_stack:
            self.stats.stack_allocations += 1
            self.stats.stack_allocated_bytes += size
        else:
            self.stats.allocations += 1
            self.stats.allocated_bytes += size
            self.gc.on_allocate(size)
        return obj

    def new_array(self, elem_type: str, length: int,
                  on_stack: bool = False) -> Arr:
        if length < 0:
            raise VMError(f"negative array size {length}")
        arr = Arr(elem_type, length, self._next_id)
        self._next_id += 1
        size = self.program.array_size(length)
        if on_stack:
            self.stats.stack_allocations += 1
            self.stats.stack_allocated_bytes += size
        else:
            self.stats.allocations += 1
            self.stats.allocated_bytes += size
            self.gc.on_allocate(size)
        return arr

    # -- field access -----------------------------------------------------

    def get_field(self, obj, field_name: str):
        if obj is None:
            raise NullPointerError(f"getfield {field_name} on null")
        try:
            return obj.fields[field_name]
        except KeyError:
            raise VMError(
                f"no field {field_name} on {obj.class_name}") from None

    def put_field(self, obj, field_name: str, value):
        if obj is None:
            raise NullPointerError(f"putfield {field_name} on null")
        if field_name not in obj.fields:
            raise VMError(f"no field {field_name} on {obj.class_name}")
        obj.fields[field_name] = value

    # -- arrays ---------------------------------------------------------------

    def array_load(self, arr, index):
        if arr is None:
            raise NullPointerError("aload on null")
        if not 0 <= index < len(arr.elements):
            raise ArrayIndexError(f"index {index} len {len(arr.elements)}")
        return arr.elements[index]

    def array_store(self, arr, index, value):
        if arr is None:
            raise NullPointerError("astore on null")
        if not 0 <= index < len(arr.elements):
            raise ArrayIndexError(f"index {index} len {len(arr.elements)}")
        arr.elements[index] = value

    def array_length(self, arr):
        if arr is None:
            raise NullPointerError("arraylength on null")
        return len(arr.elements)

    # -- monitors --------------------------------------------------------------

    def monitor_enter(self, obj):
        if obj is None:
            raise NullPointerError("monitorenter on null")
        obj.lock_depth += 1
        self.stats.monitor_enters += 1

    def monitor_exit(self, obj):
        if obj is None:
            raise NullPointerError("monitorexit on null")
        if obj.lock_depth <= 0:
            raise IllegalMonitorState(f"monitorexit on unlocked {obj!r}")
        obj.lock_depth -= 1
        self.stats.monitor_exits += 1

    # -- type tests --------------------------------------------------------------

    def instance_of(self, obj, class_name: str) -> int:
        if obj is None:
            return 0
        if isinstance(obj, Arr):
            return 1 if class_name == "Object" else 0
        if isinstance(obj, str):
            # String literals are interned constants backed by Python str.
            return 1 if class_name in ("String", "Object") else 0
        return 1 if self.program.is_subclass_of(obj.class_name,
                                                class_name) else 0

    def check_cast(self, obj, class_name: str):
        if obj is None:
            return None
        if not self.instance_of(obj, class_name):
            raise ClassCastError(
                f"cannot cast {obj!r} to {class_name}")
        return obj
