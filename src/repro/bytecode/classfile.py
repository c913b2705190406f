"""Class, method and field model — the "classfile" substrate.

A :class:`Program` is the unit the VM operates on: a closed set of classes
with single inheritance rooted at ``Object``, static fields, and method
resolution for the three invocation kinds.  Field layout (used for the
allocated-bytes statistic) follows a 64-bit HotSpot-like model: a fixed
object header plus one word per instance field.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .instructions import FieldRef, Instruction, MethodRef

#: Size in bytes of an object header (mark word + class pointer).
OBJECT_HEADER_BYTES = 16
#: Size in bytes of one instance field slot.
FIELD_BYTES = 8
#: Size in bytes of an array header (object header + length word).
ARRAY_HEADER_BYTES = 24
#: Size in bytes of one array element slot.
ELEMENT_BYTES = 8

#: The root class every class implicitly extends.
OBJECT_CLASS = "Object"


class ResolutionError(Exception):
    """Raised when a class, field or method reference cannot be resolved."""


@dataclass(eq=False)
class JField:
    """A field declaration."""

    name: str
    type_name: str = "int"
    is_static: bool = False
    default: Any = None

    def default_value(self):
        """The JVM-style default for an uninitialized field."""
        if self.default is not None:
            return self.default
        return 0 if self.type_name in ("int", "boolean") else None


@dataclass(eq=False)
class JMethod:
    """A method declaration with its bytecode.

    ``param_types`` includes the receiver type for instance methods.
    ``native_impl`` — for native methods — is a Python callable
    ``(interpreter, args) -> value`` standing in for JNI code; native
    callees are opaque to the compiler, so their arguments escape.
    """

    name: str
    param_types: List[str] = field(default_factory=list)
    return_type: str = "void"
    code: List[Instruction] = field(default_factory=list)
    max_locals: int = 0
    is_static: bool = False
    is_synchronized: bool = False
    is_native: bool = False
    native_impl: Optional[Callable] = None
    #: Simulated cycles one call of this native costs (models JNI /
    #: precompiled library work on the simulated machine).
    native_cycle_cost: int = 0
    holder: Optional["JClass"] = None  # set by JClass.add_method

    @property
    def arg_count(self):
        return len(self.param_types)

    @property
    def qualified_name(self):
        holder = self.holder.name if self.holder else "?"
        return f"{holder}.{self.name}"

    def ref(self) -> MethodRef:
        """A symbolic reference to this method."""
        if self.holder is None:
            raise ValueError(f"method {self.name} has no holder class")
        return MethodRef(self.holder.name, self.name, self.arg_count)

    def clone(self, holder: "JClass") -> "JMethod":
        """A copy declared in *holder* with its own ``code`` and
        ``param_types`` lists; the (frozen) instructions are shared."""
        twin = copy.copy(self)
        twin.holder = holder
        twin.param_types = list(self.param_types)
        twin.code = list(self.code)
        return twin

    def content_key(self) -> tuple:
        """A canonical, hashable description of this method's declared
        content — everything the compiler can observe about it.  Native
        implementations are opaque to the compiler, so only their
        presence and simulated cost participate."""
        return (
            self.name, tuple(self.param_types), self.return_type,
            self.max_locals, self.is_static, self.is_synchronized,
            self.is_native, self.native_impl is not None,
            self.native_cycle_cost,
            tuple(_instruction_key(insn) for insn in self.code),
        )

    def __repr__(self):
        return f"<JMethod {self.qualified_name}/{self.arg_count}>"


def _instruction_key(insn: Instruction) -> tuple:
    operand = insn.operand
    if isinstance(operand, MethodRef):
        operand = ("M", operand.class_name, operand.method_name,
                   operand.arg_count)
    elif isinstance(operand, FieldRef):
        operand = ("F", operand.class_name, operand.field_name)
    return (insn.op.value, operand)


@dataclass(eq=False)
class JClass:
    """A class declaration."""

    name: str
    superclass_name: Optional[str] = OBJECT_CLASS
    fields: Dict[str, JField] = field(default_factory=dict)
    methods: Dict[str, JMethod] = field(default_factory=dict)

    #: Back-reference set by Program.add_class so structural changes can
    #: invalidate the program's resolution/layout caches.
    _program = None

    def __post_init__(self):
        if self.name == OBJECT_CLASS:
            self.superclass_name = None

    def add_field(self, jfield: JField) -> JField:
        if jfield.name in self.fields:
            raise ValueError(
                f"duplicate field {self.name}.{jfield.name}")
        self.fields[jfield.name] = jfield
        if self._program is not None:
            self._program._invalidate_caches()
        return jfield

    def add_method(self, method: JMethod) -> JMethod:
        if method.name in self.methods:
            raise ValueError(
                f"duplicate method {self.name}.{method.name}")
        method.holder = self
        self.methods[method.name] = method
        if self._program is not None:
            self._program._invalidate_caches()
        return method

    def clone(self, program: "Program") -> "JClass":
        """A copy registered in *program*, with copies of its fields and
        methods (see :meth:`Program.clone`)."""
        twin = copy.copy(self)
        twin._program = program
        twin.fields = {name: copy.copy(jfield)
                       for name, jfield in self.fields.items()}
        twin.methods = {name: method.clone(twin)
                        for name, method in self.methods.items()}
        return twin

    def __repr__(self):
        return f"<JClass {self.name}>"


class Program:
    """A closed world of classes, with resolution and layout queries."""

    def __init__(self):
        self.classes: Dict[str, JClass] = {}
        self.statics: Dict[str, Any] = {}  # "Class.field" -> value
        self._new_caches()
        #: Content hash for the compilation cache (lazily computed).
        self._content_fingerprint: Optional[str] = None
        self.add_class(JClass(OBJECT_CLASS))

    def _new_caches(self) -> None:
        # Resolution/layout caches.  Resolution walks the superclass
        # chain on every query, and both execution tiers query on every
        # call / allocation — caching here speeds interpreter and
        # compiled code alike.  Invalidated on any structural change
        # (add_class / add_field / add_method).
        self._method_cache: Dict[tuple, JMethod] = {}
        self._field_cache: Dict[tuple, JField] = {}
        self._static_key_cache: Dict[tuple, str] = {}
        self._fields_list_cache: Dict[str, List[JField]] = {}
        self._size_cache: Dict[str, int] = {}
        self._defaults_cache: Dict[str, Dict[str, Any]] = {}

    def clone(self) -> "Program":
        """A private copy: new classes, fields and methods, new ``code``
        and ``param_types`` lists, a copy of ``statics`` and empty
        resolution caches.  Only the :class:`Instruction` objects are
        shared; they are frozen, so no write to either program reaches
        the other."""
        twin = copy.copy(self)
        twin.statics = dict(self.statics)
        twin._new_caches()
        twin.classes = {name: jclass.clone(twin)
                        for name, jclass in self.classes.items()}
        return twin

    # -- construction ---------------------------------------------------

    def add_class(self, jclass: JClass) -> JClass:
        if jclass.name in self.classes:
            raise ValueError(f"duplicate class {jclass.name}")
        self.classes[jclass.name] = jclass
        jclass._program = self
        self._invalidate_caches()
        return jclass

    def _invalidate_caches(self) -> None:
        self._method_cache.clear()
        self._field_cache.clear()
        self._static_key_cache.clear()
        self._fields_list_cache.clear()
        self._size_cache.clear()
        self._defaults_cache.clear()
        self._content_fingerprint = None

    def content_fingerprint(self) -> str:
        """A stable hash of every declaration the compiler can observe:
        class hierarchy, field layouts and method bytecode.  Programs
        with equal fingerprints compile identically under the same
        configuration and profile facts — the program half of the
        compilation-cache key (see :mod:`repro.jit.cache`)."""
        cached = self._content_fingerprint
        if cached is not None:
            return cached
        description = []
        for name in sorted(self.classes):
            jclass = self.classes[name]
            description.append((
                name, jclass.superclass_name,
                tuple((f.name, f.type_name, f.is_static, repr(f.default))
                      for f in jclass.fields.values()),
                tuple(m.content_key() for m in jclass.methods.values()),
            ))
        digest = hashlib.sha256(
            repr(description).encode("utf-8")).hexdigest()
        self._content_fingerprint = digest
        return digest

    def define_class(self, name, superclass_name=OBJECT_CLASS) -> JClass:
        """Create, register and return an empty class."""
        return self.add_class(JClass(name, superclass_name))

    # -- resolution ------------------------------------------------------

    def lookup_class(self, name: str) -> JClass:
        try:
            return self.classes[name]
        except KeyError:
            raise ResolutionError(f"unknown class {name}") from None

    def superclasses(self, name: str):
        """Yield *name* and all its superclasses, most derived first."""
        current: Optional[str] = name
        seen = set()
        while current is not None:
            if current in seen:
                raise ResolutionError(f"inheritance cycle at {current}")
            seen.add(current)
            jclass = self.lookup_class(current)
            yield jclass
            current = jclass.superclass_name

    def is_subclass_of(self, name: str, ancestor: str) -> bool:
        return any(c.name == ancestor for c in self.superclasses(name))

    def resolve_field(self, class_name: str, field_name: str) -> JField:
        key = (class_name, field_name)
        cached = self._field_cache.get(key)
        if cached is not None:
            return cached
        for jclass in self.superclasses(class_name):
            if field_name in jclass.fields:
                self._field_cache[key] = jclass.fields[field_name]
                return jclass.fields[field_name]
        raise ResolutionError(f"unknown field {class_name}.{field_name}")

    def resolve_method(self, class_name: str, method_name: str) -> JMethod:
        """Resolve statically (for invokestatic/invokespecial and as the
        declared target of invokevirtual)."""
        key = (class_name, method_name)
        cached = self._method_cache.get(key)
        if cached is not None:
            return cached
        for jclass in self.superclasses(class_name):
            if method_name in jclass.methods:
                self._method_cache[key] = jclass.methods[method_name]
                return jclass.methods[method_name]
        raise ResolutionError(f"unknown method {class_name}.{method_name}")

    def resolve_virtual(self, receiver_class: str,
                        method_name: str) -> JMethod:
        """Resolve an invokevirtual against the receiver's dynamic class."""
        return self.resolve_method(receiver_class, method_name)

    def has_subclasses(self, name: str) -> bool:
        """True if any loaded class extends *name* (directly or not)."""
        return any(jclass.name != name
                   and self.is_subclass_of(jclass.name, name)
                   for jclass in self.classes.values())

    def has_overrides(self, method: JMethod) -> bool:
        """True if any loaded subclass overrides *method* — the compiler
        uses this for (non-speculative) devirtualization."""
        holder = method.holder.name
        for jclass in self.classes.values():
            if jclass.name == holder:
                continue
            if (method.name in jclass.methods
                    and self.is_subclass_of(jclass.name, holder)):
                return True
        return False

    # -- layout -----------------------------------------------------------

    def instance_fields(self, class_name: str) -> List[JField]:
        """All instance fields including inherited ones, base class first."""
        cached = self._fields_list_cache.get(class_name)
        if cached is not None:
            return cached
        chain = list(self.superclasses(class_name))
        result: List[JField] = []
        for jclass in reversed(chain):
            result.extend(f for f in jclass.fields.values()
                          if not f.is_static)
        self._fields_list_cache[class_name] = result
        return result

    def instance_size(self, class_name: str) -> int:
        """Heap size in bytes of an instance of *class_name*."""
        cached = self._size_cache.get(class_name)
        if cached is not None:
            return cached
        size = (OBJECT_HEADER_BYTES
                + FIELD_BYTES * len(self.instance_fields(class_name)))
        self._size_cache[class_name] = size
        return size

    def instance_field_defaults(self, class_name: str) -> Dict[str, Any]:
        """Template of default field values for a fresh instance.
        Callers must copy before mutating (``dict(template)``)."""
        cached = self._defaults_cache.get(class_name)
        if cached is not None:
            return cached
        template = {f.name: f.default_value()
                    for f in self.instance_fields(class_name)}
        self._defaults_cache[class_name] = template
        return template

    @staticmethod
    def array_size(length: int) -> int:
        """Heap size in bytes of an array of *length* elements."""
        return ARRAY_HEADER_BYTES + ELEMENT_BYTES * length

    # -- statics ------------------------------------------------------------

    def static_key(self, class_name: str, field_name: str) -> str:
        cache_key = (class_name, field_name)
        cached = self._static_key_cache.get(cache_key)
        if cached is not None:
            return cached
        jfield = self.resolve_field(class_name, field_name)
        if not jfield.is_static:
            raise ResolutionError(
                f"{class_name}.{field_name} is not static")
        # Find the declaring class so Sub.f and Base.f share storage.
        for jclass in self.superclasses(class_name):
            if field_name in jclass.fields:
                key = f"{jclass.name}.{field_name}"
                self._static_key_cache[cache_key] = key
                return key
        raise AssertionError("unreachable")

    def get_static(self, class_name: str, field_name: str):
        key = self.static_key(class_name, field_name)
        if key not in self.statics:
            declaring = key.split(".")[0]
            jfield = self.lookup_class(declaring).fields[field_name]
            self.statics[key] = jfield.default_value()
        return self.statics[key]

    def set_static(self, class_name: str, field_name: str, value):
        key = self.static_key(class_name, field_name)
        self.statics[key] = value

    def reset_statics(self):
        """Reset all static fields to their defaults (between benchmark
        iterations)."""
        self.statics.clear()

    # -- convenience ---------------------------------------------------------

    def method(self, qualified: str) -> JMethod:
        """Look up ``"Class.method"``."""
        class_name, __, method_name = qualified.rpartition(".")
        return self.resolve_method(class_name, method_name)

    def all_methods(self):
        for jclass in self.classes.values():
            yield from jclass.methods.values()
