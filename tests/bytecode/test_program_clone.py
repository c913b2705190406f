"""Program.clone: private copies of the memoized front door's programs
that share only the frozen instructions."""

import copy
import dataclasses

import pytest

from repro.benchsuite import by_name
from repro.bytecode import (FieldRef, Instruction, Interpreter, MethodRef,
                            Op)
from repro.lang import compile_source
from repro.lang import compiler as lang_compiler

SOURCE = """
class Base {
    int x;
    static int counter;
    int get() { return x; }
}
class C extends Base {
    int y;
    static native int host(int v);
    int get() { return x + y; }
    static int m(int n) {
        C c = new C();
        c.x = n;
        c.y = host(n);
        counter = counter + c.get();
        return counter;
    }
}
"""

NATIVES = {"C.host": lambda interp, args: args[0] * 3}


@pytest.fixture(autouse=True)
def source_memo(monkeypatch):
    monkeypatch.delenv("REPRO_NO_SOURCE_MEMO", raising=False)


def memoized(source):
    compile_source(source)
    return lang_compiler._memo[source]


def object_ids(root):
    """(ids of mutable objects, ids of Instructions) reachable from
    *root* through containers and instance attributes."""
    mutable, instructions = set(), set()
    stack, seen = [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Instruction):
            instructions.add(id(obj))
        elif isinstance(obj, (str, int, float, type(None), Op, FieldRef,
                              MethodRef)):
            continue
        elif isinstance(obj, tuple):
            stack.extend(obj)
        elif isinstance(obj, dict):
            mutable.add(id(obj))
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, set)):
            mutable.add(id(obj))
            stack.extend(obj)
        else:
            mutable.add(id(obj))
            stack.append(vars(obj))
    return mutable, instructions


def members(program):
    """Every class, method and field of *program*, in a stable order."""
    classes = [program.classes[name] for name in sorted(program.classes)]
    methods = [m for c in classes for m in c.methods.values()]
    fields = [f for c in classes for f in c.fields.values()]
    return classes, methods, fields


@pytest.mark.parametrize("source", [
    SOURCE, by_name("fop").source, by_name("jython").source],
    ids=["local", "fop", "jython"])
def test_clone_matches_deepcopy(source):
    memo = memoized(source)
    clone, deep = memo.clone(), copy.deepcopy(memo)
    assert clone.content_fingerprint() == deep.content_fingerprint() \
        == memo.content_fingerprint()
    assert vars(clone).keys() == vars(deep).keys()
    for ours, theirs in zip(members(clone), members(deep)):
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert vars(a).keys() == vars(b).keys()
    for method in clone.all_methods():
        assert method.holder is clone.classes[method.holder.name]
        assert method is clone.method(method.qualified_name)


def test_clone_shares_only_instructions():
    memo = memoized(SOURCE)
    clone = compile_source(SOURCE)
    memo_mutable, memo_insns = object_ids(memo)
    clone_mutable, clone_insns = object_ids(clone)
    assert memo_mutable and clone_mutable
    assert not memo_mutable & clone_mutable
    assert memo_insns and clone_insns == memo_insns


def test_writes_to_one_clone_reach_neither_memo_nor_sibling():
    memo = memoized(SOURCE)
    fingerprint = memo.content_fingerprint()
    code = list(memo.method("C.m").code)
    get_code = list(memo.method("Base.get").code)
    first = compile_source(SOURCE, natives=NATIVES)
    second = compile_source(SOURCE, natives=NATIVES)
    assert Interpreter(first).call("C.m", 2) == 8

    first.set_static("Base", "counter", 41)
    first.method("C.host").native_impl = lambda interp, args: 0
    first.method("C.m").code = [Instruction(Op.CONST, 7),
                                Instruction(Op.RETURN_VALUE)]
    first.method("Base.get").code.append(Instruction(Op.RETURN))
    first.method("Base.get").param_types.append("int")
    first.lookup_class("C").fields["y"].type_name = "boolean"
    first.define_class("Extra")

    assert memo.statics == {}
    assert memo.method("C.host").native_impl is None
    assert memo.method("C.m").code == code
    assert memo.method("Base.get").code == get_code
    assert memo.method("Base.get").param_types == ["Base"]
    assert memo.lookup_class("C").fields["y"].type_name == "int"
    assert "Extra" not in memo.classes
    assert memo.content_fingerprint() == fingerprint
    assert second.get_static("Base", "counter") == 0
    assert second.method("C.host").native_impl is NATIVES["C.host"]
    assert second.method("C.m").code == code
    assert second.method("Base.get").param_types == ["Base"]
    assert second.lookup_class("C").fields["y"].type_name == "int"
    assert Interpreter(second).call("C.m", 2) == 8
    assert Interpreter(first).call("C.m", 2) == 7


def test_no_source_memo_bypasses_the_memo(monkeypatch):
    monkeypatch.setenv("REPRO_NO_SOURCE_MEMO", "1")
    source = SOURCE + "\nclass Unmemoized { }\n"
    first, second = compile_source(source), compile_source(source)
    assert source not in lang_compiler._memo
    assert first.method("C.m").code[0] is not second.method("C.m").code[0]


def test_instructions_are_frozen():
    insn = Instruction(Op.CONST, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        insn.op = Op.POP
    with pytest.raises(dataclasses.FrozenInstanceError):
        insn.operand = 2
