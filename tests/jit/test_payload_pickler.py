"""The detaching pickler's exact-type dispatch writes the same payload
bytes as an ``isinstance`` chain."""

import glob
import io
import os
import pickle

from repro.bytecode import JClass, JField, JMethod, Program
from repro.jit import CompilationCache
from repro.jit import cache as cache_module
from repro.verify.fuzz import replay_corpus_entry

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


class IsinstancePickler(cache_module._DetachingPickler):
    """Dispatches with ``isinstance``, as the pickler once did."""

    def persistent_id(self, obj):
        if isinstance(obj, JMethod):
            return ("jmethod", obj.holder.name, obj.name)
        if isinstance(obj, JClass):
            return ("jclass", obj.name)
        if isinstance(obj, Program):
            return ("program",)
        if isinstance(obj, JField):
            for jclass in self._program.classes.values():
                if jclass.fields.get(obj.name) is obj:
                    return ("jfield", jclass.name, obj.name)
            raise pickle.PicklingError(f"field {obj.name} not found")
        return None


def isinstance_dump(payload, program):
    buffer = io.BytesIO()
    IsinstancePickler(buffer, program).dump(payload)
    return buffer.getvalue()


def test_payload_bytes_match_isinstance_dispatch(monkeypatch):
    stored = []
    dump = cache_module.dump_graph_payload

    def recording_dump(payload, program):
        blob = dump(payload, program)
        stored.append((blob, isinstance_dump(payload, program)))
        return blob

    monkeypatch.setattr(cache_module, "dump_graph_payload", recording_dump)
    jasm_path = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.jasm")))[0]
    assert replay_corpus_entry(jasm_path, cache=CompilationCache()) is None
    assert len(stored) >= 2
    for blob, expected in stored:
        assert blob == expected
        assert b"jmethod" in blob


def test_every_token_kind_matches_isinstance_dispatch():
    program = Program()
    jclass = program.define_class("Box")
    jfield = jclass.add_field(JField("v"))
    method = jclass.add_method(JMethod("get", ["Box"], "int"))
    payload = {"objects": [program, jclass, jfield, method, "plain"]}
    blob = cache_module.dump_graph_payload(payload, program)
    assert blob == isinstance_dump(payload, program)
    assert cache_module.load_graph_payload(blob, program) == payload
