"""Compiled graphs are reproducible across processes: two fresh
interpreters compiling the same workloads store byte-identical cache
payloads (node numbering must not depend on memory addresses)."""

import glob
import hashlib
import os
import pickle
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Runs fop and factorie (quick, ``pea``) under the plan and codegen
#: backends into the disk cache named by argv[1].
SCRIPT = """
import sys
from repro.benchsuite.harness import run_workload
from repro.benchsuite.workloads import by_name, quick_copy
from repro.jit import CompilationCache, CompilerConfig
cache = CompilationCache(sys.argv[1])
for backend in ("plan", "codegen"):
    for name in ("fop", "factorie"):
        run_workload(quick_copy(by_name(name)),
                     CompilerConfig.partial_escape(execution_backend=backend),
                     cache=cache)
"""


def _stored_digests(cache_dir) -> dict:
    """(key, facts) -> SHA-256 of the payload, for every stored variant."""
    digests = {}
    for path in glob.glob(os.path.join(cache_dir, "graphs", "*", "*.pkl")):
        with open(path, "rb") as handle:
            stored = pickle.load(handle)
        for entry in stored["entries"]:
            digests[stored["key"], repr(entry["facts"])] = \
                hashlib.sha256(entry["blob"]).hexdigest()
    return digests


def test_two_processes_store_identical_payloads(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = []
    for index in range(2):
        cache_dir = str(tmp_path / f"run{index}")
        subprocess.run([sys.executable, "-c", SCRIPT, cache_dir],
                       check=True, env=env)
        runs.append(_stored_digests(cache_dir))
    first, second = runs
    assert first, "no payload was stored"
    differing = sorted(key for key in first.keys() | second.keys()
                       if first.get(key) != second.get(key))
    assert not differing, \
        f"{len(differing)} of {len(first)} payloads differ between processes"
