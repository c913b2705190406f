"""repro — Partial Escape Analysis and Scalar Replacement for Java.

A full-system reproduction of Stadler, Würthinger & Mössenböck (CGO
2014) in Python: a JVM-like bytecode substrate, a Java-like source
language, a Graal-style sea-of-nodes SSA IR with speculative
optimization and deoptimization, the Partial Escape Analysis phase (the
paper's contribution) plus a flow-insensitive equi-escape-sets baseline,
a simulated-machine runtime, a tiered JIT VM, and a benchmark suite that
regenerates the shape of the paper's Table 1.

Quickstart (the stable facade lives in :mod:`repro.api`)::

    from repro import api

    prog = api.compile(JAVA_LIKE_SOURCE)   # PEA config by default
    result = prog.run("Main.run", 1000)
    print(prog.heap_stats())           # allocations, bytes, monitors

The deeper modules stay importable (``from repro import VM, ...``) for
research code, but :mod:`repro.api` is the stability contract.
"""

from . import api
from .api import CompiledProgram
from .bytecode import (Heap, HeapStats, Interpreter, Program,
                       disassemble_method, disassemble_program,
                       verify_program)
from .frontend import build_graph
from .ir import Graph, dump_graph, to_dot
from .jit import VM, Compiler, CompilerConfig, VMListener
from .lang import compile_source
from .opt import (CanonicalizerPhase, DeadCodeEliminationPhase,
                  GlobalValueNumberingPhase, InliningPhase, PhasePlan)
from .pea import EquiEscapePhase, PartialEscapePhase, PEAResult
from .runtime import CostModel, ExecutionStats

__version__ = "1.0.0"

__all__ = [
    "api", "CompiledProgram", "VMListener",
    "Heap", "HeapStats", "Interpreter", "Program", "disassemble_method",
    "disassemble_program", "verify_program", "build_graph", "Graph",
    "dump_graph", "to_dot", "VM", "Compiler", "CompilerConfig",
    "compile_source", "CanonicalizerPhase",
    "DeadCodeEliminationPhase", "GlobalValueNumberingPhase",
    "InliningPhase", "PhasePlan", "EquiEscapePhase", "PartialEscapePhase",
    "PEAResult", "CostModel", "ExecutionStats", "__version__",
]
