"""PhasePlan verification: every distinct graph state is verified once,
a skip never trusts a phase's ``changed`` result, structural errors name
their phase, and the time spent verifying is attributed."""

import glob
import os

import pytest

from repro.ir import Graph, IRError, nodes as N
from repro.opt.phase import Phase, PhasePlan
from repro.verify import GraphVerificationError
from repro.verify import verifier as verifier_module


def diamond():
    """start -> if -> (left | right) -> merge(phi) -> return phi"""
    graph = Graph()
    graph.start = start = graph.add(N.StartNode())
    if_node = graph.add(N.IfNode(condition=graph.constant(1)))
    start.next = if_node
    left, right = graph.add(N.BeginNode()), graph.add(N.BeginNode())
    if_node.true_successor, if_node.false_successor = left, right
    left.next, right.next = graph.add(N.EndNode()), graph.add(N.EndNode())
    merge = graph.add(N.MergeNode())
    merge.add_end(left.next)
    merge.add_end(right.next)
    phi = graph.add(N.PhiNode(merge=merge))
    phi.values.extend([graph.constant(2), graph.constant(3)])
    merge.next = graph.add(N.ReturnNode(value=phi))
    return graph, phi


class Edit(Phase):
    """Applies *edit* (or nothing) and always reports no change."""

    def __init__(self, name, edit=None):
        self.name = name
        self.edit = edit

    def run(self, graph):
        if self.edit is not None:
            self.edit(graph)
        return False


@pytest.fixture
def verifier_runs(monkeypatch):
    """Calls of the two verifier entry points, counted by wrapping
    them where ``PhasePlan`` finds them."""
    runs = {"Graph.verify": 0, "verify_graph": 0}
    structural, full = Graph.verify, verifier_module.verify_graph

    def counted_structural(graph):
        runs["Graph.verify"] += 1
        return structural(graph)

    def counted_full(graph, phase=None):
        runs["verify_graph"] += 1
        return full(graph, phase)

    monkeypatch.setattr(Graph, "verify", counted_structural)
    monkeypatch.setattr(verifier_module, "verify_graph", counted_full)
    return runs


@pytest.mark.parametrize("verify_ir, expected", [
    (False, {"Graph.verify": 1, "verify_graph": 0}),
    # The input graph's check; the full verifier runs Graph.verify too.
    (True, {"Graph.verify": 1, "verify_graph": 1}),
])
def test_unchanged_graph_is_verified_once(verifier_runs, verify_ir,
                                          expected):
    graph, __ = diamond()
    PhasePlan([Edit("a"), Edit("b"), Edit("c")],
              verify_ir=verify_ir).run(graph)
    assert verifier_runs == expected


@pytest.mark.parametrize("verify_ir, expected", [
    (False, {"Graph.verify": 3, "verify_graph": 0}),
    (True, {"Graph.verify": 3, "verify_graph": 3}),
])
def test_edit_reported_as_unchanged_is_still_verified(verifier_runs,
                                                      verify_ir, expected):
    graph, phi = diamond()
    constants = iter(range(10, 20))

    def rewire(graph):
        phi.values[0] = graph.constant(next(constants))

    PhasePlan([Edit("a"), Edit("rewire", rewire), Edit("b"),
               Edit("rewire", rewire), Edit("c")],
              verify_ir=verify_ir).run(graph)
    assert verifier_runs == expected


def test_structural_error_names_the_phase():
    """With ``verify_ir`` off, a broken graph raises a plain IRError
    (what the fuzz engines and compile bailout catch) naming the phase,
    even though the phase reported no change."""
    graph, phi = diamond()
    plan = PhasePlan([Edit("quiet"),
                      Edit("breaker", lambda graph: phi.values.pop())])
    with pytest.raises(IRError) as excinfo:
        plan.run(graph)
    assert type(excinfo.value) is IRError
    message = str(excinfo.value)
    assert message.startswith("after phase 'breaker': ")
    assert f"{phi} has 1 inputs, merge {phi.merge} expects 2" in message


def test_full_verifier_error_names_the_phase():
    graph, phi = diamond()
    plan = PhasePlan([Edit("quiet"),
                      Edit("breaker", lambda graph: phi.values.pop())],
                     verify_ir=True)
    with pytest.raises(GraphVerificationError) as excinfo:
        plan.run(graph)
    assert excinfo.value.phase == "breaker"
    assert "after phase 'breaker'" in str(excinfo.value)


def test_verification_time_is_attributed_apart_from_phases():
    from repro.jit import Compiler, CompilerConfig
    from repro.lang import compile_source

    graph, __ = diamond()
    plan = PhasePlan([Edit("a")], verify_ir=True)
    plan.run(graph)
    assert plan.verify_seconds > 0
    assert [timing.phase for timing in plan.timings] == ["a"]

    program = compile_source("""
        class Main {
            static int entry(int n) { return n * 2 + 1; }
        }
    """)
    compiler = Compiler(program, CompilerConfig.partial_escape())
    compiler.compile(program.method("Main.entry"))
    assert compiler.phase_seconds["verify"] > 0
    assert "verify" not in {t.phase for t in compiler.last_timings}


#: Scalar node attributes the verifiers read, by node class.
VERIFIED_ATTRIBUTES = (
    (N.FrameStateNode, ("method", "bci")),
    (N.ParameterNode, ("index",)),
    (N.EscapeObjectStateNode, ("lock_count",)),
    (N.VirtualObjectNode, ("entry_count",)),
)


def snapshot(graph):
    """Everything the verifiers read of *graph*: registration, every
    edge, predecessors, usages with their counts, the entry fields and
    the scalar attributes above.  Nodes compare by identity."""
    nodes = []
    for node_id, node in graph._nodes.items():
        edges = node._edges
        nodes.append((
            node_id, node, node.graph, node.id,
            tuple(node._ins.get(name) for name in edges.input_slots),
            tuple(tuple(node.input_list(name))
                  for name in edges.input_lists),
            tuple(node._succs.get(name) for name in edges.successor_slots),
            node.predecessor, tuple(node._usages.items()),
            tuple(getattr(node, attribute)
                  for cls, attributes in VERIFIED_ATTRIBUTES
                  if isinstance(node, cls) for attribute in attributes)))
    return (tuple(nodes), graph.start, tuple(graph.parameters),
            graph.osr_entry_bci, tuple(graph.osr_local_slots),
            graph.entry_stack_depth)


CORPUS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "corpus", "*.jasm")))


def test_skipped_verifications_see_the_verified_graph(monkeypatch,
                                                      verifier_runs):
    """Whenever the plan skips a check, the graph equals its snapshot at
    the plan's last check: no verifier-visible edit went uncounted."""
    from repro.benchsuite.harness import run_workload
    from repro.benchsuite.workloads import by_name, quick_copy
    from repro.jit import CompilerConfig
    from repro.verify.fuzz import replay_corpus_entry

    verified = {}
    skipped = []
    original = PhasePlan._verify

    def checked_verify(self, graph, phase_name, checked):
        runs = sum(verifier_runs.values())
        record = original(self, graph, phase_name, checked)
        if sum(verifier_runs.values()) > runs:
            verified[graph] = snapshot(graph)
        else:
            skipped.append(phase_name)
            assert snapshot(graph) == verified[graph], \
                f"uncounted edit before the check after {phase_name}"
        return record

    monkeypatch.setattr(PhasePlan, "_verify", checked_verify)

    jython = run_workload(quick_copy(by_name("jython")),
                          CompilerConfig.partial_escape(verify_ir=True))
    assert jython.osr_entries > 0 and jython.deopts > 0
    run_workload(quick_copy(by_name("specjbb2005")),
                 CompilerConfig.partial_escape(verify_ir=False))
    for path in CORPUS:
        assert replay_corpus_entry(path) is None
    assert any(path.endswith("-deopt.jasm") for path in CORPUS)
    assert len(skipped) > len(verified)
