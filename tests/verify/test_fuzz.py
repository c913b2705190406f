"""Fuzzer machinery tests: choice-sequence determinism and replay,
shrinking to minimal reproducers, corpus persistence, and a small
end-to-end differential smoke run."""

import random

import pytest

from repro.verify.fuzz import (CheckResult, Fuzzer, RecordingSource,
                               ReplaySource, check_program, fuzz,
                               mutate_choices, replay_corpus_entry,
                               save_corpus_entry)
from repro.verify.generator import GeneratedProgram, ProgramGenerator, Stmt
from repro.verify.shrink import shrink_program


def generate_recorded(seed):
    source = RecordingSource(random.Random(seed))
    program = ProgramGenerator(source.rand_int).generate_program()
    return program, source.choices


def test_same_seed_same_program():
    program_a, _ = generate_recorded(42)
    program_b, _ = generate_recorded(42)
    assert program_a.source() == program_b.source()


def test_choice_replay_reproduces_program():
    program, choices = generate_recorded(7)
    replay = ReplaySource(choices, random.Random(0))
    replayed = ProgramGenerator(replay.rand_int).generate_program()
    assert replayed.source() == program.source()
    assert replay.choices == choices


def test_mutated_choices_still_generate_valid_programs():
    from repro.lang import compile_source
    _, choices = generate_recorded(3)
    rng = random.Random(11)
    for _ in range(10):
        mutated = mutate_choices(choices, rng)
        replay = ReplaySource(mutated, rng)
        program = ProgramGenerator(replay.rand_int).generate_program()
        compile_source(program.source())  # must stay well-formed


def _trigger_program():
    """entry: a trigger statement buried under noise and nesting."""
    return GeneratedProgram({
        "h2": [Stmt.leaf("x0 = x1 + 2;")],
        "h1": [Stmt.leaf("d0.f0 = 4;"),
               Stmt.compound("if (x0 < x1)",
                             [Stmt.leaf("x2 = 9;")],
                             [Stmt.leaf("x1 = 1;")])],
        "entry": [
            Stmt.leaf("x0 = 5;"),
            Stmt.compound("if (a < b)", [
                Stmt.leaf("x1 = 2;"),
                Stmt.compound("synchronized (d0)",
                              [Stmt.leaf("g0 = d1;"),  # the trigger
                               Stmt.leaf("x2 = 3;")]),
            ]),
            Stmt.leaf("d1.f1 = 8;"),
        ],
    })


def test_shrink_reduces_to_single_trigger_statement():
    program = _trigger_program()

    def still_fails(candidate):
        return "g0 = d1;" in candidate.source()

    assert still_fails(program)
    shrunk = shrink_program(program, still_fails)
    assert still_fails(shrunk)
    # Everything except the trigger leaf is gone — including the
    # enclosing if/synchronized compounds (hoisted away).
    assert shrunk.statement_count() == 1
    assert all(not stmts for name, stmts in shrunk.bodies.items()
               if name != "entry")
    assert shrunk.bodies["entry"][0].kind == "leaf"


def test_shrink_rejects_differently_failing_candidates():
    program = _trigger_program()
    calls = []

    def predicate(candidate):
        calls.append(1)
        source = candidate.source()
        # Fails "the same way" only while BOTH statements survive.
        return "g0 = d1;" in source and "d1.f1 = 8;" in source

    shrunk = shrink_program(program, predicate)
    source = shrunk.source()
    assert "g0 = d1;" in source and "d1.f1 = 8;" in source
    assert shrunk.statement_count() == 2
    assert calls  # the predicate drove the search


def test_fuzzer_shrinks_injected_failure():
    """End-to-end: an injected oracle bug is caught and automatically
    reduced to a one-statement reproducer."""

    def buggy_check(program):
        if "synchronized" in program.source():
            return CheckResult(("injected", "synchronized seen"))
        return CheckResult(None)

    fuzzer = Fuzzer(seed=99, shrink=True, check=buggy_check)
    report = fuzzer.run(10)
    assert report.failures
    failure = report.failures[0]
    assert failure.category == "injected"
    assert failure.shrunk is not None
    assert failure.shrunk.statement_count() <= 2
    assert "synchronized" in failure.shrunk.source()
    assert failure.shrunk.statement_count() \
        < failure.program.statement_count()


def test_failure_writes_corpus_reproducer(tmp_path):
    def buggy_check(program):
        if "new Data()" in program.source():
            return CheckResult(("injected", "allocation seen"))
        return CheckResult(None)

    fuzzer = Fuzzer(seed=5, corpus_dir=str(tmp_path), shrink=True,
                    check=buggy_check)
    report = fuzzer.run(3)
    assert report.failures
    jasm_files = list(tmp_path.glob("*.jasm"))
    json_files = list(tmp_path.glob("*.json"))
    assert jasm_files and json_files
    # The persisted reproducer replays clean against its own recording
    # (the injected bug lives in the oracle, not the engines).
    assert replay_corpus_entry(str(jasm_files[0])) is None


def test_save_and_replay_roundtrip(tmp_path):
    program, _ = generate_recorded(12)
    path = save_corpus_entry(str(tmp_path), "entry", program, "seed")
    assert replay_corpus_entry(path) is None


def test_fuzz_report_sums_backend_fallbacks(monkeypatch):
    """Every install a VM engine could not bind to its backend's own
    lowering reaches the report: with generated code refusing to bind,
    the codegen engine's installs are the only fallbacks."""
    from repro.runtime.codegen import CodegenError, CodegenPlan
    assert fuzz(programs=2, seed=7).backend_fallbacks == 0

    def refuse(self, *args, **kwargs):
        raise CodegenError("injected bind failure")

    monkeypatch.setattr(CodegenPlan, "bind", refuse)
    report = fuzz(programs=2, seed=7)
    assert report.failures == []
    assert report.backend_fallbacks > 0


@pytest.mark.slow
def test_fuzz_smoke_runs_clean():
    """The real oracle over a small fixed-seed batch: all engines agree
    and the verifier stays silent."""
    report = fuzz(programs=15, seed=2024)
    assert report.programs_run == 15
    assert report.failures == []
    assert "pea:virtualized" in report.coverage
