"""Command-line interface tests."""

import pytest

from repro.cli import main
from repro.jit import ESCAPE_TIERS

SOURCE = """
class Pair {
    int a; int b;
    Pair(int a, int b) { this.a = a; this.b = b; }
}
class Main {
    static int main(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
            Pair p = new Pair(i, i * 2);
            acc = acc + p.a + p.b;
        }
        return acc;
    }
}
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.mj"
    path.write_text(SOURCE)
    return str(path)


def test_run_interpreted(program_file, capsys):
    assert main(["run", program_file, "--entry", "Main.main",
                 "--args", "10", "--config", "interp"]) == 0
    out = capsys.readouterr().out
    assert "result: 135" in out
    assert "allocations=10" in out


def test_run_with_pea(program_file, capsys):
    assert main(["run", program_file, "--entry", "Main.main",
                 "--args", "10", "--config", "pea"]) == 0
    out = capsys.readouterr().out
    assert "result: 135" in out
    assert "allocations=0" in out
    assert "cycles=" in out


def test_run_configs_agree(program_file, capsys):
    results = set()
    for config in ("interp", *ESCAPE_TIERS):
        assert main(["run", program_file, "--entry", "Main.main",
                     "--args", "25", "--config", config]) == 0
        out = capsys.readouterr().out
        results.add(out.splitlines()[0])
    assert results == {"result: 900"}


def test_compile_every_tier(program_file, capsys):
    virtualized = {}
    for tier in ESCAPE_TIERS:
        assert main(["compile", program_file, "--method", "Main.main",
                     "--config", tier]) == 0
        out = capsys.readouterr().out
        assert "IR nodes" in out
        virtualized[tier] = "virtualized=1" in out
    # Scalar replacement is what the equi-escape and PEA tiers run.
    assert virtualized == {tier: row.analysis in ("equi", "pea")
                           for tier, row in ESCAPE_TIERS.items()}


def test_compile_reports_ea_stats(program_file, capsys):
    assert main(["compile", program_file, "--method", "Main.main"]) == 0
    out = capsys.readouterr().out
    assert "IR nodes" in out
    assert "virtualized=1" in out


def test_compile_dump_ir(program_file, capsys):
    assert main(["compile", program_file, "--method", "Main.main",
                 "--dump-ir"]) == 0
    out = capsys.readouterr().out
    assert "LoopBegin" in out


def test_compile_dot_output(program_file, tmp_path, capsys):
    dot_path = str(tmp_path / "graph.dot")
    assert main(["compile", program_file, "--method", "Main.main",
                 "--dot", dot_path]) == 0
    content = open(dot_path).read()
    assert content.startswith("digraph")


def test_disasm(program_file, capsys):
    assert main(["disasm", program_file]) == 0
    out = capsys.readouterr().out
    assert "class Pair" in out
    assert "invokespecial" in out


def test_compile_timings(program_file, capsys):
    assert main(["compile", program_file, "--method", "Main.main",
                 "--timings"]) == 0
    out = capsys.readouterr().out
    assert "partial-escape-analysis" in out
    assert "ms" in out


def test_fuzz_smoke(capsys, tmp_path):
    assert main(["fuzz", "--programs", "3", "--seed", "7",
                 "--corpus-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "ran 3 programs" in out
    assert "0 failure(s)" in out


def test_fuzz_refuses_no_cache_with_a_cache_dir(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    with pytest.raises(SystemExit) as exited:
        main(["fuzz", "--programs", "1", "--no-cache",
              "--cache-dir", str(cache_dir)])
    assert exited.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not cache_dir.exists()


# -- analyze / lint (exit contract: 0 clean, 1 findings, 2 error) -------------

DEAD_STORE_JASM = """
class Data
  field int f0

class Main
  method dead() -> int static locals=1
    new Data
    store 0
    load 0
    const 1
    putfield Data.f0
    load 0
    const 2
    putfield Data.f0
    load 0
    getfield Data.f0
    return_value
"""


@pytest.fixture
def dirty_file(tmp_path):
    path = tmp_path / "dirty.jasm"
    path.write_text(DEAD_STORE_JASM)
    return str(path)


def test_analyze_clean_program_exits_zero(program_file, capsys):
    assert main(["analyze", program_file]) == 0
    out = capsys.readouterr().out
    assert "lint: clean" in out
    assert "virtualized" in out


def test_lint_finding_exits_one(dirty_file, capsys):
    assert main(["lint", dirty_file]) == 1
    out = capsys.readouterr().out
    assert "dead-store-to-virtual" in out
    assert "Main.dead" in out


def test_analyze_missing_path_exits_two(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.mj")]) == 2
    assert "nope.mj" in capsys.readouterr().err


def test_analyze_unparsable_file_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.mj"
    path.write_text("class {{{")
    assert main(["analyze", str(path)]) == 2
    assert "broken.mj" in capsys.readouterr().err


def test_analyze_json_aggregates_per_path(program_file, dirty_file,
                                          capsys):
    import json

    assert main(["analyze", "--json", program_file, dirty_file]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {program_file, dirty_file}
    assert payload[program_file]["findings"] == []
    findings = payload[dirty_file]["findings"]
    assert findings and \
        findings[0]["pass"] == "dead-store-to-virtual"


def test_analyze_directory_recurses(tmp_path, program_file, capsys):
    nested = tmp_path / "sub"
    nested.mkdir()
    (nested / "clean.mj").write_text(SOURCE)
    assert main(["analyze", str(tmp_path)]) == 0
    assert "clean.mj" in capsys.readouterr().out


def test_analyze_reports_escape_sites(tmp_path, capsys):
    # A capturing helper: the allocation must be attributed to the
    # static store it flows into.
    path = tmp_path / "escape.mj"
    path.write_text("""
class Box { int v; }
class Sink {
    static Box kept;
    static int keep(Box b) { Sink.kept = b; return b.v; }
}
class Main {
    static int run(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
            Box b = new Box();
            b.v = i;
            acc = acc + Sink.keep(b);
        }
        return acc;
    }
}
""")
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "escape site" in out
    assert "materialized" in out
