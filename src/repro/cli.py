"""Command-line interface.

Subcommands::

    python -m repro run FILE --entry Main.run --args 100 [--config TIER]
    python -m repro compile FILE --method Main.run [--config TIER]
                                 [--dump-ir] [--dot F]
    python -m repro disasm FILE
    python -m repro analyze PATH... [--json]   (lint + escape report)
    python -m repro lint PATH... [--json]      (lint passes only)
    python -m repro fuzz --programs 200 --seed 1234 [--corpus-dir D]
    python -m repro cache stats|clear [--cache-dir D]
    python -m repro table1 [...]        (delegates to benchsuite.table1:
                                         Table 1 and Section 6.2)
    python -m repro jitdiff [...]       (delegates to .jitdiff)

``--config`` names an escape tier, a key of
:data:`repro.jit.options.ESCAPE_TIERS` (default ``pea``); ``run`` also
takes ``interp``, the bytecode interpreter alone.

``analyze`` and ``lint`` accept source files, ``.jasm`` assembly files,
or directories (searched recursively for both) and share one exit-code
contract: 0 = clean, 1 = findings, 2 = error (unreadable input, parse
failure).

``fuzz`` shares one in-memory compilation cache across its engines
(``--no-cache`` turns it off); ``run`` and ``fuzz`` accept
``--cache-dir DIR`` (persist the cache on disk so later runs start
warm), which ``fuzz`` refuses beside ``--no-cache``.
"""

from __future__ import annotations

import argparse
import sys

from . import api
from .api import CompilationCache, CompilerConfig, compile_source, \
    default_cache_dir
from .bytecode import Interpreter, disassemble_program
from .ir import dump_graph, to_dot
from .jit import ESCAPE_TIERS, Compiler


def _load(path: str):
    with open(path) as handle:
        return compile_source(handle.read())


def _add_cache_dir_flag(parser) -> None:
    """Add ``--cache-dir`` to *parser* (or to an argument group)."""
    parser.add_argument("--cache-dir",
                        help="persist the compilation cache under this "
                             "directory so later runs start warm")


def _make_cache(args):
    """A CompilationCache per the --cache-dir flag (and fuzz's
    --no-cache), or None when caching is off."""
    if args.cache_dir:
        return CompilationCache(args.cache_dir)
    if getattr(args, "cache", False):
        return CompilationCache()
    return None


def cmd_run(args) -> int:
    program = _load(args.file)
    call_args = [int(a) for a in args.args]
    vm = None
    gc_stats = None
    if args.config == "interp":
        interp = Interpreter(program)
        result = interp.call(args.entry, *call_args)
        stats = interp.heap.stats
        gc_stats = interp.heap.gc.stats
        cycles = ""
    else:
        cache = _make_cache(args)
        config = CompilerConfig(escape_tier=args.config,
                                deoptless=args.deoptless)
        prog = api.compile(program, config=config, cache=cache)
        prog.warm_up(args.entry, *call_args, calls=args.warmup)
        vm = prog.vm
        heap_before = prog.heap_stats()
        gc_before = prog.gc_stats()
        cycles_before = vm.cycles_snapshot()
        result = prog.run(args.entry, *call_args)
        stats = prog.heap_stats().delta(heap_before)
        gc_stats = prog.gc_stats().delta(gc_before)
        cycles = f"  cycles={vm.cycles_snapshot() - cycles_before:,.0f}"
        if vm.osr_entries:
            cycles += f"  osr={vm.osr_entries}"
        if cache is not None:
            s = cache.stats
            cycles += f"  cache={s.hits}h/{s.misses}m"
    print(f"result: {result}")
    print(f"allocations={stats.allocations}  "
          f"bytes={stats.allocated_bytes}  "
          f"monitors={stats.monitor_enters}/{stats.monitor_exits}"
          f"{cycles}")
    if getattr(args, "gc_stats", False) and gc_stats is not None:
        print(f"gc: minor_collections={gc_stats.minor_collections}  "
              f"pause_cycles={gc_stats.pause_cycles}  "
              f"promoted_kb={gc_stats.promoted_bytes / 1024:.1f}  "
              f"copied_kb={gc_stats.copied_bytes / 1024:.1f}")
    if getattr(args, "profile", False) and vm is not None:
        d = vm.deoptless.snapshot()
        print(f"profile: deopts={vm.exec_stats.deopts}  "
              f"invalidations={vm.invalidations}  "
              f"interpreter_steps={vm.exec_stats.interpreter_steps}")
        print(f"deoptless: continuation_compiles="
              f"{d['continuation_compiles']}  "
              f"dispatches={d['dispatches']}  "
              f"dispatch_misses={d['dispatch_misses']}  "
              f"retirements={d['retirements']}")
    return 0


def cmd_compile(args) -> int:
    program = _load(args.file)
    method = program.method(args.method)
    compiler = Compiler(program, CompilerConfig(escape_tier=args.config))
    result = compiler.compile(method)
    print(f"{args.method}: {result.node_count} IR nodes")
    if args.timings:
        for timing in compiler.last_timings:
            marker = "*" if timing.changed else " "
            print(f"  {marker} {timing.phase:<28} "
                  f"{timing.seconds * 1000:8.2f} ms")
    ea = result.ea_result
    print(f"escape analysis: virtualized={ea.virtualized_allocations} "
          f"materializations={ea.materializations} "
          f"monitor_pairs_removed={ea.removed_monitor_pairs}")
    if args.dump_ir:
        print(dump_graph(result.graph, include_floating=False))
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(to_dot(result.graph))
        print(f"wrote {args.dot}")
    if args.html:
        from .ir.htmlviz import write_html
        write_html(result.graph, args.html)
        print(f"wrote {args.html}")
    return 0


def cmd_disasm(args) -> int:
    print(disassemble_program(_load(args.file)))
    return 0


def _load_any(path: str):
    """Load a program from a source file or a ``.jasm`` assembly file."""
    with open(path) as handle:
        text = handle.read()
    if path.endswith(".jasm"):
        from .bytecode.asmtext import assemble
        return assemble(text, verify=True)
    return compile_source(text)


def _analysis_targets(paths) -> list:
    """Expand files/directories into analyzable files (sorted;
    directories searched recursively for .mj and .jasm)."""
    import glob
    import os
    files = []
    for path in paths:
        if os.path.isdir(path):
            for ext in ("mj", "jasm"):
                files.extend(sorted(glob.glob(
                    os.path.join(path, "**", f"*.{ext}"),
                    recursive=True)))
        else:
            files.append(path)
    return files


def _run_analysis(args, lint_only: bool) -> int:
    """Shared driver for ``analyze``/``lint``.

    Exit contract: 0 clean, 1 findings, 2 error.  The escape-site
    attribution of ``analyze`` is informational — only lint findings
    make the exit code 1.
    """
    import json

    from .analysis.diagnostics import analyze_program, lint_program

    files = _analysis_targets(args.paths)
    if not files:
        print("no analyzable files found", file=sys.stderr)
        return 2
    reports = {}
    finding_count = 0
    for path in files:
        try:
            program = _load_any(path)
            if lint_only:
                findings = lint_program(program)
                payload = {"findings": [f.to_dict() for f in findings]}
                text = "\n".join(f.format() for f in findings) \
                    if findings else "clean"
            else:
                report = analyze_program(program)
                findings = report.findings
                payload = report.to_dict()
                text = report.format()
        except Exception as exc:  # noqa: BLE001 - report, exit 2
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        finding_count += len(findings)
        reports[path] = payload
        if not args.json:
            print(f"== {path}")
            print(text)
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
    return 1 if finding_count else 0


def cmd_analyze(args) -> int:
    return _run_analysis(args, lint_only=False)


def cmd_lint(args) -> int:
    return _run_analysis(args, lint_only=True)


def cmd_fuzz(args) -> int:
    import os
    # Every engine compile runs the full IR verifier.
    os.environ["REPRO_VERIFY_IR"] = "1"
    from .verify.fuzz import fuzz
    cache = _make_cache(args)
    report = fuzz(programs=args.programs, seed=args.seed,
                  corpus_dir=args.corpus_dir, shrink=not args.no_shrink,
                  log=print, cache=cache)
    print(f"ran {report.programs_run} programs, "
          f"{len(report.coverage)} coverage keys "
          f"({report.coverage_adds} coverage-adding programs), "
          f"{len(report.failures)} failure(s)")
    print(f"backend fallbacks: {report.backend_fallbacks} installs "
          f"could not bind their engine's backend lowering")
    if cache is not None:
        s = cache.stats
        print(f"cache: {s.hits} hits, {s.misses} misses, "
              f"{s.validation_failures} stale, {s.evictions} evicted, "
              f"{s.continuation_stores} continuation stores")
    for failure in report.failures:
        reproducer = failure.reproducer()
        print(f"  [{failure.category}] {failure.detail} "
              f"({reproducer.statement_count()} statements)")
    return 1 if report.failures else 0


def cmd_cache(args) -> int:
    from .jit.cache import clear_disk, disk_stats
    cache_dir = args.cache_dir or default_cache_dir()
    if args.action == "stats":
        summary = disk_stats(cache_dir)
        print(f"cache directory: {cache_dir}")
        print(f"graphs:          {summary['graph_files']} files, "
              f"{summary['graph_entries']} variants "
              f"({summary['continuation_entries']} continuations), "
              f"{summary['graph_bytes']:,} bytes")
        print(f"harness records: {summary['harness_files']} entries, "
              f"{summary['harness_bytes']:,} bytes")
    else:
        removed = clear_disk(cache_dir)
        print(f"removed {removed} cached file(s) from {cache_dir}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse.REMAINDER refuses to swallow leading option-style tokens
    # (bpo-17050), so the benchsuite subcommands get their argv here,
    # before argparse runs.
    if argv and argv[0] in ("table1", "jitdiff"):
        import importlib
        module = importlib.import_module(f"repro.benchsuite.{argv[0]}")
        result = module.main(argv[1:])
        return int(result or 0)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Partial Escape Analysis reproduction toolchain")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="execute a program on a chosen engine")
    run_parser.add_argument("file")
    run_parser.add_argument("--entry", default="Main.main")
    run_parser.add_argument("--args", nargs="*", default=[])
    run_parser.add_argument("--config", choices=["interp", *ESCAPE_TIERS],
                            default="pea")
    run_parser.add_argument("--warmup", type=int, default=30)
    run_parser.add_argument("--deoptless", action="store_true",
                            help="dispatch deopts into specialized "
                                 "continuations instead of bridging "
                                 "through the interpreter")
    run_parser.add_argument("--profile", action="store_true",
                            help="print deopt/continuation/dispatch "
                                 "counters after the measured call")
    run_parser.add_argument("--gc-stats", action="store_true",
                            help="print simulated-collector counters "
                                 "(minor collections, pause cycles, "
                                 "promoted bytes) for the measured "
                                 "call")
    _add_cache_dir_flag(run_parser)
    run_parser.set_defaults(func=cmd_run)

    compile_parser = subparsers.add_parser(
        "compile", help="compile one method and report/dump the IR")
    compile_parser.add_argument("file")
    compile_parser.add_argument("--method", required=True)
    compile_parser.add_argument("--config", choices=list(ESCAPE_TIERS),
                                default="pea")
    compile_parser.add_argument("--dump-ir", action="store_true")
    compile_parser.add_argument("--timings", action="store_true",
                                help="print per-phase compile times "
                                     "(* = phase changed the graph)")
    compile_parser.add_argument("--dot")
    compile_parser.add_argument("--html",
                                help="write a standalone HTML/SVG "
                                     "visualization of the graph")
    compile_parser.set_defaults(func=cmd_compile)

    disasm_parser = subparsers.add_parser(
        "disasm", help="disassemble a program's bytecode")
    disasm_parser.add_argument("file")
    disasm_parser.set_defaults(func=cmd_disasm)

    analyze_parser = subparsers.add_parser(
        "analyze", help="escape-site attribution report + IR lints "
                        "(exit 0 clean / 1 findings / 2 error)")
    analyze_parser.add_argument("paths", nargs="+",
                                help="source/.jasm files or directories")
    analyze_parser.add_argument("--json", action="store_true",
                                help="machine-readable output")
    analyze_parser.set_defaults(func=cmd_analyze)

    lint_parser = subparsers.add_parser(
        "lint", help="IR lint passes only "
                     "(exit 0 clean / 1 findings / 2 error)")
    lint_parser.add_argument("paths", nargs="+",
                             help="source/.jasm files or directories")
    lint_parser.add_argument("--json", action="store_true",
                             help="machine-readable output")
    lint_parser.set_defaults(func=cmd_lint)

    fuzz_parser = subparsers.add_parser(
        "fuzz", help="coverage-guided differential fuzzing "
                     "(interpreter vs compiled backends, summaries, "
                     "codegen, deoptless)")
    fuzz_parser.add_argument("--programs", type=int, default=200)
    fuzz_parser.add_argument("--seed", type=int, default=1234)
    fuzz_parser.add_argument("--corpus-dir",
                             help="write shrunk reproducers "
                                  "(.jasm + .json) here")
    fuzz_parser.add_argument("--no-shrink", action="store_true",
                             help="skip delta-debugging of failures")
    fuzz_cache = fuzz_parser.add_mutually_exclusive_group()
    fuzz_cache.add_argument("--no-cache", dest="cache",
                            action="store_false", default=True,
                            help="do not share compiled graphs across "
                                 "the engines")
    _add_cache_dir_flag(fuzz_cache)
    fuzz_parser.set_defaults(func=cmd_fuzz)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk compilation cache")
    cache_parser.add_argument("action", choices=["stats", "clear"])
    cache_parser.add_argument("--cache-dir",
                              help="cache directory (default: "
                                   "$REPRO_CACHE_DIR or "
                                   "~/.cache/repro-pea)")
    cache_parser.set_defaults(func=cmd_cache)

    # Listed for --help only: main() hands these their argv above.
    for name in ("table1", "jitdiff"):
        subparsers.add_parser(name,
                              help=f"run the benchsuite {name} report")

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
