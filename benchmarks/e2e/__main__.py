"""Command line of the end-to-end benchmark.

One workload in this process (the form ``BENCHMARK.json`` names)::

    python -m benchmarks.e2e --workload W [--seed S] [--seconds T]
                             [--trace 0|1] [--out RECORD.json]

Every workload, each in a fresh subprocess, one at a time::

    python -m benchmarks.e2e run [--workload W|all] [--seed S]
                                 [--seconds T] [--repeat N] [--trace]
                                 [--json OUT]

Regression check between two ``run --json`` files::

    python -m benchmarks.e2e compare BASE.json NEW.json

Run from the repository root; the simulator is imported from ``src/``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Traces, records and temporary cache directories (git-ignored).
OUT = os.path.join(HERE, "out")
SCHEMA = 1

#: Environment knobs that would change what the simulator does: the
#: always-on IR verifier and the frontend memo switch.
SCRUBBED_ENV = ("REPRO_VERIFY_IR", "REPRO_NO_SOURCE_MEMO")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    return {"schema": SCHEMA, "command": sys.argv,
            "git_revision": git_revision(),
            "python": platform.python_version(),
            "nproc": os.cpu_count()}


def fail(message: str) -> None:
    print(f"benchmarks.e2e: {message}", file=sys.stderr)
    sys.exit(2)


def import_simulator():
    """Put ``src/`` first on the path and import the workloads."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail(f"no simulator sources at {SRC}; run from a full checkout")
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        fail(f"imported repro from {repro.__file__}, not from {SRC}")
    from . import workloads
    return workloads


def format_value(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_record(record: dict) -> None:
    samples = record["samples"]
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"seconds={record['seconds']}  trace={int(record['trace'])}  "
          f"passes={samples['passes']}  ops={samples['ops']}  "
          f"inputs={samples['inputs']}")
    for name, metric in record["metrics"].items():
        note = ""
        if name.startswith("op_ms"):
            note = f"  (n={samples['ops']})"
        elif name in ("pass_s", "compile_s"):
            note = f"  (median of {samples['passes']} passes)"
        print(f"  {name:30s} {format_value(metric['value']):>14s} "
              f"{metric['unit']}{note}")
    if record["trace"]:
        print("  -- layers (self_s over the window) --")
        for name, metric in record["per_layer"].items():
            print(f"  {name:30s} {format_value(metric['value']):>14s} "
                  f"{metric['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def single(argv) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="RECORD.json",
                        help="also write the full run record here")
    args = parser.parse_args(argv)
    workloads = import_simulator()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    trace_path = None
    if args.trace:
        trace_path = os.path.join(OUT, f"trace-{args.workload}.json")
    record = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), OUT, trace_path)
    record["stamp"] = stamp()
    print(f"stamp: {json.dumps(record['stamp'])}")
    print_record(record)
    if trace_path is not None:
        print(f"trace written to {trace_path}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    section = "per_layer" if args.trace else "end_to_end"
    source = record["per_layer"] if args.trace else record["metrics"]
    missing = [m["name"] for m in spec[section] if m["name"] not in source]
    if missing:
        fail(f"{args.workload} does not define {', '.join(missing)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: source[m["name"]] for m in spec[section]},
    }))
    return 0


def run_all(argv) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e run")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="runs per workload, each in its own process")
    parser.add_argument("--trace", action="store_true",
                        help="record per-layer spans instead of the "
                             "end-to-end metrics")
    parser.add_argument("--json", metavar="OUT",
                        help="write every run record here (input of "
                             "compare)")
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            fail(f"unknown workload {args.workload!r}")
        names = [args.workload]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    os.makedirs(OUT, exist_ok=True)
    records = []
    for name in names:
        for _ in range(args.repeat):
            with tempfile.NamedTemporaryFile(
                    dir=OUT, suffix=".json", delete=False) as handle:
                out = handle.name
            try:
                command = [sys.executable, "-m", "benchmarks.e2e",
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", "1" if args.trace else "0",
                           "--out", out]
                completed = subprocess.run(command, cwd=ROOT, env=env,
                                           stdout=subprocess.PIPE,
                                           text=True)
                if completed.returncode != 0:
                    fail(f"{name} exited with {completed.returncode}")
                with open(out) as handle:
                    record = json.load(handle)
            finally:
                os.unlink(out)
            print_record(record)
            records.append(record)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"stamp": stamp(), "runs": records}, handle,
                      indent=1, sort_keys=True)
    return 0 if all(r["correct"] for r in records) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["run"]:
        return run_all(argv[1:])
    if argv[:1] == ["compare"]:
        from .compare import main as compare_main
        return compare_main(argv[1:], load_spec())
    return single(argv)


if __name__ == "__main__":
    sys.exit(main())
