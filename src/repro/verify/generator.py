"""Random MJ program generator for differential testing and fuzzing.

Generates well-typed, terminating programs that exercise exactly the
constructs Partial Escape Analysis cares about: allocations, field
stores/loads, linked virtual objects, conditional escapes into globals,
loops with phis over (potentially virtual) objects, constant-length
arrays, synchronized blocks, reference equality, calls (inlining
fodder), and branches on "magic" argument values that stay cold during
warm-up — so speculation kicks in and probe calls force
deoptimization + rematerialization.  Programs are guaranteed free of
traps: divisions are guarded by construction, array indices are masked,
object-typed locals are always initialized, loops are counted.

Two layers:

- :class:`ProgramGenerator` draws integers from an abstract source
  (``rand_int(lo, hi)``), so the same generator runs under hypothesis
  (property tests) and under a plain seeded ``random.Random`` (the
  ``repro fuzz`` CLI).
- The output is a :class:`GeneratedProgram` — a *structured* statement
  tree, not a string — so the shrinker
  (:mod:`repro.verify.shrink`) can delta-debug statements and blocks
  and re-render minimal source.
"""

from __future__ import annotations

from typing import Callable, List, Optional

#: Values the fuzz harness probes with after warm-up; conditions
#: comparing a parameter against one of these stay cold while warming
#: and then fire, exercising deoptimization with rematerialization.
MAGIC_VALUES = (31337, 90001, -4242, 55555)


class Stmt:
    """One generated statement: a leaf (opaque text, possibly several
    lines) or a compound (``if``/``loop``/``sync``) with shrinkable
    sub-statement lists."""

    __slots__ = ("kind", "text", "header", "body", "orelse")

    def __init__(self, kind: str = "leaf", text: str = "",
                 header: str = "", body: Optional[List["Stmt"]] = None,
                 orelse: Optional[List["Stmt"]] = None):
        self.kind = kind
        self.text = text
        self.header = header
        self.body = body
        self.orelse = orelse

    @classmethod
    def leaf(cls, text: str) -> "Stmt":
        return cls("leaf", text=text)

    @classmethod
    def compound(cls, header: str, body: List["Stmt"],
                 orelse: Optional[List["Stmt"]] = None) -> "Stmt":
        return cls("compound", header=header, body=body, orelse=orelse)

    def render(self) -> str:
        if self.kind == "leaf":
            return self.text
        text = (f"{self.header} "
                f"{{ {render_statements(self.body)} }}")
        if self.orelse is not None:
            text += f" else {{ {render_statements(self.orelse)} }}"
        return text

    def copy(self) -> "Stmt":
        return Stmt(self.kind, self.text, self.header,
                    [s.copy() for s in self.body]
                    if self.body is not None else None,
                    [s.copy() for s in self.orelse]
                    if self.orelse is not None else None)

    def statement_count(self) -> int:
        count = 1
        for sub in (self.body or []) + (self.orelse or []):
            count += sub.statement_count()
        return count

    def __repr__(self):
        return f"<Stmt {self.render()[:60]!r}>"


def render_statements(statements: List[Stmt]) -> str:
    return " ".join(s.render() for s in statements) or ";"


class GeneratedProgram:
    """The structured output of one generator run: per-method statement
    lists over a fixed program skeleton."""

    METHOD_ORDER = ("h2", "h1", "entry")

    def __init__(self, bodies):
        #: method name -> list of Stmt (after the fixed prologue).
        self.bodies = bodies

    def copy(self) -> "GeneratedProgram":
        return GeneratedProgram({
            name: [s.copy() for s in stmts]
            for name, stmts in self.bodies.items()})

    def statement_count(self) -> int:
        return sum(s.statement_count()
                   for stmts in self.bodies.values() for s in stmts)

    def source(self) -> str:
        rendered = {}
        for name in self.METHOD_ORDER:
            prologue = [
                "int x0 = a;",
                "int x1 = b;",
                "int x2 = a - b;",
                "Data d0 = new Data();",
                "Data d1 = new Data();",
            ]
            epilogue = ["return x0 + x1 * 3 + x2 + d0.f0 + d0.f1 "
                        "+ d1.f0 + d1.f1;"]
            lines = prologue + [s.render() for s in
                                self.bodies.get(name, [])] + epilogue
            rendered[name] = "\n                ".join(lines)
        return f"""
            class Data {{ int f0; int f1; Data link; }}
            class Main {{
                static Data g0;
                static int gi;
                static int probe(Data t, int k) {{
                    int acc = t.f0 * 3 + t.f1;
                    acc = acc + (t.f0 + 1) * (t.f1 + 7);
                    acc = acc + (t.f0 & 63) * 9 + (t.f1 & 31);
                    acc = acc + (t.f0 + t.f1) * 13;
                    acc = acc + (t.f0 * 2 + t.f1 * 17);
                    acc = acc + (t.f0 & 127) + t.f1 * 29;
                    acc = acc + (t.f0 * 5 + (t.f1 & 15));
                    acc = acc + ((t.f0 & 3) * 21 + (t.f1 & 7));
                    acc = acc + (t.f0 * 23 + t.f1 * 7);
                    acc = acc + ((t.f1 & 255) + t.f0 * 11);
                    return (acc + k) & 65535;
                }}
                static int h2(int a, int b) {{
                    {rendered['h2']}
                }}
                static int h1(int a, int b) {{
                    {rendered['h1']}
                }}
                static int entry(int a, int b) {{
                    {rendered['entry']}
                }}
            }}
        """


class ProgramGenerator:
    """Drives an integer source to produce one program."""

    INT_LOCALS = 3
    OBJ_LOCALS = 2

    def __init__(self, rand_int: Callable[[int, int], int]):
        #: rand_int(lo, hi) -> int in [lo, hi] (inclusive).
        self.rand_int = rand_int
        self._fresh = 0

    @classmethod
    def from_hypothesis(cls, draw) -> "ProgramGenerator":
        """Adapter for a hypothesis ``data.draw`` function."""
        import hypothesis.strategies as st

        def rand_int(lo, hi):
            return draw(st.integers(min_value=lo, max_value=hi))

        return cls(rand_int)

    # -- drawing helpers --------------------------------------------------

    def _int(self, lo, hi):
        return self.rand_int(lo, hi)

    def _choice(self, options):
        return options[self._int(0, len(options) - 1)]

    def fresh_name(self, prefix):
        self._fresh += 1
        return f"{prefix}{self._fresh}"

    # -- expressions ---------------------------------------------------------

    def int_expr(self, depth=0) -> str:
        kinds = ["literal", "local", "field"]
        if depth < 2:
            kinds += ["binary", "binary", "div"]
        kind = self._choice(kinds)
        if kind == "literal":
            return str(self._int(-16, 16))
        if kind == "local":
            return f"x{self._int(0, self.INT_LOCALS - 1)}"
        if kind == "field":
            return (f"d{self._int(0, self.OBJ_LOCALS - 1)}"
                    f".f{self._int(0, 1)}")
        if kind == "div":
            return (f"({self.int_expr(depth + 1)} / "
                    f"(({self.int_expr(depth + 1)} & 7) + 1))")
        op = self._choice(["+", "-", "*", "&", "|", "^"])
        return (f"({self.int_expr(depth + 1)} {op} "
                f"{self.int_expr(depth + 1)})")

    def condition(self) -> str:
        kind = self._choice(["cmp", "cmp", "refeq", "null", "global",
                             "magic"])
        if kind == "cmp":
            op = self._choice(["<", "<=", ">", ">=", "==", "!="])
            return f"{self.int_expr(1)} {op} {self.int_expr(1)}"
        if kind == "refeq":
            a = self._int(0, self.OBJ_LOCALS - 1)
            b = self._int(0, self.OBJ_LOCALS - 1)
            return f"d{a} == d{b}"
        if kind == "null":
            return f"d{self._int(0, self.OBJ_LOCALS - 1)}.link == null"
        if kind == "magic":
            return self.magic_condition()
        return "g0 != null"

    def magic_condition(self) -> str:
        """A condition on a raw parameter that stays cold during
        warm-up (small arguments) and fires on probe calls."""
        param = self._choice(["a", "b"])
        return f"{param} == {self._choice(list(MAGIC_VALUES))}"

    # -- statements -------------------------------------------------------------

    def statements(self, budget: int, depth: int,
                   callable_helpers: List[str]) -> List[Stmt]:
        result: List[Stmt] = []
        while budget > 0:
            kind = self._choice(
                ["assign_int", "assign_int", "store_field", "store_field",
                 "load_field", "rebind", "link", "escape", "global_int",
                 "read_global", "if", "loop", "sync", "call",
                 "branch_escape", "branch_escape", "loop_virtual",
                 "array_mix", "sync_escape", "deopt_window",
                 "hot_loop", "borrow_call", "codegen_mix",
                 "phase_flip"])
            if kind in ("if", "loop", "sync", "branch_escape",
                        "loop_virtual", "sync_escape", "deopt_window",
                        "hot_loop", "codegen_mix",
                        "phase_flip") and depth >= 2:
                kind = "assign_int"
            if kind == "call" and not callable_helpers:
                kind = "store_field"

            if kind == "assign_int":
                result.append(Stmt.leaf(
                    f"x{self._int(0, self.INT_LOCALS - 1)} = "
                    f"{self.int_expr()};"))
                budget -= 1
            elif kind == "store_field":
                result.append(Stmt.leaf(
                    f"d{self._int(0, self.OBJ_LOCALS - 1)}"
                    f".f{self._int(0, 1)} = {self.int_expr(1)};"))
                budget -= 1
            elif kind == "load_field":
                result.append(Stmt.leaf(
                    f"x{self._int(0, self.INT_LOCALS - 1)} = "
                    f"d{self._int(0, self.OBJ_LOCALS - 1)}"
                    f".f{self._int(0, 1)};"))
                budget -= 1
            elif kind == "rebind":
                result.append(Stmt.leaf(
                    f"d{self._int(0, self.OBJ_LOCALS - 1)} = "
                    f"new Data();"))
                budget -= 1
            elif kind == "link":
                target = self._choice(
                    [f"d{self._int(0, self.OBJ_LOCALS - 1)}", "null"])
                result.append(Stmt.leaf(
                    f"d{self._int(0, self.OBJ_LOCALS - 1)}.link = "
                    f"{target};"))
                budget -= 1
            elif kind == "escape":
                result.append(Stmt.leaf(
                    f"g0 = d{self._int(0, self.OBJ_LOCALS - 1)};"))
                budget -= 1
            elif kind == "global_int":
                result.append(Stmt.leaf(f"gi = {self.int_expr(1)};"))
                budget -= 1
            elif kind == "read_global":
                result.append(Stmt.leaf(
                    "if (g0 != null) { "
                    f"x{self._int(0, self.INT_LOCALS - 1)} = g0.f0; }}"))
                budget -= 1
            elif kind == "if":
                then_body = self.statements(self._int(1, 3), depth + 1,
                                            callable_helpers)
                else_body = (self.statements(self._int(1, 2), depth + 1,
                                             callable_helpers)
                             if self._int(0, 1) else None)
                result.append(Stmt.compound(
                    f"if ({self.condition()})", then_body, else_body))
                budget -= 2
            elif kind == "loop":
                var = self.fresh_name("i")
                body = self.statements(self._int(1, 3), depth + 1,
                                       callable_helpers)
                bound = self._int(1, 5)
                result.append(Stmt.compound(
                    f"for (int {var} = 0; {var} < {bound}; "
                    f"{var} = {var} + 1)", body))
                budget -= 3
            elif kind == "sync":
                body = self.statements(self._int(1, 2), depth + 1,
                                       callable_helpers)
                result.append(Stmt.compound(
                    f"synchronized "
                    f"(d{self._int(0, self.OBJ_LOCALS - 1)})", body))
                budget -= 2
            elif kind == "call":
                helper = self._choice(callable_helpers)
                result.append(Stmt.leaf(
                    f"x{self._int(0, self.INT_LOCALS - 1)} = {helper}("
                    f"{self.int_expr(1)}, {self.int_expr(1)});"))
                budget -= 1
            elif kind == "branch_escape":
                # The paper's core shape: allocation escaping on one
                # branch only, fields read afterwards.
                var = self.fresh_name("t")
                xd = self._int(0, self.INT_LOCALS - 1)
                result.append(Stmt.leaf(
                    f"Data {var} = new Data(); "
                    f"{var}.f0 = {self.int_expr(1)}; "
                    f"if ({self.condition()}) {{ g0 = {var}; }} "
                    f"x{xd} = {var}.f0 + {var}.f1;"))
                budget -= 2
            elif kind == "loop_virtual":
                # A loop-carried object: phis over (virtual) objects,
                # with an optional rare escape inside the loop.
                var = self.fresh_name("t")
                ivar = self.fresh_name("i")
                bound = self._int(2, 6)
                escape = (f"if ({self.magic_condition()}) "
                          f"{{ g0 = {var}; }} "
                          if self._int(0, 1) else "")
                rebind = (f"{var} = new Data(); "
                          if self._int(0, 1) else "")
                result.append(Stmt.leaf(
                    f"Data {var} = new Data(); "
                    f"for (int {ivar} = 0; {ivar} < {bound}; "
                    f"{ivar} = {ivar} + 1) {{ "
                    f"{var}.f0 = {var}.f0 + {ivar}; {escape}{rebind}}} "
                    f"x{self._int(0, self.INT_LOCALS - 1)} = "
                    f"{var}.f0;"))
                budget -= 3
            elif kind == "array_mix":
                # Constant-length array: virtualizable, masked indices.
                var = self.fresh_name("r")
                length = self._choice([2, 4, 8])
                mask = length - 1
                result.append(Stmt.leaf(
                    f"int[] {var} = new int[{length}]; "
                    f"{var}[({self.int_expr(1)}) & {mask}] = "
                    f"{self.int_expr(1)}; "
                    f"x{self._int(0, self.INT_LOCALS - 1)} = "
                    f"{var}[({self.int_expr(1)}) & {mask}] + "
                    f"{var}.length;"))
                budget -= 2
            elif kind == "sync_escape":
                # Lock elision candidate that sometimes escapes while
                # the monitor is held (lock_count > 0 at the escape).
                var = self.fresh_name("t")
                result.append(Stmt.leaf(
                    f"Data {var} = new Data(); "
                    f"synchronized ({var}) {{ "
                    f"{var}.f1 = {self.int_expr(1)}; "
                    f"if ({self.condition()}) {{ g0 = {var}; }} }} "
                    f"x{self._int(0, self.INT_LOCALS - 1)} = "
                    f"{var}.f1;"))
                budget -= 2
            elif kind == "hot_loop":
                # Hot loop in a cold method: the trip count sits above
                # the fuzz VMs' osr_threshold while the enclosing
                # method's invocation count is still below the compile
                # threshold, so the loop tiers up through on-stack
                # replacement mid-call.  A loop-carried (virtual)
                # object plus a magic-guarded escape exercise
                # deoptimization with rematerialization from inside the
                # OSR'd loop body.
                var = self.fresh_name("t")
                ivar = self.fresh_name("i")
                bound = self._int(40, 80)
                escape = (f"if ({self.magic_condition()}) "
                          f"{{ g0 = {var}; gi = gi + {ivar}; }} "
                          if self._int(0, 1) else "")
                result.append(Stmt.leaf(
                    f"Data {var} = new Data(); "
                    f"for (int {ivar} = 0; {ivar} < {bound}; "
                    f"{ivar} = {ivar} + 1) {{ "
                    f"{var}.f0 = {var}.f0 + {ivar}; "
                    f"{var}.f1 = {var}.f1 ^ "
                    f"x{self._int(0, self.INT_LOCALS - 1)}; "
                    f"{escape}}} "
                    f"x{self._int(0, self.INT_LOCALS - 1)} = "
                    f"{var}.f0 + {var}.f1;"))
                budget -= 3
            elif kind == "borrow_call":
                # A fresh object passed to Main.probe — a helper too
                # big to inline that only *reads* its parameter.
                # Without interprocedural summaries the call
                # materializes the object; with ``escape_summaries``
                # it stays virtual (the fuzz oracle checks the two
                # configurations behave identically, allocations
                # apart).
                var = self.fresh_name("t")
                x = self._int(0, self.INT_LOCALS - 1)
                result.append(Stmt.leaf(
                    f"Data {var} = new Data(); "
                    f"{var}.f0 = {self.int_expr(1)}; "
                    f"x{x} = x{x} + probe({var}, {self.int_expr(1)}); "
                    f"x{self._int(0, self.INT_LOCALS - 1)} = "
                    f"{var}.f0 + {var}.f1;"))
                budget -= 2
            elif kind == "codegen_mix":
                # The codegen backend's hardest shape: a nested loop
                # carrying a *cyclically linked* pair of virtual
                # objects, with a magic-guarded escape (deopt site)
                # inside the inner loop body.  The structurizer must
                # express the multi-level control flow, and a probe
                # call deoptimizing mid-loop forces the Deoptimizer to
                # rematerialize the two-node cycle from generated
                # code's frame locals.
                t = self.fresh_name("t")
                u = self.fresh_name("u")
                ivar = self.fresh_name("i")
                jvar = self.fresh_name("j")
                outer = self._int(2, 4)
                inner = self._int(2, 5)
                result.append(Stmt.leaf(
                    f"Data {t} = new Data(); Data {u} = new Data(); "
                    f"{t}.link = {u}; {u}.link = {t}; "
                    f"{u}.f0 = {self.int_expr(1)}; "
                    f"for (int {ivar} = 0; {ivar} < {outer}; "
                    f"{ivar} = {ivar} + 1) {{ "
                    f"for (int {jvar} = 0; {jvar} < {inner}; "
                    f"{jvar} = {jvar} + 1) {{ "
                    f"{t}.f0 = {t}.f0 + {u}.f0 + {jvar}; "
                    f"if ({self.magic_condition()}) "
                    f"{{ g0 = {t}; gi = gi + {ivar}; }} }} "
                    f"{u}.f1 = {u}.f1 ^ {ivar}; }} "
                    f"x{self._int(0, self.INT_LOCALS - 1)} = "
                    f"{t}.f0 + {u}.f1;"))
                budget -= 4
            elif kind == "phase_flip":
                # Deoptless's target shape: speculation trained one
                # way during warm-up, then flipped *inside a hot
                # loop*.  ``flip`` is 0 on every warm call, so the
                # in-loop branch trains never-taken and compiles to a
                # guard; a magic probe sets ``flip`` before the loop
                # and the guard fails mid-loop on the first
                # iteration.  With ``config.deoptless`` this
                # exercises both dispatch paths differentially: the
                # magic branch (before the loop) is
                # continuation-eligible, while the in-loop guard's
                # entry would be a backedge into an unmaterialized
                # loop header, so it must degrade to a plain deopt.
                var = self.fresh_name("t")
                fvar = self.fresh_name("p")
                ivar = self.fresh_name("i")
                bound = self._int(40, 80)
                escape = (f"if ({fvar} == 1) {{ g0 = {var}; }} "
                          if self._int(0, 1) else "")
                result.append(Stmt.leaf(
                    f"Data {var} = new Data(); int {fvar} = 0; "
                    f"if ({self.magic_condition()}) {{ {fvar} = 1; }} "
                    f"for (int {ivar} = 0; {ivar} < {bound}; "
                    f"{ivar} = {ivar} + 1) {{ "
                    f"if ({fvar} == 1) {{ "
                    f"{var}.f1 = {var}.f1 + {ivar} * 3; }} "
                    f"else {{ {var}.f0 = {var}.f0 + {ivar}; }} }} "
                    f"{escape}"
                    f"x{self._int(0, self.INT_LOCALS - 1)} = "
                    f"{var}.f0 + {var}.f1;"))
                budget -= 3
            elif kind == "deopt_window":
                # A cold branch that allocates, links and escapes: when
                # a probe call finally takes it, the deoptimizer must
                # rematerialize the (possibly nested) virtual state.
                var = self.fresh_name("t")
                d = self._int(0, self.OBJ_LOCALS - 1)
                result.append(Stmt.leaf(
                    f"if ({self.magic_condition()}) {{ "
                    f"Data {var} = new Data(); "
                    f"{var}.f0 = {self.int_expr(1)}; "
                    f"{var}.link = d{d}; g0 = {var}; "
                    f"x{self._int(0, self.INT_LOCALS - 1)} = "
                    f"{var}.f0 + d{d}.f1; }}"))
                budget -= 2
        return result

    # -- whole programs ---------------------------------------------------------

    def generate_program(self) -> GeneratedProgram:
        bodies = {
            "h2": self.statements(self._int(2, 5), 0, []),
            "h1": self.statements(self._int(2, 6), 0, ["h2"]),
            "entry": self.statements(self._int(4, 10), 0, ["h1", "h2"]),
        }
        return GeneratedProgram(bodies)
