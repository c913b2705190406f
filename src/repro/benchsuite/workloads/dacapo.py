"""DaCapo 9.12-bach analogs (Table 1, upper block).

Seven benchmarks with significant changes plus the seven
no-significant-change benchmarks that enter the "average" row.
"""

from __future__ import annotations

from .base import (BUILDER_PATTERN, CACHE_PATTERN, DISPATCH_PATTERN, PaperRow,
                   TUPLE_PATTERN, VECTOR_PATTERN, Workload)

FOP = Workload(
    name="fop",
    suite="dacapo",
    description=("XSL-FO formatter analog: layout tokens are short-lived "
                 "(scalar-replaceable, some under locks); the formatted "
                 "output buffers escape and dominate allocated bytes."),
    paper=PaperRow(-3.5, -5.6, +14.4),
    iteration_size=50,
    source=BUILDER_PATTERN + """
class LayoutLock { int owner; }
class FontMetrics {
    // A kerning/advance table evaluation: big enough that the inliner
    // refuses it, but it only *reads* its token -- interprocedural
    // escape summaries prove the parameter non-escaping, so the
    // caller's virtual token survives the call.
    static int advance(Token t) {
        int acc = t.kind * 3 + t.value;
        acc = acc + (t.kind + 1) * (t.value + 7);
        acc = acc + (t.kind * 11 + (t.value & 63));
        acc = acc + ((t.value >> 2) + t.kind * 5);
        acc = acc + (t.kind + t.value) * 3;
        acc = acc + ((t.value & 15) * 9 + t.kind);
        acc = acc + ((t.kind & 3) * 21 + (t.value >> 4));
        acc = acc + (t.value * 2 + t.kind * 13);
        acc = acc + ((t.value >> 1) & 127) + t.kind * 17;
        acc = acc + (t.kind * 29 + (t.value & 31));
        return acc & 65535;
    }
}
class Bench {
    static Buffer page;
    static LayoutLock lock;
    static int iterate(int size) {
        page = new Buffer(size * 4);
        lock = new LayoutLock();
        int check = 0;
        for (int i = 0; i < size; i = i + 1) {
            // Escaping output lines: one buffer per paragraph.
            Buffer line = new Buffer(24);
            for (int j = 0; j < 6; j = j + 1) {
                check = check + Building.emit(line, i * 6 + j);
            }
            page.push(line.checksum());
            // Measurement token; the page-level lock is real (the
            // LayoutLock escapes), only the token is scalar-replaced.
            Token measure = new Token(i & 3, i);
            check = check + FontMetrics.advance(measure);
            synchronized (lock) {
                check = check + measure.weight();
            }
        }
        return check + page.checksum();
    }
}
""")

H2 = Workload(
    name="h2",
    suite="dacapo",
    description=("In-memory database analog: Listing 4 cache-key lookups "
                 "(partial escape) in front of row storage that escapes "
                 "into the table."),
    paper=PaperRow(-5.2, -5.9, +2.9),
    iteration_size=60,
    source=CACHE_PATTERN + """
class Row {
    int key; int a; int b;
    Row(int key, int a, int b) { this.key = key; this.a = a; this.b = b; }
}
class Table {
    Row[] rows;
    int used;
    Table(int capacity) { this.rows = new Row[capacity]; this.used = 0; }
    void insert(Row row) {
        if (used < rows.length) { rows[used] = row; used = used + 1; }
    }
}
class Bench {
    static int iterate(int size) {
        Table table = new Table(size);
        int check = 0;
        for (int i = 0; i < size; i = i + 1) {
            // Query plan cache: runs of repeated keys hit the cache.
            check = check + KeyCache.getValue((i / 6) % 8);
            // The row itself escapes into the table.
            Row row = new Row(i, i * 3, i * 5);
            table.insert(row);
            check = check + row.a;
        }
        return check;
    }
}
""")

def _jython_route_table(arms: int) -> str:
    """A CPython/Jython-style opcode table: one boxed operand flows into
    every arm and escapes there (pushed onto the operand stack).  Under
    PEA the box is materialized *per arm*, so the compiled dispatch
    method grows by roughly one allocation sequence per opcode — the
    code-size effect behind the paper's jython slowdown."""
    lines = ["class Router {",
             "    static int route(OpStack stack, int op, int v) {",
             "        Operand box = new Operand(v);",
             "        box.tag = v & 15;",
             "        box.aux = v >> 4;",
             "        box.width = (v & 3) + 1;"]
    for arm in range(arms):
        mul = (arm % 7) + 1
        add = (arm * 3) % 17
        mask = (1 << ((arm % 6) + 3)) - 1
        lines.append(
            f"        if (op == {arm}) {{ "
            f"box.value = v * {mul} + {add}; stack.push(box); "
            f"return box.value & {mask}; }}")
    lines.append("        return box.value - 1;")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


JYTHON = Workload(
    name="jython",
    suite="dacapo",
    description=("Interpreter-dispatch analog: one boxed operand flows "
                 "into a many-armed dispatch where each arm escapes it "
                 "into the operand stack — PEA must materialize the box "
                 "per arm, duplicating allocation code.  The compiled "
                 "method grows past the i-cache capacity, reproducing "
                 "the paper's code-size-induced slowdown (-2.1%)."),
    paper=PaperRow(-8.3, -15.2, -2.1),
    iteration_size=40,
    source=DISPATCH_PATTERN + _jython_route_table(30) + """
class Bench {
    static int run(OpStack stack, int i) {
        int check = 0;
        check = check + Dispatch.step(stack, 0, i);
        check = check + Dispatch.step(stack, 1, 0);
        for (int k = 0; k < 9; k = k + 1) {
            check = check + Router.route(stack, (i * 7 + k * 13) % 31,
                                         i + k);
        }
        check = check + Dispatch.step(stack, 2, 3);
        // A scalar-replaceable scratch box (interpreter frame local).
        Operand frame = new Operand(i * 17 + 3);
        check = check + (frame.value & 255);
        Operand top = stack.pop();
        return check + top.value;
    }
    static int iterate(int size) {
        OpStack stack = new OpStack(512);
        int check = 0;
        for (int i = 0; i < size; i = i + 1) {
            check = check + run(stack, i);
            check = check + run(stack, i * 7 + 1);
            check = check + run(stack, i * 13 + 5);
        }
        return check;
    }
}
""")

SUNFLOW = Workload(
    name="sunflow",
    suite="dacapo",
    description=("Raytracer analog: per-sample Vec3 temporaries are "
                 "fully scalar-replaceable; the framebuffer rows escape."),
    paper=PaperRow(-25.7, -30.6, +1.6),
    iteration_size=50,
    source=VECTOR_PATTERN + """
class Framebuffer {
    int[] pixels;
    Framebuffer(int n) { this.pixels = new int[n]; }
}
class ToneMap {
    // Tone-mapping curve over one color vector: too large to inline,
    // reads its argument only -- a summarized non-escaping callee.
    static int curve(Vec3 v) {
        int acc = v.x * 2 + v.y * 3 + v.z * 5;
        acc = acc + (v.x + 1) * (v.y + 2);
        acc = acc + (v.y + 3) * (v.z + 4);
        acc = acc + (v.z + 5) * (v.x + 6);
        acc = acc + ((v.x >> 1) & 255) + ((v.y >> 2) & 127);
        acc = acc + ((v.z >> 3) & 63) + (v.x & 31);
        acc = acc + (v.y & 15) * 7 + (v.z & 7) * 11;
        acc = acc + (v.x + v.y + v.z) * 13;
        acc = acc + (v.x * 4 + v.y * 9 + v.z * 25);
        return acc & 65535;
    }
}
class Bench {
    static int iterate(int size) {
        Framebuffer fb = new Framebuffer(size);
        int check = 0;
        for (int i = 0; i < size; i = i + 1) {
            int color = 0;
            for (int s = 0; s < 4; s = s + 1) {
                color = color + VecMath.shade(i * 4 + s);
            }
            Vec3 px = new Vec3(color & 255, i + 1, color >> 8);
            check = check + ToneMap.curve(px);
            fb.pixels[i] = color;
            check = check + color;
        }
        return check + fb.pixels[size / 2];
    }
}
""")

TOMCAT = Workload(
    name="tomcat",
    suite="dacapo",
    description=("Servlet-container analog: requests escape into the "
                 "session log; per-request header cursors are temporary "
                 "and their synchronization is elided (the paper's 4% "
                 "monitor reduction)."),
    paper=PaperRow(-0.8, -2.4, +4.4),
    iteration_size=50,
    source="""
class Request {
    int route; int length;
    Request(int route, int length) { this.route = route; this.length = length; }
}
class Session {
    Request[] log;
    int used;
    Session(int n) { this.log = new Request[n]; this.used = 0; }
    synchronized void record(Request r) {
        if (used < log.length) { log[used] = r; used = used + 1; }
    }
}
class HeaderCursor {
    int position;
    synchronized int consume(int raw) {
        position = position + 1;
        return (raw >> (position & 7)) & 255;
    }
}
class Bench {
    static Session active;
    static int iterate(int size) {
        Session session = new Session(size);
        active = session;
        int check = 0;
        for (int i = 0; i < size; i = i + 1) {
            Request req = new Request(i & 15, i * 11);
            session.record(req);
            if (i % 48 == 0) {
                // A temporary parse cursor; its locks are elided -- the
                // paper's ~4% monitor reduction on tomcat.
                HeaderCursor cursor = new HeaderCursor();
                check = check + cursor.consume(req.length);
                check = check + cursor.consume(req.route);
            }
        }
        return check;
    }
}
""")

TRADEBEANS = Workload(
    name="tradebeans",
    suite="dacapo",
    description=("Bean-heavy trading analog: quote value-objects are "
                 "temporary; executed trades escape into the book."),
    paper=PaperRow(-7.8, -11.1, +6.4),
    iteration_size=50,
    source=TUPLE_PATTERN + """
class Quote {
    int symbol; int bid; int ask;
    Quote(int symbol, int bid, int ask) {
        this.symbol = symbol; this.bid = bid; this.ask = ask;
    }
    int spread() { return ask - bid; }
}
class Book {
    int[] positions;
    Book(int n) { this.positions = new int[n]; }
}
class Bench {
    static Quote flagged;
    static int quotes;
    static int iterate(int size) {
        Book book = new Book(64);
        int check = 0;
        for (int i = 0; i < size; i = i + 1) {
            Quote quote = new Quote(i & 63, i * 3 + 1, i * 3 + 4);
            check = check + quote.spread();
            Pair qr = Tuples.divMod(i * 17 + 3, 7);
            check = check + qr.first + qr.second;
            if (quote.spread() > 2) {
                book.positions[quote.symbol] =
                    book.positions[quote.symbol] + quote.bid;
            }
            // Compliance sampling keeps one quote in 64 (after its last
            // use): a partial escape that defeats flow-insensitive EA.
            quotes = quotes + 1;
            if ((quotes & 63) == 21) { flagged = quote; }
        }
        return check + book.positions[3];
    }
}
""")

XALAN = Workload(
    name="xalan",
    suite="dacapo",
    description=("XSLT analog: output DOM nodes escape into the result "
                 "tree; only the occasional traversal cursor is "
                 "temporary."),
    paper=PaperRow(-1.4, -2.2, +1.9),
    iteration_size=50,
    source="""
class DomNode {
    int tag; int text; DomNode sibling;
    DomNode(int tag, int text) { this.tag = tag; this.text = text; }
}
class ResultTree {
    DomNode head;
    int count;
    void append(DomNode n) {
        n.sibling = head;
        head = n;
        count = count + 1;
    }
}
class Walker {
    DomNode current;
    Walker(DomNode start) { this.current = start; }
    int walk() {
        int sum = 0;
        int hops = 0;
        while (current != null && hops < 8) {
            sum = sum + current.text;
            current = current.sibling;
            hops = hops + 1;
        }
        return sum;
    }
}
class Bench {
    static Walker parkedWalker;
    static int walks;
    static int iterate(int size) {
        ResultTree tree = new ResultTree();
        int check = 0;
        for (int i = 0; i < size; i = i + 1) {
            DomNode node = new DomNode(i & 7, i * 13);
            tree.append(node);
            if (i % 8 == 0) {
                Walker w = new Walker(tree.head);
                check = check + w.walk();
                // Every 8th traversal parks its walker for resumption:
                // a partial escape that defeats flow-insensitive EA.
                walks = walks + 1;
                if ((walks & 7) == 3) { parkedWalker = w; }
            }
        }
        return check + tree.count;
    }
}
""")


def _quiet_workload(name: str, salt: int) -> Workload:
    """One of the DaCapo benchmarks without significant changes: all
    allocations escape into a result structure, so the analyses find
    nothing.  They still enter the suite average like in the paper."""
    return Workload(
        name=name,
        suite="dacapo",
        description=("No-significant-change analog: every allocation "
                     "escapes into the retained result list."),
        paper=PaperRow(0.0, 0.0, 0.0),
        iteration_size=40,
        source=f"""
class Item {{
    int a; int b;
    Item(int a, int b) {{ this.a = a; this.b = b; }}
}}
class Keep {{
    Item[] items;
    int used;
    Keep(int n) {{ this.items = new Item[n]; this.used = 0; }}
    void add(Item it) {{
        if (used < items.length) {{ items[used] = it; used = used + 1; }}
    }}
}}
class Bench {{
    static Keep retained;
    static int iterate(int size) {{
        Keep keep = new Keep(size);
        retained = keep;
        int check = {salt};
        for (int i = 0; i < size; i = i + 1) {{
            Item it = new Item(i * {salt % 7 + 2}, i + {salt});
            keep.add(it);
            check = check + it.a - it.b;
        }}
        return check + keep.used;
    }}
}}
""")


QUIET_DACAPO = [
    _quiet_workload("avrora", 3),
    _quiet_workload("batik", 5),
    _quiet_workload("eclipse", 7),
    _quiet_workload("luindex", 11),
    _quiet_workload("lusearch", 13),
    _quiet_workload("pmd", 17),
    _quiet_workload("tradesoap", 19),
]

DACAPO = [FOP, H2, JYTHON, SUNFLOW, TOMCAT, TRADEBEANS, XALAN] \
    + QUIET_DACAPO

#: The rows shown in Table 1 (significant changes only).
DACAPO_SHOWN = [FOP, H2, JYTHON, SUNFLOW, TOMCAT, TRADEBEANS, XALAN]
