"""Bytecode CFG analysis: blocks, dominators, loop headers."""

import pytest

from repro.bytecode import BytecodeBuilder, JMethod, Op, Program
from repro.frontend.blocks import BlockGraph
from repro.lang import compile_source
from repro.scheduler.controlflow import dominates


def block_graph_for(source, qualified):
    program = compile_source(source)
    return BlockGraph(program.method(qualified))


def test_straight_line_is_one_block():
    bg = block_graph_for(
        "class C { static int m(int a) { return a + 1; } }", "C.m")
    reachable = [b for b in bg.blocks if b.index in bg.reachable]
    assert len(reachable) == 1


def test_if_else_produces_diamond():
    bg = block_graph_for("""
        class C { static int m(int a) {
            int r = 0;
            if (a > 0) { r = 1; } else { r = 2; }
            return r;
        } }
    """, "C.m")
    headers = [b for b in bg.blocks if b.is_loop_header]
    assert not headers
    # entry branches to two blocks that rejoin.
    entry = bg.blocks[0]
    assert len(entry.successors) == 2


def test_loop_header_detected():
    bg = block_graph_for("""
        class C { static int m(int n) {
            int s = 0;
            while (n > 0) { s = s + n; n = n - 1; }
            return s;
        } }
    """, "C.m")
    headers = [b for b in bg.blocks if b.is_loop_header]
    assert len(headers) == 1
    header = headers[0]
    assert len(header.back_edge_preds) == 1
    members = bg.loop_blocks(header.index)
    assert header.index in members
    assert len(members) >= 2


def test_nested_loops():
    bg = block_graph_for("""
        class C { static int m(int n) {
            int s = 0;
            for (int i = 0; i < n; i = i + 1) {
                for (int j = 0; j < i; j = j + 1) { s = s + 1; }
            }
            return s;
        } }
    """, "C.m")
    headers = [b for b in bg.blocks if b.is_loop_header]
    assert len(headers) == 2
    inner = max(headers, key=lambda b: b.start)
    outer = min(headers, key=lambda b: b.start)
    assert bg.loop_blocks(inner.index) < bg.loop_blocks(outer.index)


def test_two_back_edges_from_continue():
    bg = block_graph_for("""
        class C { static int m(int n) {
            int s = 0;
            int i = 0;
            while (i < n) {
                i = i + 1;
                if (i % 3 == 0) { continue; }
                s = s + i;
            }
            return s;
        } }
    """, "C.m")
    headers = [b for b in bg.blocks if b.is_loop_header]
    assert len(headers) == 1
    # continue and the regular bottom edge both re-enter the header,
    # possibly merged by codegen; at least one back edge exists.
    assert len(headers[0].back_edge_preds) >= 1


def test_dominators():
    bg = block_graph_for("""
        class C { static int m(int a) {
            if (a > 0) { a = a + 1; } else { a = a - 1; }
            return a;
        } }
    """, "C.m")
    entry = 0
    for block in bg.blocks:
        if block.index in bg.reachable:
            assert dominates(bg.idom, entry, block.index)
    succ_a, succ_b = bg.blocks[0].successors
    assert not dominates(bg.idom, succ_a, succ_b)


def test_rpo_sources_before_targets_on_forward_edges():
    bg = block_graph_for("""
        class C { static int m(int n) {
            int s = 0;
            while (n > 0) {
                if (n % 2 == 0) { s = s + 1; }
                n = n - 1;
            }
            return s;
        } }
    """, "C.m")
    order = {b: i for i, b in enumerate(bg.rpo)}
    for block in bg.blocks:
        if block.index not in bg.reachable:
            continue
        for succ in block.successors:
            if block.index in bg.blocks[succ].back_edge_preds:
                continue
            assert order[block.index] < order[succ]


def test_unreachable_code_pruned():
    program = Program()
    program.define_class("Main")
    method = JMethod("m", [], "int", is_static=True)
    builder = BytecodeBuilder()
    done = builder.new_label()
    builder.goto(done)
    builder.const(99).return_value()  # unreachable
    builder.bind(done)
    builder.const(1).return_value()
    builder.into(method, max_locals=1)
    program.lookup_class("Main").add_method(method)
    bg = BlockGraph(method)
    unreachable = [b for b in bg.blocks if b.index not in bg.reachable]
    assert unreachable
    assert all(not b.successors for b in unreachable)
