"""Unit tests for the tracer: token streams, logical threads, skipping."""

import io

import pytest

from repro.isa import Mem
from repro.machine import Machine
from repro.program import ProgramBuilder
from repro.tracer import (
    TOK_BLOCK,
    TOK_CALL,
    TOK_LOCK,
    TOK_RET,
    TOK_UNLOCK,
    TraceRecorder,
    load_traces,
    save_traces,
)

from util import build_call_program, build_diamond_program, build_lock_program, run_traced


class TestTokenStreams:
    def test_straightline_blocks_recorded(self):
        program = build_diamond_program()
        traces, _m = run_traced(program, [("worker", [0], None)], ["worker"])
        assert len(traces) == 1
        kinds = [t[0] for t in traces.threads[0].tokens]
        assert all(k == TOK_BLOCK for k in kinds)

    def test_block_instruction_counts_match_program(self):
        program = build_diamond_program()
        traces, _m = run_traced(program, [("worker", [0], None)], ["worker"])
        for token in traces.threads[0].tokens:
            block = program.block_by_addr[token[1]]
            assert token[2] == len(block.instructions)

    def test_call_and_ret_tokens(self):
        program = build_call_program()
        traces, _m = run_traced(program, [("worker", [3], None)], ["worker"])
        kinds = [t[0] for t in traces.threads[0].tokens]
        assert TOK_CALL in kinds
        assert TOK_RET in kinds
        ci = kinds.index(TOK_CALL)
        assert kinds[ci + 1] == TOK_BLOCK  # callee entry follows the call

    def test_memory_records_have_slots_and_addresses(self):
        b = ProgramBuilder()
        data = b.data("d", 64)
        with b.function("worker", args=["tid"]) as f:
            v = f.reg()
            f.load(v, Mem(None, disp=data.value, index=f.a(0), scale=8))
            f.ret(v)
        program = b.build()
        traces, _m = run_traced(program, [("worker", [2], None)], ["worker"])
        mems = [m for t in traces.threads[0].tokens if t[0] == TOK_BLOCK
                for m in t[3]]
        assert len(mems) == 1
        slot, is_store, addr, size = mems[0]
        assert not is_store
        assert addr == data.value + 16
        assert size == 8

    def test_lock_tokens_carry_addresses(self):
        program, lock_addr, _counter = build_lock_program(shared_lock=True)
        traces, _m = run_traced(
            program, [("worker", [t], None) for t in range(2)], ["worker"]
        )
        for trace in traces:
            kinds = [t[0] for t in trace.tokens]
            assert TOK_LOCK in kinds and TOK_UNLOCK in kinds
            lock_tok = next(t for t in trace.tokens if t[0] == TOK_LOCK)
            assert lock_tok[1] == lock_addr


class TestLogicalThreads:
    def _looping_program(self):
        """One CPU thread calling the worker function N times."""
        b = ProgramBuilder()
        with b.function("request", args=["rid"]) as f:
            r = f.reg()
            f.mul(r, f.a(0), 2)
            f.ret(r)
        with b.function("main", args=["n"]) as f:
            i = f.reg()
            r = f.reg()
            f.for_range(i, 0, f.a(0), lambda: f.call(r, "request", [i]))
            f.ret(0)
        return b.build()

    def test_one_logical_thread_per_worker_invocation(self):
        program = self._looping_program()
        traces, _m = run_traced(program, [("main", [5], None)], ["request"])
        assert len(traces) == 5
        assert all(t.root == "request" for t in traces)
        assert all(t.closed for t in traces)

    def test_outer_code_not_traced(self):
        program = self._looping_program()
        traces, _m = run_traced(program, [("main", [3], None)], ["request"])
        for trace in traces:
            for token in trace.tokens:
                assert token[0] != TOK_CALL  # request calls nothing

    def test_spawned_root_traces_whole_thread(self):
        program = build_call_program()
        traces, _m = run_traced(
            program, [("worker", [t], None) for t in range(4)], ["worker"]
        )
        assert len(traces) == 4
        assert {t.cpu_tid for t in traces} == {0, 1, 2, 3}


class TestSkipping:
    def test_io_instructions_skip_counted(self):
        b = ProgramBuilder()
        with b.function("worker", args=[]) as f:
            v = f.reg()
            f.io_read(v)
            f.io_write(v)
            f.ret(0)
        program = b.build()
        traces, _m = run_traced(
            program, [("worker", [], [7])], ["worker"], io_cost=30
        )
        trace = traces.threads[0]
        assert trace.skipped.get("io") == 60
        assert traces.traced_fraction() < 1.0

    def test_spin_skip_counted_under_contention(self):
        program, _lock, _counter = build_lock_program(shared_lock=True)
        traces, _m = run_traced(
            program, [("worker", [t], None) for t in range(8)],
            ["worker"], quantum=2, spin_cost=10,
        )
        assert traces.skipped_by_reason().get("spin", 0) > 0

    def test_excluded_function_skip_counted(self):
        program = build_call_program()
        traces, _m = run_traced(
            program, [("worker", [2], None)], ["worker"],
            exclude=["square"],
        )
        trace = traces.threads[0]
        assert trace.skipped.get("filtered", 0) > 0
        for token in trace.tokens:
            assert token[0] != TOK_CALL

    def test_traced_fraction_without_skips_is_one(self):
        program = build_diamond_program()
        traces, _m = run_traced(program, [("worker", [0], None)], ["worker"])
        assert traces.traced_fraction() == 1.0


class TestTraceSerialization:
    def test_roundtrip_preserves_everything(self):
        program, _lock, _counter = build_lock_program(shared_lock=True)
        traces, _m = run_traced(
            program, [("worker", [t], None) for t in range(4)], ["worker"]
        )
        buf = io.BytesIO()
        save_traces(traces, buf)
        buf.seek(0)
        loaded = load_traces(buf)
        assert len(loaded) == len(traces)
        for a, b in zip(traces, loaded):
            assert a.tokens == b.tokens
            assert a.skipped == b.skipped
            assert a.root == b.root
            assert a.cpu_tid == b.cpu_tid

    def test_roundtrip_via_file(self, tmp_path):
        program = build_diamond_program()
        traces, _m = run_traced(program, [("worker", [1], None)], ["worker"])
        path = str(tmp_path / "t.jsonl")
        save_traces(traces, path)
        loaded = load_traces(path)
        assert loaded.threads[0].tokens == traces.threads[0].tokens

    def test_version_mismatch_rejected(self):
        buf = io.BytesIO(b'{"version": 99}\n')
        with pytest.raises(ValueError):
            load_traces(buf)
