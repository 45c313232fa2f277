"""Round-trip tests for trace-file (de)serialization.

The artifact store persists traces through :mod:`repro.tracer.io`, so the
save/load round trip must preserve every analysis-relevant field: token
streams, instruction counts, skip accounting, and (transitively) all
replay metrics.  The loader must also reject every structurally broken
stream, even one whose checksum was recomputed to match, and keep
reading the JSON-lines files of earlier releases.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from array import array
from unittest import mock

import pytest

from repro.artifacts import _canonical_pickle, serialize_traces
from repro.core import analyze_traces
from repro.errors import TraceCorruptError
from repro.session import AnalysisSession
from repro.simulator import project_speedup
from repro.tracer import PackedTrace, load_traces, save_traces
from repro.tracer.packed import PRISTINE_COLUMNS, columns_nbytes
from repro.workloads import get_workload, trace_instance
from util import FRESH_TRACE_CASES, legacy_record, trace_fresh_case

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
LEGACY_V2 = os.path.join(DATA_DIR, "vectoradd8.v2.jsonl")

WORKLOADS = ["vectoradd", "nn", "dsb_text", "btree", "memcached"]
N_THREADS = 16


def _trace(name):
    instance = get_workload(name).instantiate(N_THREADS)
    traces, _machine = trace_instance(instance)
    return instance, traces


def _round_trip(traces, program=None):
    buffer = io.BytesIO()
    save_traces(traces, buffer)
    buffer.seek(0)
    return load_traces(buffer, program=program)


class TestRoundTripStructure:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_preserves_threads_and_tokens(self, tmp_path, name):
        instance, traces = _trace(name)
        path = str(tmp_path / f"{name}.jsonl")
        save_traces(traces, path)
        loaded = load_traces(path, program=instance.program)

        assert len(loaded) == len(traces)
        assert loaded.workload == traces.workload
        assert loaded.untraced_skipped == traces.untraced_skipped
        for original, restored in zip(traces.threads, loaded.threads):
            assert restored.index == original.index
            assert restored.cpu_tid == original.cpu_tid
            assert restored.root == original.root
            assert restored.tokens == original.tokens
            assert restored.skipped == original.skipped

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_preserves_instruction_and_skip_accounting(self, name):
        _instance, traces = _trace(name)
        loaded = _round_trip(traces)
        assert loaded.total_instructions == traces.total_instructions
        assert loaded.total_skipped == traces.total_skipped
        assert loaded.skipped_by_reason() == traces.skipped_by_reason()
        assert loaded.traced_fraction() == traces.traced_fraction()


class TestRoundTripReplayMetrics:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_replay_identical_before_and_after(self, name):
        _instance, traces = _trace(name)
        loaded = _round_trip(traces)
        emulate_locks = name == "memcached"
        before = analyze_traces(traces, warp_size=8,
                                emulate_locks=emulate_locks)
        after = analyze_traces(loaded, warp_size=8,
                               emulate_locks=emulate_locks)

        assert after.simt_efficiency == before.simt_efficiency
        assert after.metrics.issues == before.metrics.issues
        assert (after.metrics.thread_instructions
                == before.metrics.thread_instructions)
        assert after.heap_transactions == before.heap_transactions
        assert after.stack_transactions == before.stack_transactions
        assert (after.metrics.divergence_events
                == before.metrics.divergence_events)
        assert (after.metrics.locks.serialized_issues
                == before.metrics.locks.serialized_issues)
        assert (after.metrics.locks.contended_events
                == before.metrics.locks.contended_events)


@contextlib.contextmanager
def tuple_conversions_forbidden():
    """Make every conversion between token tuples and columns raise.

    Production records, stores, loads and replays traces as columns
    only; the tuple view exists for the reference oracle.  Conversions
    are also logged, so one swallowed by a fallback path still fails.
    """
    calls = []

    def forbidden(name):
        def convert(*_args, **_kwargs):
            calls.append(name)
            raise AssertionError(f"PackedTrace.{name} on a production path")
        return convert

    with mock.patch.object(PackedTrace, "from_tokens",
                           forbidden("from_tokens")), \
            mock.patch.object(PackedTrace, "from_records",
                              forbidden("from_records")), \
            mock.patch.object(PackedTrace, "to_tokens",
                              forbidden("to_tokens")):
        yield
    assert not calls, calls


class TestPackedNativeLoading:
    """Traces stay columnar end to end.

    The recorder writes columns, :func:`load_traces` attaches a
    :class:`PackedTrace` per thread, and the whole pipeline (store,
    DCFG scan, warp formation, replay, memo signatures, the timing
    models) runs without converting to or from token tuples.
    """

    def test_loaded_traces_are_packed_only(self):
        _instance, traces = _trace("vectoradd")
        with tuple_conversions_forbidden():
            loaded = _round_trip(traces)
        for thread in loaded.threads:
            assert thread.n_tokens == len(thread.tokens)

    def test_analysis_never_materializes_tuples(self):
        _instance, traces = _trace("btree")
        loaded = _round_trip(traces)
        with tuple_conversions_forbidden():
            analyze_traces(loaded, warp_size=8)

    def test_production_never_converts_tuples_and_columns(self, tmp_path):
        cache = str(tmp_path / "cache")
        with tuple_conversions_forbidden():
            cold = AnalysisSession(cache_dir=cache).analyze(
                "dsb_post", n_threads=N_THREADS)
            warm = AnalysisSession(cache_dir=cache)
            traces = warm.trace("dsb_post", n_threads=N_THREADS)
            assert warm.executions == 0
            replayed = warm.replay(traces)
            storeless = AnalysisSession().analyze(
                "dsb_post", n_threads=N_THREADS)
            instance = get_workload("memcached").instantiate(N_THREADS)
            fresh, _machine = trace_instance(instance)
            project_speedup(fresh, instance.program)
        assert _canonical_pickle(replayed) == _canonical_pickle(cold) \
            == _canonical_pickle(storeless)

    def test_signatures_survive_the_round_trip(self):
        _instance, traces = _trace("memcached")
        loaded = _round_trip(traces)
        for original, restored in zip(traces.threads, loaded.threads):
            assert restored.signature == original.signature

    def test_packed_native_save_is_byte_identical(self):
        # Both representations save the same packed columns, so
        # artifact checksums do not depend on the representation.
        _instance, traces = _trace("vectoradd")
        loaded = _round_trip(traces)
        with tuple_conversions_forbidden():
            assert serialize_traces(loaded) == serialize_traces(traces)


class TestSerializationDeterminism:
    def test_same_traces_serialize_byte_identically(self):
        _instance, traces = _trace("dsb_text")
        assert serialize_traces(traces) == serialize_traces(traces)

    def test_fresh_runs_serialize_byte_identically(self):
        # The artifact store's content addressing relies on the machine
        # (and therefore the wire format) being fully deterministic.
        for name in WORKLOADS:
            _i1, first = _trace(name)
            _i2, second = _trace(name)
            assert serialize_traces(first) == serialize_traces(second), name
            assert serialize_traces(first).startswith(b'{"version": 3,')

    def test_unknown_format_version_rejected(self):
        _instance, traces = _trace("vectoradd")
        data = serialize_traces(traces)
        header, _newline, body = data.partition(b"\n")
        record = json.loads(header)
        record["version"] = 999
        data = json.dumps(record).encode("utf-8") + b"\n" + body
        with pytest.raises(ValueError, match="version"):
            load_traces(io.BytesIO(data))


class TestCorruptionDetection:
    """The checksummed stream refuses truncated/garbled input."""

    def _data(self, name="vectoradd"):
        _instance, traces = _trace(name)
        return serialize_traces(traces), traces

    def test_empty_stream_rejected(self):
        with pytest.raises(TraceCorruptError, match="empty"):
            load_traces(io.BytesIO(b""))

    def test_truncated_mid_body_rejected(self):
        data, _traces = self._data()
        with pytest.raises(TraceCorruptError):
            load_traces(io.BytesIO(data[: len(data) // 2]))

    def test_missing_last_record_rejected(self):
        # Dropping the last thread's columns whole leaves every other
        # thread well-formed; only the checksum (and the body length
        # the header implies) can catch it.
        data, _traces = self._data()
        last = json.loads(data.partition(b"\n")[0])["threads"][-1]
        cut = columns_nbytes(last["n_tokens"], last["n_mems"])
        with pytest.raises(TraceCorruptError):
            load_traces(io.BytesIO(data[:-cut]))

    def test_garbled_header_rejected(self):
        data, _traces = self._data()
        with pytest.raises(TraceCorruptError, match="JSON"):
            load_traces(io.BytesIO(b"{" + data))

    def test_flipped_body_character_rejected(self):
        data, _traces = self._data()
        pos = data.index(b"\n") + 20
        flipped = data[:pos] + bytes([data[pos] ^ 1]) + data[pos + 1:]
        with pytest.raises(TraceCorruptError, match="checksum"):
            load_traces(io.BytesIO(flipped))

    def test_error_carries_site_and_hint(self):
        data, _traces = self._data()
        with pytest.raises(TraceCorruptError) as excinfo:
            load_traces(io.BytesIO(data[:-30]))
        assert excinfo.value.site == "trace.load"
        assert "re-trace" in excinfo.value.hint \
            or "regenerated" in excinfo.value.hint

    def test_v1_stream_without_checksum_still_loads(self):
        # Schema tolerance: JSON-lines files written before the
        # checksum existed.
        _data, traces = self._data()
        header = {"version": 1, "workload": traces.workload,
                  "untraced_skipped": traces.untraced_skipped,
                  "n_threads": len(traces)}
        lines = [json.dumps(header)] + [
            json.dumps({"index": trace.index, "cpu_tid": trace.cpu_tid,
                        "root": trace.root, "skipped": trace.skipped,
                        "tokens": [legacy_record(t) for t in trace.tokens]})
            for trace in traces.threads]
        v1_data = ("\n".join(lines) + "\n").encode("utf-8")
        loaded = load_traces(io.BytesIO(v1_data))
        assert len(loaded) == len(traces)
        assert loaded.total_instructions == traces.total_instructions


def _split_stream(data):
    """A v3 stream as ``(header, [per-thread column arrays])``."""
    header_line, _newline, body = data.partition(b"\n")
    header = json.loads(header_line)
    threads, offset = [], 0
    for meta in header["threads"]:
        columns = {}
        for (attr, typecode), count in zip(
                PRISTINE_COLUMNS,
                (meta["n_tokens"],) * 3 + (meta["n_tokens"] + 1,)
                + (meta["n_mems"],) * 4):
            column = array(typecode)
            end = offset + count * column.itemsize
            column.frombytes(body[offset:end])
            if sys.byteorder == "big":
                column.byteswap()
            columns[attr] = column
            offset = end
        threads.append(columns)
    assert offset == len(body)
    return header, threads


def _join_stream(header, threads, tail=b""):
    """Re-encode a split stream, checksum recomputed over the new bytes."""
    parts = []
    for columns in threads:
        for attr, typecode in PRISTINE_COLUMNS:
            column = array(typecode, columns[attr])
            if sys.byteorder == "big":
                column.byteswap()
            parts.append(column.tobytes())
    body = b"".join(parts) + tail
    header = {k: v for k, v in header.items() if k != "sha256"}
    header["sha256"] = hashlib.sha256(
        json.dumps(header).encode("utf-8") + b"\n" + body).hexdigest()
    return json.dumps(header).encode("utf-8") + b"\n" + body


def _call_thread(threads):
    """Columns of a thread with a call token and memory records."""
    return next(columns for columns in threads
                if 1 in columns["kinds"] and len(columns["mslot"]))


def _break_moff_start(header, threads):
    # Raise the leading zero offsets to 1: still non-decreasing and
    # still ending at n_mems, so only the start rule is violated.
    moff = _call_thread(threads)["moff"]
    for i in range(len(moff)):
        if moff[i]:
            break
        moff[i] = 1


def _break_moff_order(header, threads):
    columns = _call_thread(threads)
    columns["moff"][1] = len(columns["mslot"]) + 1


def _break_moff_end(header, threads):
    columns = _call_thread(threads)
    columns["moff"][-1] = len(columns["mslot"]) + 1


def _break_kind_code(header, threads):
    threads[0]["kinds"][0] = 5


def _break_store_flag(header, threads):
    _call_thread(threads)["mstore"][0] = 2


def _break_call_index(header, threads):
    columns = _call_thread(threads)
    meta = header["threads"][threads.index(columns)]
    columns["arg"][list(columns["kinds"]).index(1)] = len(meta["names"])


def _break_thread_count(header, threads):
    header["n_threads"] += 1


#: One structurally broken stream per loader rule; the byte-length rule
#: gets a body longer and a body shorter than the header's shapes.
STRUCTURAL_BREAKS = {
    "body_longer": (lambda header, threads: None, b"\x00" * 8),
    "body_shorter": (lambda header, threads: threads[-1]["moff"].pop(),
                     b""),
    "moff_start": (_break_moff_start, b""),
    "moff_decreasing": (_break_moff_order, b""),
    "moff_end": (_break_moff_end, b""),
    "kind_code": (_break_kind_code, b""),
    "store_flag": (_break_store_flag, b""),
    "call_index": (_break_call_index, b""),
    "thread_count": (_break_thread_count, b""),
}


class TestStructuralValidation:
    """The checksum is declared inside the file, so it cannot vouch for
    the structure: every broken-but-checksummed stream is refused."""

    @pytest.mark.parametrize("rule", sorted(STRUCTURAL_BREAKS))
    def test_checksummed_structural_break_rejected(self, rule):
        _instance, traces = _trace("memcached")
        data = serialize_traces(traces)
        header, threads = _split_stream(data)
        assert _join_stream(header, threads) == data
        breaker, tail = STRUCTURAL_BREAKS[rule]
        breaker(header, threads)
        broken = _join_stream(header, threads, tail)
        with pytest.raises(TraceCorruptError) as excinfo:
            load_traces(io.BytesIO(broken))
        assert excinfo.value.site == "trace.load"
        assert "checksum" not in str(excinfo.value)


class TestFreshTraceBytes:
    """Recording straight into columns writes the bytes that recording
    tuples and packing them wrote (``tests/data/fresh_<case>.v3.trace``,
    saved by an earlier release's tuple recorder)."""

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    @pytest.mark.parametrize("case", FRESH_TRACE_CASES)
    def test_fresh_traces_serialize_to_committed_bytes(self, case, engine):
        path = os.path.join(DATA_DIR, f"fresh_{case}.v3.trace")
        with open(path, "rb") as fp:
            expected = fp.read()
        assert serialize_traces(trace_fresh_case(case, engine)) == expected


class TestLegacyFormats:
    """JSON-lines files written by earlier releases still load."""

    def test_v2_fixture_matches_a_fresh_trace(self):
        # tests/data/vectoradd8.v2.jsonl: save_traces of format v2 on
        # vectoradd, 8 threads, seed 7.
        instance = get_workload("vectoradd").instantiate(8, seed=7)
        fresh, _machine = trace_instance(instance)
        loaded = load_traces(LEGACY_V2)
        assert len(loaded) == len(fresh) == 8
        for original, restored in zip(fresh.threads, loaded.threads):
            assert restored.tokens == original.tokens
            assert restored.signature == original.signature
        assert _canonical_pickle(analyze_traces(loaded, warp_size=8)) \
            == _canonical_pickle(analyze_traces(fresh, warp_size=8))
        assert serialize_traces(load_traces(LEGACY_V2)) \
            == serialize_traces(fresh)
