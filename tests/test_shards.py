"""The horizontal serve layer (``repro.shards``): the ISSUE 10 contracts.

* **Parity** -- a sweep served by N shard processes produces exactly
  the reports of the in-process path: identical HTTP report documents
  and bit-identical stored report payloads, cold and warm, for shards
  in {1, 2, 4}.
* **Cross-shard coalescing** -- a burst of identical submits triggers
  exactly one machine execution even when the duplicates land while
  the computation is owned by another shard (coalescing is
  parent-side, so the shard count cannot break it).
* **Streamed partials** -- a sweep's per-width reports arrive over
  the NDJSON events channel in completion order, contiguous and
  complete, every partial before the terminal snapshot.
* **Fault hardening** -- a ``serve.shard`` kill mid-cell is absorbed
  by respawn-and-rerun with bit-identical results; a cell killed on
  every attempt surfaces as a typed error, never a hang.

All sharded servers run over real HTTP via
:func:`repro.serve.start_in_background` with ``shards=N``.
"""

import http.client
import json
import threading
import time

import pytest

from repro import faults
from repro.artifacts import KIND_REPORT, ArtifactStore
from repro.serve import start_in_background
from repro.shards import (
    MAX_CELL_ATTEMPTS,
    ShardCrashError,
    ShardPool,
    probe_shards,
)

WORKLOAD = "vectoradd"
N_THREADS = 8
WIDTHS = [8, 16]
SWEEP = {"workload": WORKLOAD, "n_threads": N_THREADS,
         "warp_sizes": WIDTHS}

from test_serve import _get, _post, _wait  # noqa: E402


def _stream_lines(url, job_id, timeout=60.0):
    """Read the full NDJSON events stream of one job."""
    host, port = url.rsplit("//", 1)[1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    conn.request("GET", f"/v1/jobs/{job_id}/events")
    response = conn.getresponse()
    assert response.status == 200
    lines = [json.loads(line)
             for line in response.read().decode().splitlines()]
    conn.close()
    return lines


def _report_bytes(cache_dir):
    """``{key: payload}`` of every stored report artifact."""
    store = ArtifactStore(cache_dir)
    return {
        entry.key: store.read_key(KIND_REPORT, entry.key,
                                  count_stats=False)
        for entry in store.entries()
        if entry.kind == KIND_REPORT
    }


class TestShardParity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sweep_matches_the_inline_path_cold_and_warm(
            self, shards, tmp_path):
        inline_cache = str(tmp_path / "inline")
        handle = start_in_background(cache_dir=inline_cache)
        try:
            _status, doc = _post(handle.url, "/v1/sweep", SWEEP)
            _wait(handle.url, doc["job_id"])
            _status, baseline = _get(
                handle.url, f"/v1/jobs/{doc['job_id']}/report")
        finally:
            handle.close()

        shard_cache = str(tmp_path / f"shards{shards}")
        handle = start_in_background(cache_dir=shard_cache,
                                     shards=shards)
        try:
            _status, doc = _post(handle.url, "/v1/sweep", SWEEP)
            cold = _wait(handle.url, doc["job_id"])
            assert cold["status"] == "done"
            _status, report = _get(
                handle.url, f"/v1/jobs/{doc['job_id']}/report")
            assert report["reports"] == baseline["reports"]

            # Warm resubmit: answered from the registry, no new work.
            _status, health = _get(handle.url, "/v1/health")
            executions = health["executions"]
            status, again = _post(handle.url, "/v1/sweep", SWEEP)
            assert status == 200 and again["status"] == "done"
            assert again["job_id"] == doc["job_id"]
            _status, health = _get(handle.url, "/v1/health")
            assert health["executions"] == executions
        finally:
            handle.close()

        # The stored artifacts agree bit for bit with the inline run.
        baseline_reports = _report_bytes(inline_cache)
        sharded_reports = _report_bytes(shard_cache)
        assert set(sharded_reports) == set(baseline_reports)
        for key, payload in baseline_reports.items():
            assert sharded_reports[key] == payload, (
                f"report {key[:12]}.. differs under shards={shards}")


class TestCrossShardCoalescing:
    def test_burst_of_identical_submits_runs_one_analysis(
            self, tmp_path):
        handle = start_in_background(
            cache_dir=str(tmp_path / "cache"), shards=2)
        clients = 8
        spec = {"workload": WORKLOAD, "n_threads": N_THREADS,
                "seed": 99}
        try:
            _status, before = _get(handle.url, "/v1/health")
            results = [None] * clients
            barrier = threading.Barrier(clients)

            def submit(slot):
                barrier.wait()
                results[slot] = _post(handle.url, "/v1/analyze", spec)

            threads = [threading.Thread(target=submit, args=(slot,))
                       for slot in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            job_ids = {doc["job_id"] for _status, doc in results}
            assert len(job_ids) == 1
            done = _wait(handle.url, job_ids.pop())
            assert done["status"] == "done"
            _status, after = _get(handle.url, "/v1/health")
            assert after["executions"] - before["executions"] == 1
            # Every duplicate either coalesced onto the in-flight
            # fingerprint or landed registry-warm just after it
            # finished; none of them ran anything.
            absorbed = sum(
                1 for _status, doc in results
                if doc.get("coalesced") or doc.get("warm"))
            assert absorbed == clients - 1
        finally:
            handle.close()

    def test_health_reports_per_shard_detail(self, tmp_path):
        handle = start_in_background(
            cache_dir=str(tmp_path / "cache"), shards=2)
        try:
            _status, doc = _post(handle.url, "/v1/sweep", SWEEP)
            _wait(handle.url, doc["job_id"])
            _status, health = _get(handle.url, "/v1/health")
            shards_doc = health["shards"]
            assert shards_doc["count"] == 2
            assert shards_doc["mode"] == "process"
            assert len(shards_doc["detail"]) == 2
            for row in shards_doc["detail"]:
                assert row["alive"] is True
                for key in ("pid", "queue", "in_flight_fingerprints",
                            "coalesce_hits", "cells_done", "respawns"):
                    assert key in row, row
            assert sum(row["cells_done"]
                       for row in shards_doc["detail"]) == len(WIDTHS)
        finally:
            handle.close()

    def test_inline_server_reports_zero_shards(self, tmp_path):
        handle = start_in_background(cache_dir=str(tmp_path / "cache"))
        try:
            _status, health = _get(handle.url, "/v1/health")
            assert health["shards"] == {"count": 0, "mode": "inline",
                                        "detail": []}
            assert health["executions"] == \
                health["session"]["executions"]
        finally:
            handle.close()


class TestStreamedPartials:
    def test_partials_are_contiguous_complete_and_precede_done(
            self, tmp_path):
        handle = start_in_background(
            cache_dir=str(tmp_path / "cache"), shards=2)
        try:
            _status, doc = _post(handle.url, "/v1/sweep",
                                 dict(SWEEP, warp_sizes=[4, 8, 16]))
            lines = _stream_lines(handle.url, doc["job_id"])
        finally:
            handle.close()
        partials = [line for line in lines
                    if line.get("event") == "partial"]
        snapshots = [line for line in lines if "status" in line]
        assert [p["seq"] for p in partials] == [0, 1, 2]
        assert {p["width"] for p in partials} == {4, 8, 16}
        for partial in partials:
            assert partial["job_id"] == doc["job_id"]
            assert partial["report"]["workload"] == WORKLOAD
            assert partial["report"]["warp_size"] == partial["width"]
            assert partial["shard"] in (0, 1)
        assert snapshots[-1]["status"] == "done"
        assert snapshots[-1]["cells"] == {"done": 3, "total": 3}
        # Every partial line precedes the terminal snapshot line.
        assert lines.index(snapshots[-1]) > max(
            lines.index(p) for p in partials)


class TestShardFaults:
    def teardown_method(self):
        faults.reset()

    def test_kill_mid_cell_respawns_and_matches_bit_identical(
            self, tmp_path):
        baseline_cache = str(tmp_path / "baseline")
        handle = start_in_background(cache_dir=baseline_cache)
        try:
            _status, doc = _post(handle.url, "/v1/sweep", SWEEP)
            _wait(handle.url, doc["job_id"])
            _status, baseline = _get(
                handle.url, f"/v1/jobs/{doc['job_id']}/report")
        finally:
            handle.close()

        faulted_cache = str(tmp_path / "faulted")
        handle = start_in_background(cache_dir=faulted_cache, shards=2)
        try:
            # Kill the first attempt of every width: the dispatcher
            # must respawn each shard and re-run the cell (attempt
            # tokens are salted, so the retry is not re-killed).
            faults.install(faults.FaultPlan([
                faults.FaultSpec(site="serve.shard", kind="kill",
                                 match=f"{WORKLOAD}:w{width}#1")
                for width in WIDTHS
            ]))
            _status, doc = _post(handle.url, "/v1/sweep", SWEEP)
            done = _wait(handle.url, doc["job_id"])
            assert done["status"] == "done"
            _status, report = _get(
                handle.url, f"/v1/jobs/{doc['job_id']}/report")
            assert report["reports"] == baseline["reports"]
            _status, health = _get(handle.url, "/v1/health")
            respawns = sum(row["respawns"]
                           for row in health["shards"]["detail"])
            assert respawns >= len(WIDTHS)
        finally:
            faults.reset()
            handle.close()

        faulted_reports = _report_bytes(faulted_cache)
        for key, payload in _report_bytes(baseline_cache).items():
            assert faulted_reports[key] == payload

    def test_kill_on_every_attempt_is_a_typed_error_not_a_hang(
            self, tmp_path):
        handle = start_in_background(
            cache_dir=str(tmp_path / "cache"), shards=2)
        try:
            faults.install(faults.FaultPlan([
                faults.FaultSpec(site="serve.shard", kind="kill",
                                 match=f"{WORKLOAD}:w8#{attempt}")
                for attempt in range(1, MAX_CELL_ATTEMPTS + 1)
            ]))
            _status, doc = _post(handle.url, "/v1/sweep", SWEEP)
            failed = _wait(handle.url, doc["job_id"], timeout=120.0)
            assert failed["status"] == "failed"
            assert failed["error"]["type"] == "ShardCrashError"
            assert failed["error"]["site"] == "serve.shard"
            assert failed["error"]["hint"]
            status, body = _get(handle.url,
                                f"/v1/jobs/{doc['job_id']}/report")
            assert status == 500
            assert body["error"]["site"] == "serve.shard"
        finally:
            faults.reset()
            handle.close()

    def test_server_recovers_after_the_fault_storm(self, tmp_path):
        handle = start_in_background(
            cache_dir=str(tmp_path / "cache"), shards=2)
        try:
            faults.install(faults.FaultPlan([
                faults.FaultSpec(site="serve.shard", kind="kill",
                                 match=f"{WORKLOAD}:w8#{attempt}")
                for attempt in range(1, MAX_CELL_ATTEMPTS + 1)
            ]))
            _status, doc = _post(handle.url, "/v1/sweep", SWEEP)
            assert _wait(handle.url, doc["job_id"],
                         timeout=120.0)["status"] == "failed"
            faults.reset()
            # The shards were respawned; the same sweep now succeeds
            # (a failed job is replaced, never served again).
            _status, retry = _post(handle.url, "/v1/sweep", SWEEP)
            done = _wait(handle.url, retry["job_id"])
            assert done["status"] == "done"
            assert retry["job_id"] != doc["job_id"] or \
                done["status"] == "done"
        finally:
            faults.reset()
            handle.close()


class TestShardPoolDirect:
    def test_worker_raised_errors_propagate_without_respawn(
            self, tmp_path):
        pool = ShardPool(1, {"cache_dir": str(tmp_path / "cache")})
        pool.start()
        try:
            done = threading.Event()
            out = {}

            def complete(payload, exc, shard, skipped):
                out.update(payload=payload, exc=exc)
                done.set()

            pool.submit({"workload": "no-such-workload",
                         "n_threads": 4, "seed": 0,
                         "opt_level": "O1", "warp_size": 8,
                         "batching": "linear", "emulate_locks": False,
                         "lock_reconvergence": "unlock",
                         "token": "no-such:w8"},
                        on_complete=complete)
            assert done.wait(60.0)
            assert out["payload"] is None
            assert isinstance(out["exc"], Exception)
            assert not isinstance(out["exc"], ShardCrashError)
            # A bug is not a crash: the worker survived it.
            assert pool.health()[0]["respawns"] == 0
            assert pool.health()[0]["alive"] is True
        finally:
            pool.close()

    def test_skipped_cells_report_skipped(self, tmp_path):
        pool = ShardPool(1, {"cache_dir": str(tmp_path / "cache")})
        pool.start()
        try:
            done = threading.Event()
            out = {}

            def complete(payload, exc, shard, skipped):
                out.update(skipped=skipped, payload=payload)
                done.set()

            pool.submit({"workload": WORKLOAD, "n_threads": 4,
                         "seed": 0, "opt_level": "O1", "warp_size": 8,
                         "batching": "linear", "emulate_locks": False,
                         "lock_reconvergence": "unlock",
                         "token": "skip:w8"},
                        should_run=lambda: False,
                        on_complete=complete)
            assert done.wait(60.0)
            assert out["skipped"] is True
            assert out["payload"] is None
        finally:
            pool.close()


class TestProbe:
    def test_probe_shards_reports_live_workers(self, tmp_path):
        probe = probe_shards(count=2,
                             cache_dir=str(tmp_path / "cache"))
        assert probe["shards"] == 2
        assert probe["spawn_s"] >= 0.0
        assert len(probe["detail"]) == 2
        for row in probe["detail"]:
            assert row["alive"] is True
            assert row["ping"]["pid"] == row["pid"]

    def test_pool_info_cli_prints_the_shard_probe(self, capsys):
        from repro.cli import main

        assert main(["pool", "info", "--no-probe", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "shards:         2 probed" in out
        assert "shard 0: pid " in out
        assert "shard 1: pid " in out
        assert out.count("alive") >= 2
