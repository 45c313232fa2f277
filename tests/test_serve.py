"""The serving layer (``repro.serve``): the ISSUE 7 contracts.

* **Coalescing** -- N concurrent identical submits share one job id
  and trigger exactly one underlying analysis.
* **Warm fast path** -- a finished fingerprint answers instantly from
  the job registry; across a server restart the artifact store answers
  with zero machine executions.
* **Backpressure** -- a full bounded queue rejects submits with a
  typed 503 (``QueueSaturated``), never by crashing or queueing
  unboundedly.
* **Typed errors** -- 4xx for request mistakes (unknown workload/job,
  malformed bodies, wrong methods), 5xx carrying the
  :class:`~repro.errors.ReproError` type/site/hint for pipeline
  failures.
* **Fault smoke** -- an injected ``io.transient`` storm surfaces as a
  5xx naming its site, never as a wrong report; after the storm the
  same fingerprint analyzes cleanly.

All tests drive a real server over real HTTP (an in-process
:func:`repro.serve.start_in_background` instance).
"""

import asyncio
import http.client
import importlib.util
import json
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import faults
from repro.errors import ReproError, RetryExhaustedError, StageTimeoutError
from repro.serve import (
    AnalysisServer,
    JobSpec,
    ServeError,
    error_payload,
    start_in_background,
)
from repro.session import AnalysisSession

_TOOL = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "serve_load.py")
_spec = importlib.util.spec_from_file_location("serve_load", _TOOL)
serve_load = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(serve_load)

WORKLOAD = "vectoradd"
SPEC = {"workload": WORKLOAD, "n_threads": 8}


def _get(url, path):
    try:
        with urllib.request.urlopen(url + path) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(url, path, body, raw=None):
    data = raw if raw is not None else json.dumps(body).encode()
    request = urllib.request.Request(
        url + path, data=data, method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _wait(url, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, doc = _get(url, f"/v1/jobs/{job_id}")
        assert status == 200, doc
        if doc["status"] in ("done", "failed"):
            return doc
        time.sleep(0.01)
    raise AssertionError(f"job {job_id[:12]} never finished")


class GatedSession(AnalysisSession):
    """A session whose ``analyze`` blocks until the test opens a gate.

    Lets tests pin a job in the ``running`` state (to observe
    coalescing and fill the queue) and count underlying analyzer
    invocations.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.gate = threading.Event()
        self.analyze_calls = 0

    def analyze(self, *args, **kwargs):
        self.analyze_calls += 1
        assert self.gate.wait(60.0), "test never opened the gate"
        return super().analyze(*args, **kwargs)


@pytest.fixture
def server(tmp_path):
    handle = start_in_background(cache_dir=str(tmp_path / "cache"), jobs=1)
    yield handle
    handle.close()


@pytest.fixture
def gated(tmp_path):
    session = GatedSession(cache_dir=str(tmp_path / "cache"))
    handle = start_in_background(session=session, queue_depth=1)
    yield handle, session
    session.gate.set()
    handle.close()
    session.close()


class TestJobSpec:
    def test_defaults_resolve_against_the_catalog(self):
        spec = JobSpec.parse("analyze", {"workload": WORKLOAD})
        assert spec.n_threads > 0
        assert spec.warp_sizes == (32,)
        assert spec.config().warp_size == 32

    def test_equal_requests_share_one_key(self):
        a = JobSpec.parse("analyze", {"workload": WORKLOAD, "seed": 7})
        b = JobSpec.parse("analyze", {"workload": WORKLOAD})
        assert a.key() == b.key()

    @pytest.mark.parametrize("body,status", [
        ({"workload": "no-such-workload"}, 404),
        ({}, 400),
        ({"workload": WORKLOAD, "n_threads": 0}, 400),
        ({"workload": WORKLOAD, "n_threads": "many"}, 400),
        ({"workload": WORKLOAD, "warp_size": True}, 400),
        ({"workload": WORKLOAD, "opt_level": "O9"}, 400),
        ({"workload": WORKLOAD, "batching": "zigzag"}, 400),
    ])
    def test_validation_maps_to_4xx(self, body, status):
        with pytest.raises(ServeError) as err:
            JobSpec.parse("analyze", body)
        assert err.value.status == status

    def test_sweep_warp_sizes_validated(self):
        with pytest.raises(ServeError):
            JobSpec.parse("sweep", {"workload": WORKLOAD,
                                    "warp_sizes": []})
        spec = JobSpec.parse("sweep", {"workload": WORKLOAD,
                                       "warp_sizes": [8, 16]})
        assert spec.warp_sizes == (8, 16)


class TestErrorPayload:
    def test_repro_error_carries_site_and_hint(self):
        status, body = error_payload(
            ReproError("boom", site="pool.worker", hint="replace it"))
        assert status == 500
        assert body["error"] == {
            "type": "ReproError", "message": "boom",
            "site": "pool.worker", "hint": "replace it",
        }

    def test_stage_timeout_maps_to_504(self):
        status, _body = error_payload(StageTimeoutError("slow"))
        assert status == 504

    def test_site_recovered_from_cause_chain(self):
        try:
            try:
                raise OSError("disk flake")
            except OSError as inner:
                raise RetryExhaustedError("gave up",
                                          hint="rerun") from inner
        except RetryExhaustedError as outer:
            outer.__cause__.site = "io.transient"
            _status, body = error_payload(outer)
        assert body["error"]["site"] == "io.transient"

    def test_serve_error_uses_its_own_status(self):
        status, body = error_payload(
            ServeError(503, "full", kind="QueueSaturated", hint="wait"))
        assert status == 503
        assert body["error"]["type"] == "QueueSaturated"


class TestHttpSurface:
    def test_banner_health_and_catalog(self, server):
        status, banner = _get(server.url, "/")
        assert status == 200
        assert "POST /v1/analyze" in banner["endpoints"]
        status, health = _get(server.url, "/v1/health")
        assert status == 200
        assert health["status"] == "ok"
        assert health["queue"]["depth"] >= 1
        status, catalog = _get(server.url, "/v1/workloads")
        assert status == 200
        assert WORKLOAD in {w["name"] for w in catalog["workloads"]}

    def test_analyze_roundtrip_report_and_telemetry(self, server):
        status, doc = _post(server.url, "/v1/analyze", SPEC)
        assert status == 202 and doc["status"] == "queued"
        done = _wait(server.url, doc["job_id"])
        assert done["status"] == "done"
        assert done["executions"] == 1
        assert {s["stage"] for s in done["stages"]} >= {
            "build", "trace", "prepare", "replay"}
        status, report = _get(server.url,
                              f"/v1/jobs/{doc['job_id']}/report")
        assert status == 200
        assert report["report"]["workload"] == WORKLOAD
        assert 0.0 < report["report"]["simt_efficiency"] <= 1.0
        status, tele = _get(server.url,
                            f"/v1/jobs/{doc['job_id']}/telemetry")
        assert status == 200
        assert "session.executions" in tele["telemetry"]["counters"]

    def test_job_telemetry_counts_only_that_jobs_executions(self, server):
        # Three distinct jobs on one server: each job's telemetry
        # counts its own execution, not the session's running total.
        counted = []
        for seed in (1, 2, 3):
            _status, doc = _post(server.url, "/v1/analyze", {
                "workload": WORKLOAD, "n_threads": 16, "seed": seed})
            done = _wait(server.url, doc["job_id"])
            assert done["executions"] == 1
            status, tele = _get(server.url,
                                f"/v1/jobs/{doc['job_id']}/telemetry")
            assert status == 200
            counted.append(tele["telemetry"]["counters"]
                           ["session.executions"])
        assert counted == [1, 1, 1]

    def test_job_telemetry_counts_only_that_jobs_store_traffic(self,
                                                               server):
        # Each distinct cold job stores its traces, DCFGs and report:
        # three puts of its own, whatever earlier jobs wrote.
        gauges = []
        for seed in (1, 2, 3):
            _status, doc = _post(server.url, "/v1/analyze", {
                "workload": WORKLOAD, "n_threads": 16, "seed": seed})
            _wait(server.url, doc["job_id"])
            _status, tele = _get(server.url,
                                 f"/v1/jobs/{doc['job_id']}/telemetry")
            gauges.append(tele["telemetry"]["gauges"])
        assert [g["cache.puts"] for g in gauges] == [3, 3, 3]
        assert [g["cache.misses"] for g in gauges] == [3, 3, 3]
        assert len({g["cache.bytes_written"] for g in gauges}) == 1
        assert gauges[0]["cache.bytes_written"] > 0

    def test_sweep_returns_per_width_reports(self, server):
        status, doc = _post(server.url, "/v1/sweep",
                            dict(SPEC, warp_sizes=[4, 8]))
        assert status == 202
        _wait(server.url, doc["job_id"])
        status, report = _get(server.url,
                              f"/v1/jobs/{doc['job_id']}/report")
        assert status == 200
        assert set(report["reports"]) == {"4", "8"}

    def test_typed_request_errors(self, server):
        status, body = _post(server.url, "/v1/analyze",
                             {"workload": "no-such-workload"})
        assert (status, body["error"]["type"]) == (404, "UnknownWorkload")
        status, body = _post(server.url, "/v1/analyze", None,
                             raw=b"{not json")
        assert (status, body["error"]["type"]) == (400, "BadRequest")
        status, body = _get(server.url, "/v1/jobs/deadbeef")
        assert (status, body["error"]["type"]) == (404, "UnknownJob")
        status, body = _get(server.url, "/v1/nope")
        assert status == 404
        request = urllib.request.Request(
            server.url + "/v1/health", method="DELETE")
        try:
            urllib.request.urlopen(request)
            raise AssertionError("DELETE should be rejected")
        except urllib.error.HTTPError as exc:
            assert exc.code == 405

    def test_registry_warm_resubmit_is_instant(self, server):
        _status, doc = _post(server.url, "/v1/analyze", SPEC)
        _wait(server.url, doc["job_id"])
        t0 = time.perf_counter()
        status, again = _post(server.url, "/v1/analyze", SPEC)
        warm_s = time.perf_counter() - t0
        assert status == 200
        assert again["status"] == "done"
        assert again["job_id"] == doc["job_id"]
        assert warm_s < 1.0
        _status, health = _get(server.url, "/v1/health")
        assert health["requests"]["warm_hits"] >= 1
        assert health["coalesce_hit_rate"] > 0.0


class TestWarmAcrossRestart:
    def test_store_warm_fingerprint_runs_zero_executions(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = start_in_background(cache_dir=cache)
        try:
            _status, doc = _post(first.url, "/v1/analyze", SPEC)
            done = _wait(first.url, doc["job_id"])
            assert done["executions"] == 1
        finally:
            first.close()

        second = start_in_background(cache_dir=cache)
        try:
            status, doc2 = _post(second.url, "/v1/analyze", SPEC)
            assert status == 202
            assert doc2["job_id"] == doc["job_id"]
            assert doc2["warm"] is True
            done = _wait(second.url, doc2["job_id"])
            assert done["status"] == "done"
            assert done["executions"] == 0
            assert second.server.session.executions == 0
        finally:
            second.close()


class TestCoalescing:
    def test_identical_concurrent_submits_run_one_analysis(self, gated):
        handle, session = gated
        clients = 5
        results = [None] * clients
        barrier = threading.Barrier(clients)

        def submit(slot):
            barrier.wait()
            results[slot] = _post(handle.url, "/v1/analyze", SPEC)

        threads = [threading.Thread(target=submit, args=(slot,))
                   for slot in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        job_ids = {doc["job_id"] for _status, doc in results}
        assert len(job_ids) == 1
        coalesced = [doc for _status, doc in results if doc["coalesced"]]
        assert len(coalesced) == clients - 1
        # A coalesced waiter cannot fetch a report early.
        job_id = job_ids.pop()
        status, body = _get(handle.url, f"/v1/jobs/{job_id}/report")
        assert (status, body["error"]["type"]) == (409, "NotFinished")

        session.gate.set()
        done = _wait(handle.url, job_id)
        assert done["status"] == "done"
        assert session.analyze_calls == 1
        assert session.executions == 1

    def test_queue_saturation_returns_typed_503(self, gated):
        handle, session = gated  # queue_depth=1

        _status, first = _post(handle.url, "/v1/analyze", SPEC)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            _s, doc = _get(handle.url, f"/v1/jobs/{first['job_id']}")
            if doc["status"] == "running":
                break
            time.sleep(0.01)
        assert doc["status"] == "running"

        status, second = _post(handle.url, "/v1/analyze",
                               dict(SPEC, seed=11))
        assert status == 202

        status, rejected = _post(handle.url, "/v1/analyze",
                                 dict(SPEC, seed=12))
        assert status == 503
        assert rejected["error"]["type"] == "QueueSaturated"
        assert "queue-depth" in rejected["error"]["hint"]
        _status, health = _get(handle.url, "/v1/health")
        assert health["requests"]["rejected"] == 1

        session.gate.set()
        _wait(handle.url, first["job_id"])
        _wait(handle.url, second["job_id"])
        status, retried = _post(handle.url, "/v1/analyze",
                                dict(SPEC, seed=12))
        assert status == 202
        assert _wait(handle.url, retried["job_id"])["status"] == "done"


class TestFaultSmoke:
    def test_io_transient_storm_fails_typed_then_recovers(self, tmp_path):
        handle = start_in_background(cache_dir=str(tmp_path / "cache"))
        plan = faults.FaultPlan([faults.FaultSpec(
            site="io.transient", kind="raise", at=1, count=100)])
        try:
            faults.install(plan)
            _status, doc = _post(handle.url, "/v1/analyze", SPEC)
            failed = _wait(handle.url, doc["job_id"])
            assert failed["status"] == "failed"
            assert failed["error"]["type"] == "RetryExhaustedError"
            assert failed["error"]["site"] == "io.transient"
            assert failed["error"]["hint"]
            status, body = _get(handle.url,
                                f"/v1/jobs/{doc['job_id']}/report")
            assert status == 500
            assert body["error"]["site"] == "io.transient"
        finally:
            faults.reset()

        # The storm over, the same fingerprint analyzes cleanly: a
        # failed job is replaced, never served as a wrong report.
        _status, retry = _post(handle.url, "/v1/analyze", SPEC)
        assert retry["status"] == "queued"
        done = _wait(handle.url, retry["job_id"])
        assert done["status"] == "done"
        status, body = _get(handle.url,
                            f"/v1/jobs/{retry['job_id']}/report")
        assert status == 200
        assert body["report"]["simt_efficiency"] > 0.0
        handle.close()


class TestEventsStream:
    def test_stream_follows_job_to_completion(self, gated):
        handle, session = gated
        _status, doc = _post(handle.url, "/v1/analyze", SPEC)
        host, port = handle.url.rsplit("//", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=60.0)
        conn.request("GET", f"/v1/jobs/{doc['job_id']}/events")

        def release():
            time.sleep(0.2)
            session.gate.set()

        threading.Thread(target=release).start()
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        lines = [json.loads(line)
                 for line in response.read().decode().splitlines()]
        conn.close()
        assert lines, "stream emitted nothing"
        assert lines[-1]["status"] == "done"
        statuses = [snap["status"] for snap in lines]
        assert statuses == sorted(
            statuses, key=["queued", "running", "done"].index)
        assert any(snap["stage"] for snap in lines)


class TestSweepPartials:
    """Sweep jobs stream per-width partial events (inline path too)."""

    def test_partials_stream_in_order_before_the_final_snapshot(
            self, server):
        _status, doc = _post(server.url, "/v1/sweep",
                             dict(SPEC, warp_sizes=[4, 8]))
        host, port = server.url.rsplit("//", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=60.0)
        conn.request("GET", f"/v1/jobs/{doc['job_id']}/events")
        response = conn.getresponse()
        assert response.status == 200
        lines = [json.loads(line)
                 for line in response.read().decode().splitlines()]
        conn.close()
        partials = [line for line in lines
                    if line.get("event") == "partial"]
        assert [p["seq"] for p in partials] == [0, 1]
        assert [p["width"] for p in partials] == [4, 8]
        for partial in partials:
            assert partial["report"]["warp_size"] == partial["width"]
        final = lines[-1]
        assert final["status"] == "done"
        assert final["cells"] == {"done": 2, "total": 2}
        assert final["partial_widths"] == [4, 8]
        # Analyze streams carry no partial lines (every line is a
        # snapshot); the partial event is a sweep-only surface.
        _status, doc = _post(server.url, "/v1/analyze", SPEC)
        _wait(server.url, doc["job_id"])
        conn = http.client.HTTPConnection(host, int(port), timeout=60.0)
        conn.request("GET", f"/v1/jobs/{doc['job_id']}/events")
        response = conn.getresponse()
        analyze_lines = [json.loads(line) for line
                         in response.read().decode().splitlines()]
        conn.close()
        assert all("status" in line for line in analyze_lines)

    def test_disconnect_mid_sweep_cleans_up_the_stream(self, gated):
        """Hanging up while partials are still arriving must release
        the handler immediately, and the sweep must still finish."""
        handle, session = gated
        _status, doc = _post(handle.url, "/v1/sweep",
                             dict(SPEC, warp_sizes=[4, 8, 16]))
        host, port = handle.url.rsplit("//", 1)[1].split(":")
        sock = socket.create_connection((host, int(port)), timeout=30.0)
        sock.sendall(f"GET /v1/jobs/{doc['job_id']}/events HTTP/1.1\r\n"
                     f"Host: {host}\r\n\r\n".encode())
        buf = b""
        while b"\r\n\r\n" not in buf or \
                b"\n" not in buf.split(b"\r\n\r\n", 1)[1]:
            chunk = sock.recv(4096)
            assert chunk, "stream closed before the first snapshot"
            buf += chunk
        # Mid-sweep: the job is pinned inside its first gated cell.
        sock.close()

        import asyncio

        def open_streams():
            async def count():
                return sum(
                    1 for task in asyncio.all_tasks()
                    if "_handle_connection" in repr(task.get_coro()))
            return asyncio.run_coroutine_threadsafe(
                count(), handle.server._loop).result(5.0)

        deadline = time.monotonic() + 10.0
        while open_streams() > 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert open_streams() == 0, "stream handler outlived its client"

        session.gate.set()
        done = _wait(handle.url, doc["job_id"])
        assert done["status"] == "done"
        assert done["cells"] == {"done": 3, "total": 3}
        # A fresh stream on the finished sweep replays every partial.
        conn = http.client.HTTPConnection(host, int(port), timeout=30.0)
        conn.request("GET", f"/v1/jobs/{doc['job_id']}/events")
        lines = [json.loads(line) for line in
                 conn.getresponse().read().decode().splitlines()]
        conn.close()
        partials = [line for line in lines
                    if line.get("event") == "partial"]
        assert [p["seq"] for p in partials] == [0, 1, 2]
        assert json.loads(json.dumps(lines[-1]))["status"] == "done"


class TestServeLoadTool:
    def test_smoke_run_against_live_server(self, server, tmp_path):
        out = str(tmp_path / "serve_load.json")
        code = serve_load.main(["--url", server.url, "--smoke",
                                "--out", out])
        assert code == 0
        with open(out) as fh:
            metrics = json.load(fh)["serve_load"]
        for key in ("throughput_ips", "cold_p50_s", "warm_p50_s",
                    "coalesce_hit_rate", "burst_analyses"):
            assert key in metrics
        assert metrics["burst_analyses"] <= 1


class TestCli:
    def test_serve_subcommand_is_registered(self):
        from repro import cli

        args = cli._build_parser().parse_args(
            ["serve", "--port", "0", "--queue-depth", "8"])
        assert args.command == "serve"
        assert args.queue_depth == 8
        assert cli._COMMANDS["serve"] is cli._cmd_serve

    @pytest.mark.parametrize("argv", [
        ["serve", "--port", "0", "--shards", "2"],
        ["serve", "--port", "0", "--jobs", "2"],
        ["pool", "info", "--shards", "2"],
    ], ids=["serve-shards", "serve-jobs", "pool-info-shards"])
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        from repro import cli

        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments" in err

    def test_run_server_prints_parseable_url(self, capsys):
        server = AnalysisServer(cache_dir=None)

        async def boot_and_stop():
            await server.start()
            print(f"SERVE_URL={server.url}", flush=True)
            await server.stop()

        import asyncio
        asyncio.run(boot_and_stop())
        out = capsys.readouterr().out
        assert f"SERVE_URL=http://{server.host}:{server.port}" in out


class TestIndexEndpoints:
    """``GET /v1/index/*``: sqlite answers, never the runner thread."""

    def test_query_reflects_a_finished_analysis(self, server):
        _status, doc = _post(server.url, "/v1/analyze", SPEC)
        _wait(server.url, doc["job_id"])
        status, body = _get(server.url, "/v1/index/query")
        assert status == 200
        assert body["count"] >= 1
        run = body["runs"][0]
        assert run["workload"] == WORKLOAD
        assert 0.0 < run["simt_efficiency"] <= 1.0
        # Filters narrow; a miss is an empty list, not an error.
        status, hit = _get(server.url,
                           f"/v1/index/query?workload={WORKLOAD}")
        assert status == 200 and hit["count"] == body["count"]
        status, miss = _get(server.url,
                            "/v1/index/query?workload=no-such")
        assert status == 200 and miss["count"] == 0

    def test_bad_query_parameters_are_typed_400s(self, server):
        status, body = _get(server.url, "/v1/index/query?nope=1")
        assert (status, body["error"]["type"]) == (400, "BadRequest")
        status, body = _get(server.url, "/v1/index/query?warp_size=wide")
        assert status == 400
        status, body = _get(server.url, "/v1/index/query?counter=%21%21")
        assert status == 400
        assert "predicate" in body["error"]["message"]

    def test_history_contract(self, server):
        status, body = _get(server.url, "/v1/index/history")
        assert (status, body["error"]["type"]) == (400, "BadRequest")
        status, body = _get(server.url, "/v1/index/history?metric=nope")
        assert (status, body["error"]["type"]) == (404, "UnknownMetric")
        assert "ingest" in body["error"]["hint"]

    def test_history_serves_ingested_trajectories(self, server):
        store = server.server.session.store
        for value, name in ((2.0, "a"), (2.4, "b")):
            path = os.path.join(store.root, f"BENCH_{name}.json")
            with open(path, "w") as fh:
                json.dump({"geomean_vector_speedup": value}, fh)
            store.index.ingest_bench(path, label="replay")
        status, body = _get(
            server.url,
            "/v1/index/history?metric=geomean_vector_speedup"
            "&max_regression=10")
        assert status == 200
        assert [p["value"] for p in body["points"]] == [2.0, 2.4]
        assert body["direction"] == 1
        assert body["verdict"]["regressed"] is False

    def test_store_less_server_is_a_typed_409(self):
        handle = start_in_background(cache_dir=None)
        try:
            status, body = _get(handle.url, "/v1/index/query")
            assert (status, body["error"]["type"]) == (409, "NoStore")
            assert "--cache-dir" in body["error"]["hint"]
        finally:
            handle.close()

    def test_query_answers_while_the_runner_is_busy(self, gated):
        """The index read side must not queue behind analyses: with the
        single runner thread pinned inside ``analyze``, index queries
        still answer immediately."""
        handle, session = gated
        _status, doc = _post(handle.url, "/v1/analyze", SPEC)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            _s, snap = _get(handle.url, f"/v1/jobs/{doc['job_id']}")
            if snap["status"] == "running":
                break
            time.sleep(0.01)
        assert snap["status"] == "running"

        t0 = time.perf_counter()
        status, body = _get(handle.url, "/v1/index/query")
        elapsed = time.perf_counter() - t0
        assert status == 200
        assert elapsed < 5.0, "index query queued behind the analysis"

        session.gate.set()
        _wait(handle.url, doc["job_id"])
        status, body = _get(handle.url,
                            f"/v1/index/query?workload={WORKLOAD}")
        assert status == 200 and body["count"] >= 1


class TestIndexWarmAcrossRestart:
    def test_second_server_queries_without_executing(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = start_in_background(cache_dir=cache)
        try:
            _status, doc = _post(first.url, "/v1/analyze", SPEC)
            assert _wait(first.url, doc["job_id"])["status"] == "done"
        finally:
            first.close()

        second = start_in_background(cache_dir=cache)
        try:
            status, body = _get(second.url,
                                f"/v1/index/query?workload={WORKLOAD}")
            assert status == 200
            assert body["count"] >= 1
            assert second.server.session.executions == 0
        finally:
            second.close()


class TestEventsDisconnect:
    def test_client_disconnect_mid_stream_leaves_the_server_healthy(
            self, gated):
        """Dropping an NDJSON events connection mid-job must clean up
        server-side: the job still completes and the listener keeps
        serving."""
        handle, session = gated
        _status, doc = _post(handle.url, "/v1/analyze", SPEC)
        host, port = handle.url.rsplit("//", 1)[1].split(":")
        sock = socket.create_connection((host, int(port)), timeout=30.0)
        sock.sendall(f"GET /v1/jobs/{doc['job_id']}/events HTTP/1.1\r\n"
                     f"Host: {host}\r\n\r\n".encode())
        buf = b""
        while b"\r\n\r\n" not in buf or \
                b"\n" not in buf.split(b"\r\n\r\n", 1)[1]:
            chunk = sock.recv(4096)
            assert chunk, "stream closed before the first snapshot"
            buf += chunk
        assert b"200 OK" in buf
        # One snapshot arrived; now the client vanishes mid-stream.
        sock.close()

        # The handler must notice the hangup and exit while the job is
        # still pinned -- not keep streaming to nobody until the job
        # terminates.
        import asyncio

        def open_streams():
            async def count():
                return sum(
                    1 for task in asyncio.all_tasks()
                    if "_handle_connection" in repr(task.get_coro()))
            return asyncio.run_coroutine_threadsafe(
                count(), handle.server._loop).result(5.0)

        deadline = time.monotonic() + 10.0
        while open_streams() > 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert open_streams() == 0, "stream handler outlived its client"

        session.gate.set()
        done = _wait(handle.url, doc["job_id"])
        assert done["status"] == "done"
        status, health = _get(handle.url, "/v1/health")
        assert status == 200 and health["status"] == "ok"
        # A fresh stream on the finished job still works end to end.
        conn = http.client.HTTPConnection(host, int(port), timeout=30.0)
        conn.request("GET", f"/v1/jobs/{doc['job_id']}/events")
        response = conn.getresponse()
        lines = response.read().decode().splitlines()
        conn.close()
        assert json.loads(lines[-1])["status"] == "done"


def _read_to_eof(sock, timeout):
    """Bytes until the peer closes, or ``None`` if no EOF in ``timeout``."""
    sock.settimeout(timeout)
    data = b""
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            chunk = sock.recv(4096)
            if not chunk:
                return data
            data += chunk
    except socket.timeout:
        pass
    return None


def _tcp_ports(_payload):
    """Pool task: the local ports of the worker's open TCP sockets."""
    ports = []
    for name in os.listdir("/proc/self/fd"):
        try:
            fd = os.dup(int(name))
        except OSError:
            continue  # the listing's own descriptor, closed by now
        try:
            sock = socket.socket(fileno=fd)
        except OSError:
            os.close(fd)  # not a socket
            continue
        with sock:
            if sock.family in (socket.AF_INET, socket.AF_INET6):
                ports.append(sock.getsockname()[1])
    return sorted(ports)

class TestShutdownClosesConnections:
    def test_close_ends_an_idle_keep_alive_connection(self, tmp_path):
        handle = start_in_background(cache_dir=str(tmp_path / "cache"))
        conn = http.client.HTTPConnection(handle.server.host,
                                          handle.server.port, timeout=30.0)
        try:
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            response.read()
            assert response.status == 200 and not response.will_close
            started = time.monotonic()
            handle.close()
            assert time.monotonic() - started < 2.0
            assert _read_to_eof(conn.sock, 2.0) == b""
        finally:
            conn.close()
            handle.close()

    def test_jobs2_replay_workers_hold_no_client_socket(self, tmp_path):
        # The workers are forked with whatever sockets are open at that
        # moment; a server that forks them before it listens has none.
        # Injected worker kills and spawn failures respawn workers while
        # clients are connected, so this runs without a fault plan.
        from repro import pool

        pool.shutdown()
        with faults.injected(None):
            handle = start_in_background(cache_dir=str(tmp_path / "cache"),
                                         jobs=2)
            conn = http.client.HTTPConnection(
                handle.server.host, handle.server.port, timeout=60.0)
            try:
                conn.request("POST", "/v1/analyze", json.dumps({
                    "workload": WORKLOAD, "n_threads": 256,
                    "warp_size": 8}),
                    {"Content-Type": "application/json"})
                job_id = json.loads(conn.getresponse().read())["job_id"]
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    conn.request("GET", f"/v1/jobs/{job_id}")
                    doc = json.loads(conn.getresponse().read())
                    if doc["status"] in ("done", "failed"):
                        break
                    time.sleep(0.01)
                assert doc["status"] == "done", doc
                sock, conn.sock = conn.sock, None
                sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n"
                             b"Connection: close\r\n\r\n")
                reply = _read_to_eof(sock, 2.0)
                sock.close()
                assert reply is not None, "no EOF after Connection: close"
                assert reply.startswith(b"HTTP/1.1 200")
            finally:
                conn.close()
                handle.close()
                pool.shutdown()


    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists descriptors through /proc/self/fd")
    def test_respawned_replay_worker_holds_no_server_socket(self, tmp_path):
        # A worker respawned while the server listens and a client is
        # connected is forked with both sockets; it must not keep them.
        from repro import pool

        pool.shutdown()
        with faults.injected(None):
            handle = start_in_background(cache_dir=str(tmp_path / "cache"),
                                         jobs=2)
            port = handle.server.port
            conn = http.client.HTTPConnection(handle.server.host, port,
                                              timeout=30.0)
            try:
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                response.read()
                assert not response.will_close
                workers = pool.shared_pool().workers()
                assert len(workers) == 2
                os.kill(workers[0][0], signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while (pool.shared_pool().workers()[0][1]
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                respawned, original = pool.shared_pool().run_tasks(
                    [(_tcp_ports, None, "t0"), (_tcp_ports, None, "t1")],
                    jobs=2)
                assert pool.shared_pool().workers()[0][0] != workers[0][0]
                assert port not in respawned
                assert port not in original
                # A request on a new connection still succeeds.
                status, health = _get(handle.url, "/v1/health")
                assert status == 200 and health["status"] == "ok"
            finally:
                conn.close()
                handle.close()
                pool.shutdown()

#: Requests that do not parse, and the status each must get.
_MALFORMED = {
    "request_line": (b"GARBAGE\r\n\r\n", 400),
    "negative_length": (b"POST /v1/analyze HTTP/1.1\r\n"
                        b"Content-Length: -5\r\n\r\n", 400),
    "non_numeric_length": (b"POST /v1/analyze HTTP/1.1\r\n"
                           b"Content-Length: abc\r\n\r\n", 400),
    "oversized_length": (b"POST /v1/analyze HTTP/1.1\r\n"
                         b"Content-Length: 99999999\r\n\r\n", 413),
    "long_request_line": (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
                          431),
    "header_flood": (b"GET /v1/health HTTP/1.1\r\n"
                     + b"".join(b"X-Flood-%d: 1\r\n" % n for n in range(200))
                     + b"\r\n", 431),
    "repeated_header": (b"GET /v1/health HTTP/1.1\r\n" + b"X: 1\r\n" * 200
                        + b"\r\n", 431),
}


class TestMalformedRequests:
    """A request that does not parse gets its typed 4xx, then a close."""

    def test_each_gets_a_typed_status_and_the_server_stays_up(self, server):
        raised = []
        server.loop.set_exception_handler(
            lambda loop, context: raised.append(context))
        for name, (request, status) in sorted(_MALFORMED.items()):
            with socket.create_connection(
                    (server.server.host, server.server.port),
                    timeout=10.0) as sock:
                sock.sendall(request)
                reply = _read_to_eof(sock, 10.0)
            assert reply is not None, f"{name}: no close after the answer"
            head, _sep, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 %d " % status), (name, head)
            assert b"Connection: close" in head, name
            assert json.loads(body)["error"]["message"], name
        # A well-formed request on a new connection still succeeds.
        status, health = _get(server.url, "/v1/health")
        assert status == 200 and health["status"] == "ok"
        asyncio.run_coroutine_threadsafe(asyncio.sleep(0.05),
                                         server.loop).result(10.0)
        assert raised == []
